//! In-flight storage of the detailed core: a fixed ring of reusable
//! slots, and the store queue built on it.

/// A FIFO over a power-of-two array of slots that are reused in place.
///
/// Entries are addressed by absolute position. Positions count up
/// without wrapping: the oldest entry is at [`Ring::head`], the next
/// free slot at [`Ring::tail`], and position `p` lives in slot
/// `p & mask`. Pushing and popping move an index and nothing else:
/// [`Ring::push_back`] hands out the next slot still holding what it
/// held before, for the caller to overwrite field by field, and a popped
/// entry stays readable until its slot is handed out again.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    slots: Box<[T]>,
    mask: u64,
    head: u64,
    tail: u64,
}

impl<T: Clone> Ring<T> {
    /// A ring holding at least `capacity` entries, every slot
    /// initialised to `fill`.
    pub(crate) fn new(capacity: usize, fill: T) -> Self {
        let n = capacity.max(1).next_power_of_two();
        Self {
            slots: vec![fill; n].into_boxed_slice(),
            mask: n as u64 - 1,
            head: 0,
            tail: 0,
        }
    }
}

impl<T> Ring<T> {
    /// Slots in the ring: a power of two.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Position of the oldest entry.
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    /// Position the next push will take.
    pub(crate) fn tail(&self) -> u64 {
        self.tail
    }

    /// The entry at position `pos`, which must be live.
    pub(crate) fn at(&self, pos: u64) -> &T {
        debug_assert!(
            (self.head..self.tail).contains(&pos),
            "ring position {pos} outside {}..{}",
            self.head,
            self.tail
        );
        &self.slots[(pos & self.mask) as usize]
    }

    /// The entry at position `pos`, which must be live.
    pub(crate) fn at_mut(&mut self, pos: u64) -> &mut T {
        debug_assert!(
            (self.head..self.tail).contains(&pos),
            "ring position {pos} outside {}..{}",
            self.head,
            self.tail
        );
        &mut self.slots[(pos & self.mask) as usize]
    }

    pub(crate) fn front(&self) -> Option<&T> {
        (!self.is_empty()).then(|| self.at(self.head))
    }

    pub(crate) fn back(&self) -> Option<&T> {
        (!self.is_empty()).then(|| self.at(self.tail - 1))
    }

    /// Appends an entry and returns its slot, still holding stale
    /// contents: the caller must write every field.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full. Callers bound their occupancy below
    /// the capacity they asked for, so this is a broken invariant.
    pub(crate) fn push_back(&mut self) -> &mut T {
        assert!(self.len() < self.slots.len(), "ring overflow");
        let pos = self.tail;
        self.tail += 1;
        &mut self.slots[(pos & self.mask) as usize]
    }

    /// Drops the oldest entry.
    pub(crate) fn pop_front(&mut self) {
        assert!(!self.is_empty(), "pop_front on an empty ring");
        self.head += 1;
    }

    /// Drops the youngest entry.
    pub(crate) fn pop_back(&mut self) {
        assert!(!self.is_empty(), "pop_back on an empty ring");
        self.tail -= 1;
    }

    /// Drops every entry. Positions keep counting from the old tail.
    pub(crate) fn clear(&mut self) {
        self.head = self.tail;
    }
}

/// An in-flight store: its sequence number, and its address and data
/// once it has executed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StoreSlot {
    pub(crate) seq: u64,
    pub(crate) addr: Option<u64>,
    pub(crate) data: u64,
}

/// A thread's in-flight stores, oldest first, with a cursor on the
/// oldest one whose address is still unknown.
///
/// Every store before the cursor has its address, so whether any store
/// older than a load is unresolved is one look at the cursor. The cursor
/// only moves forward as stores resolve, and back only when a squash
/// removes the stores it passed, so keeping it costs O(1) per store.
#[derive(Debug, Clone)]
pub(crate) struct StoreQueue {
    slots: Ring<StoreSlot>,
    /// Position of the oldest store with an unknown address;
    /// `slots.tail()` when every address is known.
    unresolved: u64,
}

impl StoreQueue {
    /// A queue holding at least `capacity` stores.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            slots: Ring::new(capacity, StoreSlot::default()),
            unresolved: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Appends store `seq`, address unknown; returns its position.
    pub(crate) fn push(&mut self, seq: u64) -> u64 {
        let pos = self.slots.tail();
        *self.slots.push_back() = StoreSlot {
            seq,
            addr: None,
            data: 0,
        };
        pos
    }

    /// Records the address and data of the store at `pos`.
    pub(crate) fn resolve(&mut self, pos: u64, addr: u64, data: u64) {
        let s = self.slots.at_mut(pos);
        s.addr = Some(addr);
        s.data = data;
        while self.unresolved < self.slots.tail() && self.slots.at(self.unresolved).addr.is_some() {
            self.unresolved += 1;
        }
    }

    /// The oldest store.
    pub(crate) fn front(&self) -> Option<&StoreSlot> {
        self.slots.front()
    }

    /// The youngest store.
    pub(crate) fn back(&self) -> Option<&StoreSlot> {
        self.slots.back()
    }

    /// Drops the oldest store, which must have resolved (it commits).
    pub(crate) fn pop_front(&mut self) {
        self.slots.pop_front();
        debug_assert!(
            self.unresolved >= self.slots.head(),
            "committed an unresolved store"
        );
    }

    /// Drops the youngest store (it is squashed).
    pub(crate) fn pop_back(&mut self) {
        self.slots.pop_back();
        self.unresolved = self.unresolved.min(self.slots.tail());
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.unresolved = self.slots.tail();
    }

    /// The oldest store whose address is unknown.
    pub(crate) fn oldest_unresolved(&self) -> Option<&StoreSlot> {
        (self.unresolved < self.slots.tail()).then(|| self.slots.at(self.unresolved))
    }

    /// Whether a load with sequence number `seq` may issue: no older
    /// store has an unknown address.
    pub(crate) fn load_may_issue(&self, seq: u64) -> bool {
        self.oldest_unresolved().is_none_or(|s| s.seq > seq)
    }

    /// The data of the youngest store older than `seq` that wrote
    /// `addr`, for store-to-load forwarding.
    pub(crate) fn forward(&self, seq: u64, addr: u64) -> Option<u64> {
        (self.slots.head()..self.slots.tail())
            .rev()
            .map(|pos| self.slots.at(pos))
            .filter(|s| s.seq < seq)
            .find(|s| s.addr == Some(addr))
            .map(|s| s.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries of `r`, oldest first.
    fn contents(r: &Ring<u64>) -> Vec<u64> {
        (r.head()..r.tail()).map(|p| *r.at(p)).collect()
    }

    fn push(r: &mut Ring<u64>, v: u64) {
        *r.push_back() = v;
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        for (asked, got) in [(0, 1), (1, 1), (5, 8), (8, 8), (192, 256), (512, 512)] {
            assert_eq!(Ring::new(asked, 0u64).capacity(), got, "asked {asked}");
        }
    }

    #[test]
    fn wraparound_keeps_fifo_order() {
        let mut r = Ring::new(4, 0u64);
        for v in 0..4 {
            push(&mut r, v);
        }
        // Ten laps of pop-one, push-one: slots are reused in place.
        for v in 4..44 {
            assert_eq!(r.front(), Some(&(v - 4)));
            r.pop_front();
            push(&mut r, v);
            assert_eq!(r.len(), 4);
            assert_eq!(contents(&r), (v - 3..=v).collect::<Vec<_>>());
        }
        assert_eq!((r.head(), r.tail()), (40, 44));
    }

    #[test]
    fn pop_back_crosses_the_wrap() {
        let mut r = Ring::new(4, 0u64);
        for v in 0..3 {
            push(&mut r, v);
        }
        r.pop_front();
        r.pop_front();
        // Positions 2..6 occupy slots 2, 3, 0, 1.
        for v in 3..6 {
            push(&mut r, v);
        }
        assert_eq!(contents(&r), vec![2, 3, 4, 5]);
        r.pop_back(); // slot 1
        r.pop_back(); // slot 0
        assert_eq!(r.back(), Some(&3)); // slot 3, across the wrap
        r.pop_back();
        assert_eq!(contents(&r), vec![2]);
        // Refilling reuses the freed slots past the wrap again.
        push(&mut r, 30);
        push(&mut r, 40);
        assert_eq!(contents(&r), vec![2, 30, 40]);
    }

    #[test]
    fn squash_back_to_the_entry_at_the_wrap() {
        // A ROB-style squash: pop younger entries until the squashing
        // position is the youngest. Put it in the last slot before the
        // wrap, then in the first slot after it.
        for keep in [7u64, 8] {
            let mut r = Ring::new(8, 0u64);
            for v in 0..5 {
                push(&mut r, v);
            }
            for _ in 0..5 {
                r.pop_front();
            }
            for v in 5..13 {
                push(&mut r, v);
            }
            assert_eq!(r.len(), 8);
            while r.tail() > keep + 1 {
                r.pop_back();
            }
            assert_eq!(r.back(), Some(&keep), "squash to position {keep}");
            assert_eq!(contents(&r), (5..=keep).collect::<Vec<_>>());
            // Fetch resumes after the squash with the next position.
            push(&mut r, 100);
            assert_eq!(*r.at(keep + 1), 100);
        }
    }

    #[test]
    fn clear_keeps_counting_positions() {
        let mut r = Ring::new(4, 0u64);
        for v in 0..3 {
            push(&mut r, v);
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!((r.head(), r.tail()), (3, 3));
        push(&mut r, 9);
        assert_eq!(r.front(), Some(&9));
        assert_eq!(r.head(), 3);
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn pushing_past_capacity_panics() {
        let mut r = Ring::new(2, 0u64);
        for v in 0..3 {
            push(&mut r, v);
        }
    }

    #[test]
    fn store_queue_cursor_tracks_the_oldest_unresolved_store() {
        let mut sq = StoreQueue::new(4);
        let p10 = sq.push(10);
        let p20 = sq.push(20);
        sq.push(30);
        // A load at 15 waits for store 10; one at 5 does not.
        assert!(!sq.load_may_issue(15));
        assert!(sq.load_may_issue(5));
        // Resolving out of order moves the cursor only past a resolved
        // prefix.
        sq.resolve(p20, 0x200, 2);
        assert_eq!(sq.oldest_unresolved().map(|s| s.seq), Some(10));
        sq.resolve(p10, 0x100, 1);
        assert_eq!(sq.oldest_unresolved().map(|s| s.seq), Some(30));
        assert!(sq.load_may_issue(25));
        assert!(!sq.load_may_issue(35));
        // Squashing the unresolved store leaves every address known.
        sq.pop_back();
        assert!(sq.oldest_unresolved().is_none());
        assert!(sq.load_may_issue(35));
        // Commit drops the oldest; a new store is unresolved again.
        sq.pop_front();
        let p40 = sq.push(40);
        assert_eq!(sq.oldest_unresolved().map(|s| s.seq), Some(40));
        sq.resolve(p40, 0x400, 4);
        assert!(sq.oldest_unresolved().is_none());
        sq.clear();
        assert_eq!(sq.len(), 0);
        assert!(sq.oldest_unresolved().is_none());
    }

    #[test]
    fn forwarding_takes_the_youngest_older_matching_store() {
        let mut sq = StoreQueue::new(8);
        for (seq, addr, data) in [(1, 0x40, 11), (2, 0x80, 22), (3, 0x40, 33), (9, 0x40, 99)] {
            let p = sq.push(seq);
            sq.resolve(p, addr, data);
        }
        assert_eq!(sq.forward(5, 0x40), Some(33)); // not 11, not the younger 99
        assert_eq!(sq.forward(3, 0x40), Some(11));
        assert_eq!(sq.forward(5, 0x80), Some(22));
        assert_eq!(sq.forward(5, 0xc0), None);
        assert_eq!(sq.forward(1, 0x40), None);
    }
}
