//! The Branch Outcome Queue (BOQ) and Footnote Queue (FQ) connecting the
//! look-ahead core to the main core (paper §III-A). The main thread's
//! fetch reads the BOQ through the system's link (`crate::link`).

use r3dla_stats::Counter;

/// One BOQ entry: a committed conditional-branch outcome from LT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoqEntry {
    /// Branch direction.
    pub taken: bool,
    /// Monotone tag assigned at push; aligns footnote-queue entries.
    pub tag: u64,
}

/// The Branch Outcome Queue.
///
/// LT pushes outcomes at commit; MT consumes them at fetch. Consumed
/// entries are retained until the corresponding MT branch *commits*, so a
/// replay can rewind consumption (`restore`). The number of unread
/// entries is the look-ahead depth (paper: 512-entry BOQ bounds it).
#[derive(Debug)]
pub struct Boq {
    entries: std::collections::VecDeque<BoqEntry>,
    consume_pos: usize,
    capacity: usize,
    next_tag: u64,
    last_served_tag: u64,
    /// Set when MT detected a wrong direction fed from the BOQ — the
    /// system must reboot LT (paper §III-A ­).
    pub misfeed: bool,
    /// Total outcomes pushed.
    pub pushed: Counter,
    /// Total outcomes consumed (including re-consumption after replays).
    pub consumed: Counter,
}

impl Boq {
    /// Creates a BOQ with the given capacity (paper: 512).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: std::collections::VecDeque::with_capacity(capacity),
            consume_pos: 0,
            capacity,
            next_tag: 1,
            last_served_tag: 0,
            misfeed: false,
            pushed: Counter::new(),
            consumed: Counter::new(),
        }
    }

    /// Whether LT should stall: unread depth reached capacity.
    pub fn full(&self) -> bool {
        self.entries.len() - self.consume_pos >= self.capacity
    }

    /// Unread entries — the current look-ahead depth in dynamic basic
    /// blocks (paper §III-A ®).
    pub fn depth(&self) -> usize {
        self.entries.len() - self.consume_pos
    }

    /// Pushes an outcome from LT commit; returns its tag.
    pub fn push(&mut self, taken: bool) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.entries.push_back(BoqEntry { taken, tag });
        self.pushed.inc();
        tag
    }

    /// MT fetch consumes the next prediction.
    pub fn consume(&mut self) -> Option<BoqEntry> {
        let e = *self.entries.get(self.consume_pos)?;
        self.consume_pos += 1;
        self.last_served_tag = e.tag;
        self.consumed.inc();
        Some(e)
    }

    /// Tag of the most recently served prediction.
    pub fn last_served_tag(&self) -> u64 {
        self.last_served_tag
    }

    /// MT committed a conditional branch: retire the front entry.
    pub fn commit_front(&mut self) -> Option<BoqEntry> {
        let e = self.entries.pop_front()?;
        self.consume_pos = self.consume_pos.saturating_sub(1);
        Some(e)
    }

    /// Snapshot of the consumption cursor (for squash recovery).
    pub fn consume_cursor(&self) -> usize {
        self.consume_pos
    }

    /// Rewinds the consumption cursor after a squash.
    pub fn rewind(&mut self, cursor: usize) {
        self.consume_pos = cursor.min(self.entries.len());
    }

    /// Clears everything (reboot).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.consume_pos = 0;
        self.misfeed = false;
    }
}

/// Typed footnote-queue entries (paper §III-A: "branch target addresses
/// and prefetch addresses … wider data"; §III-D1 adds value-reuse
/// entries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Footnote {
    /// Prefetch this address into MT's L1D when released.
    L1Prefetch(u64),
    /// Prefill this translation in MT's DTLB.
    TlbHint(u64),
    /// Predicted target for the indirect branch at `pc`.
    BranchTarget {
        /// Indirect branch PC.
        pc: u64,
        /// Its committed target in LT.
        target: u64,
    },
    /// A value-reuse entry: the LT-computed result of the instruction at
    /// `pc`, which is `offset` instructions after BOQ entry `tag`.
    Value {
        /// Aligning BOQ tag.
        tag: u64,
        /// Distance from the aligning branch.
        offset: u32,
        /// Producing instruction PC (cross-check).
        pc: u64,
        /// The value.
        value: u64,
    },
}

/// The Footnote Queue: bounded, tag-ordered hint channel.
///
/// Entries are released to MT when the BOQ entry with a tag ≥ theirs is
/// consumed — the paper's just-in-time prefetch release (§III-A ¯).
#[derive(Debug)]
pub struct FootnoteQueue {
    entries: std::collections::VecDeque<(u64, Footnote)>,
    capacity: usize,
    /// Hints dropped because the queue was full.
    pub dropped: Counter,
    /// Hints pushed successfully.
    pub pushed: Counter,
}

impl FootnoteQueue {
    /// Creates an FQ with the given capacity (paper: 128).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            dropped: Counter::new(),
            pushed: Counter::new(),
        }
    }

    /// Pushes a footnote associated with BOQ tag `tag`; drops when full.
    pub fn push(&mut self, tag: u64, note: Footnote) {
        if self.entries.len() >= self.capacity {
            self.dropped.inc();
            return;
        }
        self.entries.push_back((tag, note));
        self.pushed.inc();
    }

    /// Releases all entries with tag ≤ `served_tag` into `out`.
    pub fn release_up_to(&mut self, served_tag: u64, out: &mut Vec<Footnote>) {
        while let Some(&(tag, note)) = self.entries.front() {
            if tag > served_tag {
                break;
            }
            out.push(note);
            self.entries.pop_front();
        }
    }

    /// Whether [`release_up_to`](Self::release_up_to) with `served_tag`
    /// would deliver anything — the cycle-skipping path must not
    /// fast-forward past a pending release.
    pub fn has_releasable(&self, served_tag: u64) -> bool {
        self.entries
            .front()
            .is_some_and(|&(tag, _)| tag <= served_tag)
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears everything (reboot).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boq_push_consume_commit_cycle() {
        let mut b = Boq::new(4);
        let t1 = b.push(true);
        let t2 = b.push(false);
        assert_eq!(b.depth(), 2);
        assert_eq!(b.consume().map(|e| e.taken), Some(true));
        assert_eq!(b.last_served_tag(), t1);
        assert_eq!(b.depth(), 1);
        assert_eq!(b.consume().map(|e| e.taken), Some(false));
        assert_eq!(b.last_served_tag(), t2);
        assert_eq!(b.consume(), None);
        // Commit retires entries front-first.
        assert_eq!(b.commit_front().map(|e| e.tag), Some(t1));
        assert_eq!(b.commit_front().map(|e| e.tag), Some(t2));
        assert_eq!(b.commit_front(), None);
    }

    #[test]
    fn boq_full_bounds_lookahead_depth() {
        let mut b = Boq::new(2);
        b.push(true);
        assert!(!b.full());
        b.push(true);
        assert!(b.full());
        b.consume();
        assert!(!b.full());
    }

    #[test]
    fn boq_rewind_reconsumes_entries() {
        let mut b = Boq::new(8);
        b.push(true);
        b.push(false);
        let cursor = b.consume_cursor();
        assert_eq!(b.consume().map(|e| e.taken), Some(true));
        assert_eq!(b.consume().map(|e| e.taken), Some(false));
        b.rewind(cursor);
        // Same predictions replay after a squash.
        assert_eq!(b.consume().map(|e| e.taken), Some(true));
        assert_eq!(b.consume().map(|e| e.taken), Some(false));
    }

    #[test]
    fn fq_release_by_tag() {
        let mut fq = FootnoteQueue::new(8);
        fq.push(1, Footnote::L1Prefetch(0x100));
        fq.push(2, Footnote::TlbHint(0x200));
        fq.push(5, Footnote::L1Prefetch(0x300));
        let mut out = Vec::new();
        fq.release_up_to(2, &mut out);
        assert_eq!(
            out,
            vec![Footnote::L1Prefetch(0x100), Footnote::TlbHint(0x200)]
        );
        out.clear();
        fq.release_up_to(10, &mut out);
        assert_eq!(out, vec![Footnote::L1Prefetch(0x300)]);
        assert!(fq.is_empty());
    }

    #[test]
    fn fq_drops_when_full() {
        let mut fq = FootnoteQueue::new(1);
        fq.push(1, Footnote::TlbHint(1));
        fq.push(1, Footnote::TlbHint(2));
        assert_eq!(fq.len(), 1);
        assert_eq!(fq.dropped.get(), 1);
    }

    #[test]
    fn boq_reboot_flush_resets_everything() {
        let mut b = Boq::new(4);
        b.push(true);
        b.push(false);
        b.consume();
        b.misfeed = true;
        b.clear();
        assert_eq!(b.depth(), 0);
        assert_eq!(b.consume_cursor(), 0);
        assert!(!b.misfeed);
        assert_eq!(b.consume(), None);
        assert_eq!(b.commit_front(), None);
        // Tags keep growing across reboots so FQ alignment stays unique.
        let t = b.push(true);
        assert!(t >= 3, "tags must not be reissued after a reboot: got {t}");
    }

    #[test]
    fn boq_counters_track_push_and_consume() {
        let mut b = Boq::new(8);
        for i in 0..5 {
            b.push(i % 2 == 0);
        }
        for _ in 0..3 {
            b.consume();
        }
        // A squash replays two entries.
        b.rewind(1);
        b.consume();
        b.consume();
        assert_eq!(b.pushed.get(), 5);
        assert_eq!(b.consumed.get(), 5, "re-consumption after replay counts");
        assert_eq!(b.depth(), 2);
    }

    #[test]
    fn boq_backpressure_follows_unread_depth() {
        // `full()` gates LT pushes on *unread* depth (the look-ahead
        // distance), not physical occupancy: MT consuming an entry frees
        // push capacity immediately, while consumed-but-uncommitted
        // entries are retained for squash replay without counting
        // against it.
        let mut b = Boq::new(2);
        b.push(true);
        b.push(true);
        assert!(b.full());
        b.consume();
        b.consume();
        assert!(!b.full());
        // Retiring keeps the consume cursor aligned so depth stays
        // correct as new outcomes arrive.
        b.commit_front();
        b.push(false);
        assert_eq!(b.depth(), 1);
        assert!(!b.full());
        b.push(false);
        assert!(b.full());
    }

    #[test]
    fn fq_preserves_push_order_within_a_tag() {
        let mut fq = FootnoteQueue::new(8);
        fq.push(3, Footnote::L1Prefetch(0xA));
        fq.push(3, Footnote::TlbHint(0xB));
        fq.push(3, Footnote::L1Prefetch(0xC));
        let mut out = Vec::new();
        fq.release_up_to(3, &mut out);
        assert_eq!(
            out,
            vec![
                Footnote::L1Prefetch(0xA),
                Footnote::TlbHint(0xB),
                Footnote::L1Prefetch(0xC),
            ]
        );
        assert_eq!(fq.pushed.get(), 3);
        assert_eq!(fq.dropped.get(), 0);
    }

    #[test]
    fn fq_reboot_flush_drops_pending_hints() {
        let mut fq = FootnoteQueue::new(4);
        fq.push(1, Footnote::L1Prefetch(0x100));
        fq.push(
            2,
            Footnote::Value {
                tag: 2,
                offset: 1,
                pc: 0x40,
                value: 7,
            },
        );
        assert_eq!(fq.len(), 2);
        fq.clear();
        assert!(fq.is_empty());
        let mut out = Vec::new();
        fq.release_up_to(u64::MAX, &mut out);
        assert!(out.is_empty(), "flushed hints must never be released");
    }
}
