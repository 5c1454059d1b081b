//! Branch target buffer: predicts targets for taken branches at fetch.

use r3dla_stats::Counter;

/// BTB geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl BtbConfig {
    /// The paper's 4K-entry BTB (4-way).
    pub fn paper() -> Self {
        Self {
            entries: 4096,
            ways: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    pc: u64,
    target: u64,
    valid: bool,
    stamp: u64,
}

/// A set-associative branch target buffer.
///
/// # Examples
///
/// ```
/// use r3dla_bpred::{Btb, BtbConfig};
/// let mut btb = Btb::new(BtbConfig::paper());
/// assert_eq!(btb.predict(0x1000), None);
/// btb.update(0x1000, 0x2000);
/// assert_eq!(btb.predict(0x1000), Some(0x2000));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    /// Every way of every set, set-major: set `s` is
    /// `entries[s * ways..(s + 1) * ways]`.
    entries: Vec<BtbEntry>,
    ways: usize,
    /// `sets - 1`, for set indexing.
    set_mask: usize,
    stamp: u64,
    /// Lookup count.
    pub lookups: Counter,
    /// Lookups that found no entry.
    pub misses: Counter,
}

impl Btb {
    /// Creates a BTB from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if geometry does not divide into at least one set.
    pub fn new(cfg: BtbConfig) -> Self {
        let sets = (cfg.entries / cfg.ways).next_power_of_two();
        assert!(sets > 0, "BTB must have at least one set");
        Self {
            entries: vec![BtbEntry::default(); sets * cfg.ways],
            ways: cfg.ways,
            set_mask: sets - 1,
            stamp: 0,
            lookups: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The ways of the set holding `pc`.
    #[inline]
    fn set_of(&mut self, pc: u64) -> &mut [BtbEntry] {
        let start = (((pc >> 2) as usize) & self.set_mask) * self.ways;
        &mut self.entries[start..start + self.ways]
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> Option<u64> {
        self.lookups.inc();
        self.stamp += 1;
        let stamp = self.stamp;
        let hit = self
            .set_of(pc)
            .iter_mut()
            .find(|e| e.valid && e.pc == pc)
            .map(|e| {
                e.stamp = stamp;
                e.target
            });
        if hit.is_none() {
            self.misses.inc();
        }
        hit
    }

    /// Installs or refreshes the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(pc);
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.pc == pc) {
            e.target = target;
            e.stamp = stamp;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.stamp } else { 0 })
            .expect("nonzero ways");
        *victim = BtbEntry {
            pc,
            target,
            valid: true,
            stamp,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Btb {
        Btb::new(BtbConfig {
            entries: 8,
            ways: 2,
        })
    }

    #[test]
    fn update_then_predict() {
        let mut b = tiny();
        b.update(0x100, 0x500);
        assert_eq!(b.predict(0x100), Some(0x500));
        assert_eq!(b.lookups.get(), 1);
        assert_eq!(b.misses.get(), 0);
    }

    #[test]
    fn retarget_overwrites() {
        let mut b = tiny();
        b.update(0x100, 0x500);
        b.update(0x100, 0x700);
        assert_eq!(b.predict(0x100), Some(0x700));
    }

    #[test]
    fn lru_within_set() {
        let mut b = tiny(); // 4 sets × 2 ways; pcs 16 bytes apart collide per set of 4

        // Set index uses pc>>2 & 3: pcs 0x100, 0x110, 0x120 all map to set 0.
        b.update(0x100, 1);
        b.update(0x110, 2);
        b.predict(0x100); // refresh
        b.update(0x120, 3); // evicts 0x110
        assert_eq!(b.predict(0x100), Some(1));
        assert_eq!(b.predict(0x110), None);
        assert_eq!(b.predict(0x120), Some(3));
    }

    #[test]
    fn miss_counted() {
        let mut b = tiny();
        assert_eq!(b.predict(0xABC0), None);
        assert_eq!(b.misses.get(), 1);
    }
}
