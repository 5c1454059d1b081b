//! Value reuse (paper §III-D1): the Slow Instruction Filter (SIF) and the
//! main-thread value-prediction source fed from footnote-queue entries.

use std::collections::VecDeque;

use r3dla_isa::{FxHashMap, FxHashSet};
use r3dla_stats::Counter;

/// The Slow Instruction Filter: a Bloom filter of PCs whose
/// dispatch-to-execute latency exceeded the threshold during the
/// identification window at the start of each loop, minus PCs whose
/// predictions went wrong ("deleted from the SIF").
#[derive(Debug)]
pub struct Sif {
    bloom: [u64; 8],
    deleted: FxHashSet<u64>,
    current_loop: Option<u64>,
    iters_in_loop: u32,
    /// Latency threshold in cycles (paper: 20).
    pub latency_threshold: u64,
    /// Identification window in loop iterations (paper: 8).
    pub ident_iters: u32,
    /// Mispredicted PCs removed so far.
    pub deletions: Counter,
}

impl Sif {
    /// Creates an empty SIF with the paper's thresholds.
    pub fn new() -> Self {
        Self {
            bloom: [0; 8],
            deleted: FxHashSet::default(),
            current_loop: None,
            iters_in_loop: 0,
            latency_threshold: 20,
            ident_iters: 8,
            deletions: Counter::new(),
        }
    }

    fn hashes(pc: u64) -> (usize, usize) {
        let h1 = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h2 = (pc >> 2).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        ((h1 >> 55) as usize, (h2 >> 55) as usize)
    }

    fn bloom_insert(&mut self, pc: u64) {
        let (a, b) = Self::hashes(pc);
        self.bloom[a / 64] |= 1 << (a % 64);
        self.bloom[b / 64] |= 1 << (b % 64);
    }

    fn bloom_contains(&self, pc: u64) -> bool {
        let (a, b) = Self::hashes(pc);
        self.bloom[a / 64] & (1 << (a % 64)) != 0 && self.bloom[b / 64] & (1 << (b % 64)) != 0
    }

    /// MT-side: tracks loop context from committed backward-taken
    /// branches; entering a new loop clears the filter (paper: "The SIF
    /// is cleared upon entering a new loop").
    pub fn on_loop_branch(&mut self, target_pc: u64) {
        match self.current_loop {
            Some(l) if l == target_pc => {
                self.iters_in_loop = self.iters_in_loop.saturating_add(1);
            }
            _ => {
                self.current_loop = Some(target_pc);
                self.iters_in_loop = 0;
                self.bloom = [0; 8];
                self.deleted.clear();
            }
        }
    }

    /// MT-side: records a committed instruction's observed latency during
    /// the identification window.
    pub fn observe_latency(&mut self, pc: u64, dispatch_to_exec: u64) {
        if self.iters_in_loop < self.ident_iters && dispatch_to_exec >= self.latency_threshold {
            self.bloom_insert(pc);
        }
    }

    /// LT-side: whether to allocate a value-reuse entry for `pc`
    /// ("LT checks this table at commit stage").
    pub fn should_reuse(&self, pc: u64) -> bool {
        self.bloom_contains(pc) && !self.deleted.contains(&pc)
    }

    /// Confidence feedback: a misprediction deletes the static
    /// instruction from the filter.
    pub fn on_mispredict(&mut self, pc: u64) {
        if self.deleted.insert(pc) {
            self.deletions.inc();
        }
    }
}

impl Default for Sif {
    fn default() -> Self {
        Self::new()
    }
}

/// The MT-side value-prediction source: holds released FQ value entries
/// keyed by `(BOQ tag, pc)` until the rename stage asks for them.
///
/// The paper aligns FQ value entries by an offset from the preceding
/// branch; since LT commits only skeleton instructions, we key by the
/// producing PC within the governing branch's window — the same
/// alignment, with the PC cross-check built in.
#[derive(Debug)]
pub struct VrSource {
    pending: FxHashMap<(u64, u64), u64>, // (tag, pc) -> value
    order: VecDeque<(u64, u64)>,
    capacity: usize,
    /// Mispredicted PCs reported back (drained by the system into the
    /// shared SIF).
    pub mispredicted_pcs: Vec<u64>,
    /// Predictions served.
    pub served: Counter,
    /// Entries that expired unused.
    pub expired: Counter,
}

impl VrSource {
    /// Creates a source bounded to `capacity` pending entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            pending: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
            mispredicted_pcs: Vec::new(),
            served: Counter::new(),
            expired: Counter::new(),
        }
    }

    /// Accepts a released FQ value entry.
    pub fn insert(&mut self, tag: u64, pc: u64, value: u64) {
        while self.pending.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    if self.pending.remove(&old).is_some() {
                        self.expired.inc();
                    }
                }
                None => break,
            }
        }
        if self.pending.insert((tag, pc), value).is_none() {
            self.order.push_back((tag, pc));
        }
    }

    /// Drops everything (reboot).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.order.clear();
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The pending value for the instruction at `pc` after the
    /// `branch_tag`-th served branch, if LT sent one.
    pub fn predict(&mut self, pc: u64, branch_tag: u64) -> Option<u64> {
        let value = self.pending.get(&(branch_tag, pc)).copied();
        if value.is_some() {
            self.served.inc();
        }
        value
    }

    /// Records a consumed prediction's validation outcome.
    pub fn on_outcome(&mut self, pc: u64, correct: bool) {
        if !correct {
            self.mispredicted_pcs.push(pc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sif_learns_slow_instructions_within_window() {
        let mut sif = Sif::new();
        sif.on_loop_branch(0x100);
        sif.observe_latency(0x200, 25);
        sif.observe_latency(0x204, 3);
        assert!(sif.should_reuse(0x200));
        assert!(!sif.should_reuse(0x204));
    }

    #[test]
    fn sif_stops_learning_after_ident_window() {
        let mut sif = Sif::new();
        sif.on_loop_branch(0x100);
        for _ in 0..10 {
            sif.on_loop_branch(0x100); // 10 iterations
        }
        sif.observe_latency(0x300, 50);
        assert!(!sif.should_reuse(0x300), "beyond the 8-iteration window");
    }

    #[test]
    fn sif_clears_on_new_loop() {
        let mut sif = Sif::new();
        sif.on_loop_branch(0x100);
        sif.observe_latency(0x200, 25);
        assert!(sif.should_reuse(0x200));
        sif.on_loop_branch(0x900); // different loop
        assert!(!sif.should_reuse(0x200));
    }

    #[test]
    fn sif_deletes_mispredicted_pcs() {
        let mut sif = Sif::new();
        sif.on_loop_branch(0x100);
        sif.observe_latency(0x200, 30);
        sif.on_mispredict(0x200);
        assert!(!sif.should_reuse(0x200));
        assert_eq!(sif.deletions.get(), 1);
    }

    #[test]
    fn vr_source_serves_matching_entries_only() {
        let mut vr = VrSource::new(32);
        vr.insert(7, 0x400, 1234);
        // Wrong tag / pc → no prediction.
        assert_eq!(vr.predict(0x400, 8), None);
        assert_eq!(vr.predict(0x444, 7), None);
        // Exact match serves the value.
        assert_eq!(vr.predict(0x400, 7), Some(1234));
        assert_eq!(vr.served.get(), 1);
    }

    #[test]
    fn vr_source_bounded_capacity() {
        let mut vr = VrSource::new(2);
        vr.insert(1, 0x1, 10);
        vr.insert(2, 0x2, 20);
        vr.insert(3, 0x3, 30); // evicts (1, 0x1)
        assert_eq!(vr.len(), 2);
        assert_eq!(vr.predict(0x1, 1), None);
        assert_eq!(vr.predict(0x3, 3), Some(30));
    }

    #[test]
    fn vr_outcome_feedback_collects_mispredicts() {
        let mut vr = VrSource::new(8);
        vr.on_outcome(0x10, true);
        vr.on_outcome(0x20, false);
        assert_eq!(vr.mispredicted_pcs, vec![0x20]);
    }
}
