//! Skeleton re-cycling (paper §III-E): the active-skeleton holder (the
//! mask the LT front end consults), the Loop-Config Table, and the
//! controller that searches skeleton versions per loop.

use std::collections::HashMap;
use std::sync::Arc;

use r3dla_isa::Program;
use r3dla_stats::Counter;

use crate::skeleton::SkeletonSet;

/// The currently selected skeleton, read by the LT fetch filter and
/// branch override and by the MT's T1 S-bit check, and steered by the
/// recycle controller.
#[derive(Debug)]
pub struct ActiveSkeleton {
    set: Arc<SkeletonSet>,
    active: usize,
    code_base: u64,
    n: usize,
    /// Every version's bias-converted branch directions by instruction
    /// index, version-major: `bias[v * n + i]`.
    bias: Vec<Option<bool>>,
    /// Committed-instruction-weighted usage per version (Fig 15 data).
    pub usage: Vec<u64>,
}

impl ActiveSkeleton {
    /// Wraps a skeleton set; version 0 starts active.
    pub fn new(set: impl Into<Arc<SkeletonSet>>, prog: &Program) -> Self {
        let set = set.into();
        let n = prog.len();
        let mut bias = vec![None; set.len() * n];
        for (v, version) in set.versions.iter().enumerate() {
            for (&pc, &taken) in &version.bias_override {
                if let Some(i) = prog.pc_to_index(pc) {
                    bias[v * n + i] = Some(taken);
                }
            }
        }
        Self {
            usage: vec![0; set.len()],
            set,
            active: 0,
            code_base: prog.code_base(),
            n,
            bias,
        }
    }

    /// Index of the active version.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Switches the active version.
    ///
    /// # Panics
    ///
    /// Panics if `version` is out of range.
    pub fn switch_to(&mut self, version: usize) {
        assert!(version < self.set.len(), "skeleton version out of range");
        self.active = version;
    }

    /// Number of versions available.
    pub fn versions(&self) -> usize {
        self.set.len()
    }

    /// The skeleton set.
    pub fn set(&self) -> &Arc<SkeletonSet> {
        &self.set
    }

    /// Records one committed MT instruction against the active version.
    pub fn tick_usage(&mut self) {
        self.usage[self.active] += 1;
    }

    #[inline]
    fn index_of(&self, pc: u64) -> Option<usize> {
        if pc < self.code_base {
            return None;
        }
        let idx = ((pc - self.code_base) / 4) as usize;
        (idx < self.n).then_some(idx)
    }

    /// Whether the active version keeps the instruction at `pc` (the LT
    /// fetch filter).
    #[inline]
    pub fn keep(&self, pc: u64) -> bool {
        match self.index_of(pc) {
            Some(i) => self.set.versions[self.active].mask[i],
            None => true,
        }
    }

    /// Whether the load at `pc` is a prefetch payload of the active
    /// version.
    #[inline]
    pub fn prefetch_only(&self, pc: u64) -> bool {
        match self.index_of(pc) {
            Some(i) => self.set.versions[self.active].prefetch_only[i],
            None => false,
        }
    }

    /// The active version's forced direction for the conditional branch
    /// at `pc`, if it is bias-converted (the LT branch override).
    #[inline]
    pub fn force(&self, pc: u64) -> Option<bool> {
        self.index_of(pc)
            .and_then(|i| self.bias[self.active * self.n + i])
    }

    /// Whether the instruction at `pc` carries a T1 S bit. S bits come
    /// from the default version, whichever version is active.
    #[inline]
    pub fn sbit(&self, pc: u64) -> bool {
        self.index_of(pc)
            .is_some_and(|i| self.set.versions[0].sbits[i])
    }
}

/// Recycle-controller operating mode.
#[derive(Debug, Clone, PartialEq)]
pub enum RecycleMode {
    /// Always use version 0 (no recycling).
    Off,
    /// On-line per-loop search (paper Fig 7).
    Dynamic,
    /// Off-line assignment from training-run tuning: loop PC → version.
    Static(HashMap<u64, usize>),
}

#[derive(Debug, Clone, Copy)]
struct LctEntry {
    loop_pc: u64,
    version: usize,
    stamp: u64,
    /// The default (version-0) IPC measured when this choice was made —
    /// the monitor's safety reference (the Fig 7 "update if not equal"
    /// path reverts to the default when the choice stops paying off).
    default_ipc: f64,
}

#[derive(Debug, Clone, Copy)]
struct LoopSearch {
    loop_pc: u64,
    /// Version currently under test; `versions()` means the final
    /// confirmation re-measurement of version 0 (a warm rerun that
    /// removes the cold-start bias of testing version 0 first).
    testing: usize,
    iters_this_version: u32,
    insts_at_start: u64,
    cycles_at_start: u64,
    /// Whether the settling period after the switch has elapsed — the
    /// look-ahead pipeline (BOQ depth) must drain before MT's IPC
    /// reflects the new skeleton.
    settled: bool,
    best: usize,
    best_ipc: f64,
    /// Measured IPC of the default version (hysteresis reference).
    default_ipc: f64,
}

#[derive(Debug, Clone, Copy)]
struct LoopMonitor {
    loop_pc: u64,
    iters: u32,
    insts_at_start: u64,
    cycles_at_start: u64,
    /// The default version's IPC measured during the search.
    default_ipc: f64,
}

/// The recycle controller: observes the main thread's committed loop
/// branches and steers the LT's active skeleton (paper Fig 7: Loop
/// Register + Loop-Config Table).
#[derive(Debug)]
pub struct RecycleController {
    mode: RecycleMode,
    lct: Vec<LctEntry>,
    lct_capacity: usize,
    search: Option<LoopSearch>,
    monitor: Option<LoopMonitor>,
    current_loop: Option<u64>,
    /// Target of the previous committed backward branch — loop
    /// identification requires two *consecutive* instances of the same
    /// loop branch (paper §III-E2, Fig 7).
    last_backward_target: Option<u64>,
    committed: u64,
    /// Iterations each version is measured for during a search.
    pub iters_per_version: u32,
    /// Minimum committed instructions per measurement window (paper:
    /// units of at least ~10k instructions).
    pub min_insts_per_version: u64,
    /// Committed instructions to wait after a switch before measuring.
    pub settle_insts: u64,
    /// Completed searches.
    pub searches: Counter,
    /// Skeleton switches performed.
    pub switches: Counter,
    /// LCT hits.
    pub lct_hits: Counter,
    /// Reboots observed while a non-default version was active (storm
    /// detection).
    storm_count: u32,
    /// Versions abandoned by the reboot-storm guard.
    pub storm_demotions: Counter,
}

impl RecycleController {
    /// Creates a controller (paper Table I: 16-entry LCT).
    pub fn new(mode: RecycleMode) -> Self {
        Self {
            mode,
            lct: Vec::new(),
            lct_capacity: 16,
            search: None,
            monitor: None,
            current_loop: None,
            last_backward_target: None,
            committed: 0,
            iters_per_version: 4,
            min_insts_per_version: 3_000,
            settle_insts: 1_000,
            searches: Counter::new(),
            switches: Counter::new(),
            lct_hits: Counter::new(),
            storm_count: 0,
            storm_demotions: Counter::new(),
        }
    }

    /// Reboot feedback from the system: a skeleton version that keeps
    /// veering off the control flow (e.g. a bias conversion whose bias
    /// shifted after profiling) is demoted back to the default and the
    /// LCT entry is pinned to version 0 (the Fig 7 "update if not equal"
    /// path).
    pub fn on_reboot(&mut self, active: &mut ActiveSkeleton) {
        if active.active() == 0 {
            self.storm_count = 0;
            return;
        }
        self.storm_count += 1;
        if self.storm_count >= 3 {
            self.storm_count = 0;
            active.switch_to(0);
            self.switches.inc();
            self.storm_demotions.inc();
            self.search = None;
            self.monitor = None;
            if let Some(lp) = self.current_loop {
                self.lct_insert(lp, 0, 0.0);
            }
        }
    }

    /// The operating mode.
    pub fn mode(&self) -> &RecycleMode {
        &self.mode
    }

    fn lct_lookup(&mut self, loop_pc: u64) -> Option<(usize, f64)> {
        let stamp = self.committed;
        for e in &mut self.lct {
            if e.loop_pc == loop_pc {
                e.stamp = stamp;
                return Some((e.version, e.default_ipc));
            }
        }
        None
    }

    fn lct_insert(&mut self, loop_pc: u64, version: usize, default_ipc: f64) {
        let stamp = self.committed;
        if let Some(e) = self.lct.iter_mut().find(|e| e.loop_pc == loop_pc) {
            e.version = version;
            e.stamp = stamp;
            e.default_ipc = default_ipc;
            return;
        }
        if self.lct.len() < self.lct_capacity {
            self.lct.push(LctEntry {
                loop_pc,
                version,
                stamp,
                default_ipc,
            });
            return;
        }
        let victim = self
            .lct
            .iter_mut()
            .min_by_key(|e| e.stamp)
            .expect("nonempty LCT");
        *victim = LctEntry {
            loop_pc,
            version,
            stamp,
            default_ipc,
        };
    }

    /// Called for every committed MT instruction.
    pub fn on_commit(&mut self, active: &mut ActiveSkeleton) {
        self.committed += 1;
        active.tick_usage();
    }

    /// Called when MT commits a backward-taken conditional branch with
    /// target `loop_pc` at `cycle`. Only a branch with two *consecutive*
    /// instances (no interleaving loop branch) is treated as "the current
    /// loop" — this filters outer-loop back-edges in nested loops (paper
    /// §III-E2).
    pub fn on_loop_branch(&mut self, loop_pc: u64, cycle: u64, active: &mut ActiveSkeleton) {
        let consecutive = self.last_backward_target == Some(loop_pc);
        self.last_backward_target = Some(loop_pc);
        if !consecutive {
            return;
        }
        match &self.mode {
            RecycleMode::Off => {}
            RecycleMode::Static(map) => {
                if self.current_loop != Some(loop_pc) {
                    self.current_loop = Some(loop_pc);
                    let version = map.get(&loop_pc).copied().unwrap_or(0);
                    if version != active.active() {
                        active.switch_to(version);
                        self.switches.inc();
                    }
                }
            }
            RecycleMode::Dynamic => self.dynamic_step(loop_pc, cycle, active),
        }
    }

    fn dynamic_step(&mut self, loop_pc: u64, cycle: u64, active: &mut ActiveSkeleton) {
        if self.current_loop != Some(loop_pc) {
            // New loop: abandon any search/monitor in progress.
            self.current_loop = Some(loop_pc);
            self.search = None;
            self.monitor = None;
            if let Some((version, ipc)) = self.lct_lookup(loop_pc) {
                self.lct_hits.inc();
                if version != active.active() {
                    active.switch_to(version);
                    self.switches.inc();
                }
                if active.active() != 0 {
                    self.monitor = Some(LoopMonitor {
                        loop_pc,
                        iters: 0,
                        insts_at_start: self.committed,
                        cycles_at_start: cycle,
                        default_ipc: ipc,
                    });
                }
            } else {
                // Begin a search at version 0.
                if active.active() != 0 {
                    active.switch_to(0);
                    self.switches.inc();
                }
                self.search = Some(LoopSearch {
                    loop_pc,
                    testing: 0,
                    iters_this_version: 0,
                    insts_at_start: self.committed,
                    cycles_at_start: cycle,
                    settled: false,
                    best: 0,
                    best_ipc: 0.0,
                    default_ipc: 0.0,
                });
            }
            return;
        }
        if let Some(s) = self.search {
            self.search_step(s, loop_pc, cycle, active);
            return;
        }
        if let Some(m) = self.monitor {
            self.monitor_step(m, loop_pc, cycle, active);
        }
    }

    fn search_step(
        &mut self,
        mut s: LoopSearch,
        loop_pc: u64,
        cycle: u64,
        active: &mut ActiveSkeleton,
    ) {
        debug_assert_eq!(s.loop_pc, loop_pc);
        if !s.settled {
            // Wait for the look-ahead pipeline to reflect the version
            // under test before starting the measurement window.
            if self.committed - s.insts_at_start >= self.settle_insts {
                s.settled = true;
                s.iters_this_version = 0;
                s.insts_at_start = self.committed;
                s.cycles_at_start = cycle;
            }
            self.search = Some(s);
            return;
        }
        s.iters_this_version += 1;
        let insts = self.committed - s.insts_at_start;
        if s.iters_this_version >= self.iters_per_version && insts >= self.min_insts_per_version {
            let cycles = (cycle - s.cycles_at_start).max(1);
            let ipc = insts as f64 / cycles as f64;
            let confirming = s.testing >= active.versions();
            if s.testing == 0 || confirming {
                // Version 0's measurement; the confirmation rerun (warm)
                // overwrites the cold first window.
                s.default_ipc = ipc;
            }
            if !confirming && ipc > s.best_ipc {
                s.best_ipc = ipc;
                s.best = s.testing;
            }
            if s.testing + 1 < active.versions() {
                // Move to the next version.
                s.testing += 1;
                s.iters_this_version = 0;
                s.insts_at_start = self.committed;
                s.cycles_at_start = cycle;
                s.settled = false;
                active.switch_to(s.testing);
                self.switches.inc();
                self.search = Some(s);
            } else if !confirming && s.best != 0 {
                // Re-measure version 0 warm before crowning a challenger.
                s.testing = active.versions();
                s.iters_this_version = 0;
                s.insts_at_start = self.committed;
                s.cycles_at_start = cycle;
                s.settled = false;
                active.switch_to(0);
                self.switches.inc();
                self.search = Some(s);
            } else {
                // Search complete. Hysteresis: a challenger must beat the
                // (warm) default by 5% to displace it — one noisy window
                // must not lock in a regression.
                let winner = if s.best != 0 && s.best_ipc < 1.05 * s.default_ipc {
                    0
                } else {
                    s.best
                };
                active.switch_to(winner);
                self.switches.inc();
                self.lct_insert(loop_pc, winner, s.default_ipc);
                self.searches.inc();
                self.search = None;
                if winner != 0 {
                    self.monitor = Some(LoopMonitor {
                        loop_pc,
                        iters: 0,
                        insts_at_start: self.committed,
                        cycles_at_start: cycle,
                        default_ipc: s.default_ipc,
                    });
                }
            }
        } else {
            self.search = Some(s);
        }
    }

    fn monitor_step(
        &mut self,
        mut m: LoopMonitor,
        loop_pc: u64,
        cycle: u64,
        active: &mut ActiveSkeleton,
    ) {
        debug_assert_eq!(m.loop_pc, loop_pc);
        m.iters += 1;
        let insts = self.committed - m.insts_at_start;
        if m.iters >= 2 * self.iters_per_version && insts >= 2 * self.min_insts_per_version {
            let cycles = (cycle - m.cycles_at_start).max(1);
            let ipc = insts as f64 / cycles as f64;
            if m.default_ipc > 0.0 && ipc < 0.9 * m.default_ipc && active.active() != 0 {
                // The chosen version runs worse than the default did:
                // revert and pin the default (Fig 7 "update if not
                // equal"). Pinning — rather than endlessly re-searching —
                // bounds the cost of a mistaken choice.
                active.switch_to(0);
                self.switches.inc();
                self.lct_insert(loop_pc, 0, m.default_ipc);
                self.monitor = None;
                return;
            }
            m.iters = 0;
            m.insts_at_start = self.committed;
            m.cycles_at_start = cycle;
        }
        self.monitor = Some(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::Skeleton;
    use r3dla_isa::{Asm, Reg};

    fn tiny_program() -> Program {
        let mut a = Asm::new();
        a.label("top");
        a.addi(Reg::int(10), Reg::int(10), 1);
        a.beq(Reg::int(10), Reg::ZERO, "top");
        a.halt();
        a.finish().unwrap()
    }

    fn three_version_set(prog: &Program) -> SkeletonSet {
        let n = prog.len();
        let mk = |name: &str, every: usize| Skeleton {
            name: name.into(),
            mask: (0..n).map(|i| i % every == 0 || every == 1).collect(),
            sbits: vec![false; n],
            prefetch_only: vec![false; n],
            bias_override: HashMap::new(),
        };
        SkeletonSet {
            versions: vec![mk("all", 1), mk("half", 2), mk("third", 3)],
        }
    }

    #[test]
    fn active_skeleton_filters_by_version() {
        let p = tiny_program();
        let set = three_version_set(&p);
        let mut a = ActiveSkeleton::new(set, &p);
        let pc1 = p.index_to_pc(1);
        assert!(a.keep(pc1)); // version "all"
        a.switch_to(1); // "half": only even indices kept
        assert!(!a.keep(pc1));
        assert!(a.keep(p.index_to_pc(0)));
    }

    #[test]
    fn lct_hit_restores_previous_choice() {
        let p = tiny_program();
        let mut active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut rc = RecycleController::new(RecycleMode::Dynamic);
        rc.iters_per_version = 2;
        rc.min_insts_per_version = 1;
        rc.settle_insts = 0;
        // Loop A: search all 3 versions; make version 1 fastest by
        // feeding cycles (commit density controls measured IPC).
        let mut cycle = 0u64;
        let loop_a = 0x100;
        // Two consecutive instances identify the loop; the second call
        // begins the search. One extra call flips the settle latch.
        rc.on_loop_branch(loop_a, cycle, &mut active);
        rc.on_loop_branch(loop_a, cycle, &mut active);
        for v in 0..3 {
            rc.on_loop_branch(loop_a, cycle, &mut active); // settle tick
            for _ in 0..2 {
                // version 1 gets more commits per cycle
                let commits = if v == 1 { 40 } else { 10 };
                for _ in 0..commits {
                    rc.on_commit(&mut active);
                }
                cycle += 100;
                rc.on_loop_branch(loop_a, cycle, &mut active);
            }
        }
        // Confirmation phase: version 0 is re-measured warm.
        rc.on_loop_branch(loop_a, cycle, &mut active); // settle tick
        for _ in 0..2 {
            for _ in 0..10 {
                rc.on_commit(&mut active);
            }
            cycle += 100;
            rc.on_loop_branch(loop_a, cycle, &mut active);
        }
        assert_eq!(active.active(), 1, "fastest version selected");
        assert_eq!(rc.searches.get(), 1);
        // Visit another loop, then return: LCT hit restores version 1
        // without a new search (loop B starts a search; returning to A
        // hits).
        rc.on_loop_branch(0x900, cycle, &mut active);
        rc.on_loop_branch(0x900, cycle + 5, &mut active);
        rc.on_loop_branch(loop_a, cycle + 10, &mut active);
        rc.on_loop_branch(loop_a, cycle + 15, &mut active);
        assert_eq!(active.active(), 1);
        assert_eq!(rc.lct_hits.get(), 1);
    }

    #[test]
    fn static_mode_uses_precomputed_map() {
        let p = tiny_program();
        let mut active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut map = HashMap::new();
        map.insert(0x500u64, 2usize);
        let mut rc = RecycleController::new(RecycleMode::Static(map));
        rc.on_loop_branch(0x500, 10, &mut active);
        rc.on_loop_branch(0x500, 12, &mut active);
        assert_eq!(active.active(), 2);
        // Unknown loops fall back to the default skeleton.
        rc.on_loop_branch(0x700, 20, &mut active);
        rc.on_loop_branch(0x700, 22, &mut active);
        assert_eq!(active.active(), 0);
    }

    #[test]
    fn off_mode_never_switches() {
        let p = tiny_program();
        let mut active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut rc = RecycleController::new(RecycleMode::Off);
        for i in 0..100 {
            rc.on_loop_branch(0x100 + i * 8, i, &mut active);
        }
        assert_eq!(active.active(), 0);
        assert_eq!(rc.switches.get(), 0);
    }

    #[test]
    fn reboot_storm_demotes_to_default_and_pins_lct() {
        let p = tiny_program();
        let mut active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut rc = RecycleController::new(RecycleMode::Dynamic);
        // Enter a loop and force a non-default version as if a search had
        // chosen it.
        rc.on_loop_branch(0x100, 0, &mut active);
        rc.on_loop_branch(0x100, 1, &mut active);
        active.switch_to(2);
        // Two reboots: below the storm threshold, nothing happens.
        rc.on_reboot(&mut active);
        rc.on_reboot(&mut active);
        assert_eq!(active.active(), 2);
        assert_eq!(rc.storm_demotions.get(), 0);
        // Third consecutive reboot trips the guard.
        rc.on_reboot(&mut active);
        assert_eq!(active.active(), 0, "storm guard must demote to default");
        assert_eq!(rc.storm_demotions.get(), 1);
        // The LCT is pinned to version 0: revisiting the loop after going
        // elsewhere is a hit that keeps the default.
        rc.on_loop_branch(0x900, 10, &mut active);
        rc.on_loop_branch(0x900, 11, &mut active);
        rc.on_loop_branch(0x100, 20, &mut active);
        rc.on_loop_branch(0x100, 21, &mut active);
        assert_eq!(rc.lct_hits.get(), 1);
        assert_eq!(active.active(), 0);
    }

    #[test]
    fn reboots_on_default_version_reset_the_storm_counter() {
        let p = tiny_program();
        let mut active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut rc = RecycleController::new(RecycleMode::Dynamic);
        active.switch_to(1);
        rc.on_reboot(&mut active);
        rc.on_reboot(&mut active);
        // A reboot while the default is active clears the streak.
        active.switch_to(0);
        rc.on_reboot(&mut active);
        active.switch_to(1);
        rc.on_reboot(&mut active);
        rc.on_reboot(&mut active);
        assert_eq!(
            rc.storm_demotions.get(),
            0,
            "streak must restart after reset"
        );
        rc.on_reboot(&mut active);
        assert_eq!(rc.storm_demotions.get(), 1);
        assert_eq!(active.active(), 0);
    }

    #[test]
    fn monitor_reverts_when_chosen_version_underperforms() {
        let p = tiny_program();
        let mut active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut rc = RecycleController::new(RecycleMode::Dynamic);
        rc.iters_per_version = 2;
        rc.min_insts_per_version = 1;
        rc.settle_insts = 0;
        let mut cycle = 0u64;
        let lp = 0x200;
        // Search: make version 1 look fastest, as in
        // `lct_hit_restores_previous_choice`.
        rc.on_loop_branch(lp, cycle, &mut active);
        rc.on_loop_branch(lp, cycle, &mut active);
        for v in 0..3 {
            rc.on_loop_branch(lp, cycle, &mut active);
            for _ in 0..2 {
                let commits = if v == 1 { 40 } else { 10 };
                for _ in 0..commits {
                    rc.on_commit(&mut active);
                }
                cycle += 100;
                rc.on_loop_branch(lp, cycle, &mut active);
            }
        }
        rc.on_loop_branch(lp, cycle, &mut active);
        for _ in 0..2 {
            for _ in 0..10 {
                rc.on_commit(&mut active);
            }
            cycle += 100;
            rc.on_loop_branch(lp, cycle, &mut active);
        }
        assert_eq!(active.active(), 1, "search must crown version 1");
        let switches_after_search = rc.switches.get();
        // Monitor phase: version 1 now runs far below the default IPC the
        // search recorded — the controller must revert and pin version 0.
        for _ in 0..(2 * rc.iters_per_version + 1) {
            rc.on_commit(&mut active); // 1 commit per 100 cycles: slow
            cycle += 100;
            rc.on_loop_branch(lp, cycle, &mut active);
        }
        assert_eq!(active.active(), 0, "monitor must revert a regression");
        assert!(rc.switches.get() > switches_after_search);
        // Re-entry hits the pinned LCT entry and stays on the default.
        rc.on_loop_branch(0x900, cycle, &mut active);
        rc.on_loop_branch(0x900, cycle + 1, &mut active);
        rc.on_loop_branch(lp, cycle + 2, &mut active);
        rc.on_loop_branch(lp, cycle + 3, &mut active);
        assert_eq!(active.active(), 0);
    }

    #[test]
    fn lct_evicts_least_recently_stamped_entry() {
        let p = tiny_program();
        let _active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut rc = RecycleController::new(RecycleMode::Dynamic);
        // Fill the 16-entry LCT directly through the insert path.
        for i in 0..16u64 {
            rc.committed = i; // distinct stamps
            rc.lct_insert(0x1000 + i * 8, 1, 1.0);
        }
        // Touch the oldest so the second-oldest becomes the victim.
        rc.committed = 100;
        assert!(rc.lct_lookup(0x1000).is_some());
        rc.committed = 101;
        rc.lct_insert(0x9000, 2, 1.0);
        assert!(
            rc.lct_lookup(0x1000).is_some(),
            "recently used entry survives"
        );
        assert!(rc.lct_lookup(0x1008).is_none(), "LRU entry evicted");
        assert_eq!(rc.lct_lookup(0x9000).map(|(v, _)| v), Some(2));
    }

    #[test]
    fn usage_histogram_tracks_active_version() {
        let p = tiny_program();
        let mut active = ActiveSkeleton::new(three_version_set(&p), &p);
        let mut rc = RecycleController::new(RecycleMode::Off);
        for _ in 0..5 {
            rc.on_commit(&mut active);
        }
        active.switch_to(2);
        for _ in 0..3 {
            rc.on_commit(&mut active);
        }
        assert_eq!(active.usage, vec![5, 0, 3]);
    }
}
