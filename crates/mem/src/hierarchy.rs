//! Composition of the paper's three-level hierarchy: private L1I/L1D/L2
//! per core, a shared L3, and DRAM, with prefetcher attachment points at
//! L1D and L2.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, Probe};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::tlb::{Tlb, TlbConfig};

/// A hardware prefetch engine attached to one cache level.
///
/// Implementations live in `r3dla-prefetch`; the trait lives here so the
/// hierarchy can drive engines without a dependency cycle.
pub trait PrefetchEngine {
    /// Engine name for reports.
    fn name(&self) -> &str;
    /// Observes a demand access (line-aligned address) and appends any
    /// prefetch target addresses to `out`.
    fn on_access(&mut self, pc: u64, line_addr: u64, miss: bool, now: u64, out: &mut Vec<u64>);
}

/// Full memory-system configuration for one core plus the shared levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Private instruction L1.
    pub l1i: CacheConfig,
    /// Private data L1.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// Main memory.
    pub dram: DramConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
}

impl MemConfig {
    /// The paper's Table I configuration.
    pub fn paper() -> Self {
        Self {
            l1i: CacheConfig::l1(),
            l1d: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::l3(),
            dram: DramConfig::paper(),
            dtlb: TlbConfig::paper(),
        }
    }

    /// The paper configuration with look-ahead containment: private caches
    /// discard dirty lines instead of writing them back.
    pub fn paper_lookahead() -> Self {
        let mut cfg = Self::paper();
        cfg.l1d.discard_dirty = true;
        cfg.l2.discard_dirty = true;
        cfg
    }
}

/// The shared part of the hierarchy: L3 plus DRAM.
#[derive(Debug)]
pub struct SharedLlc {
    l3: Cache,
    dram: Dram,
}

impl SharedLlc {
    /// Builds the shared levels from a configuration.
    pub fn new(cfg: &MemConfig) -> Self {
        Self {
            l3: Cache::new(cfg.l3.clone()),
            dram: Dram::new(cfg.dram.clone()),
        }
    }

    /// Services an L2 miss; returns the data-ready cycle.
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: u64, prefetch: bool) -> u64 {
        match self.l3.probe(addr, kind, now) {
            Probe::Hit(t, _) => t,
            Probe::Merge(t, _) => t,
            Probe::Miss => {
                let admit = self.l3.mshr_admit_cycle(now);
                let ready = self.dram.access(crate::line_of(addr), admit, false);
                let wb = self.l3.fill(addr, kind, ready, prefetch);
                if let Some(dirty) = wb {
                    self.dram.access(dirty, ready, true);
                }
                ready
            }
        }
    }

    /// Accepts a dirty line written back from a private L2.
    pub fn writeback(&mut self, addr: u64, now: u64) {
        if self.l3.contains(addr) {
            // Mark dirty by re-filling as a write (refreshes LRU).
            self.l3.fill(addr, AccessKind::Write, now, false);
        } else if let Some(dirty) = self.l3.fill(addr, AccessKind::Write, now, false) {
            self.dram.access(dirty, now, true);
        }
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> &CacheStats {
        &self.l3.stats
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &DramStats {
        &self.dram.stats
    }

    /// The L3 tag array.
    pub fn l3(&self) -> &Cache {
        &self.l3
    }

    /// Direct access to the L3 tag array (used by warm-up utilities).
    pub fn l3_mut(&mut self) -> &mut Cache {
        &mut self.l3
    }

    /// Functional warm touch: installs the line in the L3 tag array with
    /// an LRU refresh but no timing, MSHR or statistics effects. Driven
    /// by the sampled-simulation warmup replay.
    pub fn warm(&mut self, addr: u64) {
        self.l3.touch(addr);
    }

    /// Earliest cycle strictly after `now` at which an outstanding L3
    /// fill completes or a DRAM bank/channel frees, or `None` when the
    /// shared levels are fully idle. Observability for the event-driven
    /// scheduler (see [`CoreMem::next_event_at`]).
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        [self.l3.next_mshr_ready(now), self.dram.next_idle_at(now)]
            .into_iter()
            .flatten()
            .min()
    }
}

/// The timing outcome of one data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Cycle at which the data is available.
    pub ready: u64,
    /// Whether the access hit in L1D.
    pub l1_hit: bool,
    /// Whether the access hit in (or merged at) L2.
    pub l2_hit: bool,
    /// Whether the access hit in L3 (false when it went to DRAM).
    pub l3_hit: bool,
    /// Extra cycles charged by a TLB walk.
    pub tlb_penalty: u64,
}

/// One core's private memory system plus a handle to the shared levels.
pub struct CoreMem {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    shared: Rc<RefCell<SharedLlc>>,
    l1_prefetcher: Option<Box<dyn PrefetchEngine>>,
    l2_prefetcher: Option<Box<dyn PrefetchEngine>>,
    pf_buf: Vec<u64>,
}

impl std::fmt::Debug for CoreMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreMem")
            .field("l1i", &self.l1i.stats.accesses)
            .field("l1d", &self.l1d.stats.accesses)
            .field("l2", &self.l2.stats.accesses)
            .field(
                "l1_prefetcher",
                &self.l1_prefetcher.as_ref().map(|p| p.name().to_string()),
            )
            .field(
                "l2_prefetcher",
                &self.l2_prefetcher.as_ref().map(|p| p.name().to_string()),
            )
            .finish_non_exhaustive()
    }
}

impl CoreMem {
    /// Builds one core's private hierarchy attached to `shared`.
    pub fn new(cfg: &MemConfig, shared: Rc<RefCell<SharedLlc>>) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            dtlb: Tlb::new(cfg.dtlb.clone()),
            shared,
            l1_prefetcher: None,
            l2_prefetcher: None,
            pf_buf: Vec::new(),
        }
    }

    /// Attaches a prefetcher trained on the L1D access stream, filling L1D.
    pub fn set_l1_prefetcher(&mut self, engine: Box<dyn PrefetchEngine>) {
        self.l1_prefetcher = Some(engine);
    }

    /// Attaches a prefetcher trained on the L2 access stream, filling L2
    /// (the paper's BOP placement).
    pub fn set_l2_prefetcher(&mut self, engine: Box<dyn PrefetchEngine>) {
        self.l2_prefetcher = Some(engine);
    }

    fn l2_and_below(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        train: bool,
    ) -> (u64, bool, bool) {
        // Returns (ready, l2_hit, l3_hit). `train` is true only for demand
        // data accesses: prefetch fills and instruction fetches must not
        // train the demand prefetcher (feeding a prefetcher its own output
        // corrupts Best-Offset's scoring).
        let (ready, l2_hit, l3_hit, trigger) = match self.l2.probe(addr, kind, now) {
            // First touches of prefetched lines are prefetcher trigger
            // events, exactly like misses (Best-Offset's trigger rule).
            Probe::Hit(t, pf_touch) => (t, true, true, pf_touch),
            Probe::Merge(t, pf) => (t, true, true, pf),
            Probe::Miss => {
                let admit = self.l2.mshr_admit_cycle(now);
                let mut shared = self.shared.borrow_mut();
                let l3_hit = shared.l3.contains(addr);
                let ready = shared.access(addr, AccessKind::Read, admit, false);
                drop(shared);
                if let Some(dirty) = self.l2.fill(addr, kind, ready, false) {
                    self.shared.borrow_mut().writeback(dirty, ready);
                }
                (ready, false, l3_hit, true)
            }
        };
        // Train the L2 prefetcher on the demand L2 access stream.
        if let Some(pf) = self.l2_prefetcher.as_mut().filter(|_| train) {
            let mut buf = std::mem::take(&mut self.pf_buf);
            buf.clear();
            pf.on_access(0, crate::line_of(addr), trigger, now, &mut buf);
            for &line in &buf {
                self.prefetch_into_l2(line, now);
            }
            self.pf_buf = buf;
        }
        (ready, l2_hit, l3_hit)
    }

    fn data_access(&mut self, addr: u64, pc: u64, now: u64, kind: AccessKind) -> LoadOutcome {
        let tlb_penalty = self.dtlb.access(addr);
        let start = now + tlb_penalty;
        let (ready, l1_hit, l2_hit, l3_hit) = match self.l1d.probe(addr, kind, start) {
            Probe::Hit(t, _) => (t, true, true, true),
            Probe::Merge(t, _) => (t, false, true, true),
            Probe::Miss => {
                let admit = self.l1d.mshr_admit_cycle(start);
                let (ready, l2_hit, l3_hit) =
                    self.l2_and_below(addr, AccessKind::Read, admit, true);
                if let Some(dirty) = self.l1d.fill(addr, kind, ready, false) {
                    self.writeback_to_l2(dirty, ready);
                }
                (ready, false, l2_hit, l3_hit)
            }
        };
        if let Some(pf) = self.l1_prefetcher.as_mut() {
            let mut buf = std::mem::take(&mut self.pf_buf);
            buf.clear();
            pf.on_access(pc, crate::line_of(addr), !l1_hit, now, &mut buf);
            for &line in &buf {
                self.prefetch_into_l1(line, now);
            }
            self.pf_buf = buf;
        }
        LoadOutcome {
            ready,
            l1_hit,
            l2_hit,
            l3_hit,
            tlb_penalty,
        }
    }

    /// Performs a timed load.
    pub fn load(&mut self, addr: u64, pc: u64, now: u64) -> LoadOutcome {
        self.data_access(addr, pc, now, AccessKind::Read)
    }

    /// Performs a timed store (write-allocate, write-back).
    pub fn store(&mut self, addr: u64, pc: u64, now: u64) -> LoadOutcome {
        self.data_access(addr, pc, now, AccessKind::Write)
    }

    fn writeback_to_l2(&mut self, addr: u64, now: u64) {
        if self.l2.contains(addr) {
            if let Some(d) = self.l2.fill(addr, AccessKind::Write, now, false) {
                self.shared.borrow_mut().writeback(d, now);
            }
        } else if let Some(d) = self.l2.fill(addr, AccessKind::Write, now, false) {
            self.shared.borrow_mut().writeback(d, now);
        }
    }

    /// Fetches an instruction line; returns `(ready_cycle, l1i_hit)`.
    pub fn inst_fetch(&mut self, pc: u64, now: u64) -> (u64, bool) {
        match self.l1i.probe(pc, AccessKind::Read, now) {
            Probe::Hit(t, _) => (t, true),
            Probe::Merge(t, _) => (t, false),
            Probe::Miss => {
                let admit = self.l1i.mshr_admit_cycle(now);
                let (ready, _, _) = self.l2_and_below(pc, AccessKind::Read, admit, false);
                self.l1i.fill(pc, AccessKind::Read, ready, false);
                (ready, false)
            }
        }
    }

    /// Inserts a prefetch into L1D (the DLA L1-hint path and L1 stride
    /// prefetchers). Data is pulled through L2/L3 as needed.
    ///
    /// The walk *does* train the L2 demand prefetcher: DLA's L1 hints are
    /// the look-ahead thread's committed miss addresses — future demand,
    /// delivered early — so they are legitimate training input (unlike a
    /// prefetcher's own speculative output).
    pub fn prefetch_into_l1(&mut self, addr: u64, now: u64) {
        if self.l1d.contains(addr) {
            return;
        }
        let (ready, _, _) = self.l2_and_below(addr, AccessKind::Read, now, true);
        if let Some(dirty) = self.l1d.fill(addr, AccessKind::Read, ready, true) {
            self.writeback_to_l2(dirty, ready);
        }
    }

    /// Inserts a prefetch into L2 (the BOP placement).
    pub fn prefetch_into_l2(&mut self, addr: u64, now: u64) {
        if self.l2.contains(addr) {
            return;
        }
        let ready = {
            let mut shared = self.shared.borrow_mut();
            shared.access(addr, AccessKind::Read, now, true)
        };
        if let Some(dirty) = self.l2.fill(addr, AccessKind::Read, ready, true) {
            self.shared.borrow_mut().writeback(dirty, ready);
        }
    }

    /// Prefills a TLB translation (footnote-queue TLB hint).
    pub fn tlb_fill(&mut self, addr: u64) {
        self.dtlb.fill(addr);
    }

    /// Functional warm touch of the data path: installs the line in
    /// L1D/L2/shared L3 tag arrays and prefills the TLB, with LRU
    /// refreshes but no timing, MSHR or statistics effects — the
    /// microarchitectural warmup primitive for sampled simulation, driven
    /// by the functional emulator's load/store stream.
    pub fn warm_data(&mut self, addr: u64) {
        self.dtlb.fill(addr);
        self.l1d.touch(addr);
        self.l2.touch(addr);
        self.shared.borrow_mut().warm(addr);
    }

    /// Functional warm touch of the instruction path: L1I/L2/shared L3,
    /// same no-stats contract as [`warm_data`](Self::warm_data).
    pub fn warm_inst(&mut self, pc: u64) {
        self.l1i.touch(pc);
        self.l2.touch(pc);
        self.shared.borrow_mut().warm(pc);
    }

    /// L1I statistics.
    pub fn l1i_stats(&self) -> &CacheStats {
        &self.l1i.stats
    }

    /// L1D statistics.
    pub fn l1d_stats(&self) -> &CacheStats {
        &self.l1d.stats
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2.stats
    }

    /// TLB miss count.
    pub fn dtlb_misses(&self) -> u64 {
        self.dtlb.misses.get()
    }

    /// Earliest cycle strictly after `now` at which any outstanding fill
    /// anywhere in this core's hierarchy (L1I/L1D/L2 MSHRs, shared L3,
    /// DRAM occupancy) completes, or `None` when everything is idle.
    ///
    /// The timing model is pull-based — every probe/fill returns its
    /// data-ready cycle up front and consumers carry that stamp in their
    /// own wakeups — so the core's event-driven fast path never needs to
    /// poll this; it exists so tools and tests can bound when the memory
    /// system can next change state.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        [
            self.l1i.next_mshr_ready(now),
            self.l1d.next_mshr_ready(now),
            self.l2.next_mshr_ready(now),
            self.shared.borrow().next_event_at(now),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Handle to the shared levels.
    pub fn shared(&self) -> Rc<RefCell<SharedLlc>> {
        Rc::clone(&self.shared)
    }

    /// The private levels' replacement state: the resident lines of every
    /// L1I, L1D and L2 set, then the DTLB's pages, each least recently
    /// used first (see [`Cache::victim_order`]).
    pub fn victim_order(&self) -> Vec<Vec<u64>> {
        let mut rows = self.l1i.victim_order();
        rows.extend(self.l1d.victim_order());
        rows.extend(self.l2.victim_order());
        rows.push(self.dtlb.victim_order());
        rows
    }

    /// Flushes the private caches and TLB (context reinitialization).
    pub fn flush_private(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.dtlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> (CoreMem, Rc<RefCell<SharedLlc>>) {
        let cfg = MemConfig::paper();
        let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg)));
        (CoreMem::new(&cfg, Rc::clone(&shared)), shared)
    }

    #[test]
    fn cold_miss_walks_to_dram() {
        let (mut m, shared) = system();
        let out = m.load(0x2000_0000, 0x10, 0);
        assert!(!out.l1_hit && !out.l2_hit && !out.l3_hit);
        // TLB walk (30) + L1+L2 probes + L3 + DRAM activation.
        assert!(out.ready > 100, "ready={}", out.ready);
        assert_eq!(shared.borrow().dram_stats().reads.get(), 1);
    }

    #[test]
    fn locality_is_rewarded_at_each_level() {
        let (mut m, _s) = system();
        let a = 0x2000_0000;
        let t0 = m.load(a, 0, 0).ready;
        let h = m.load(a, 0, t0);
        assert!(h.l1_hit);
        assert!(h.ready - t0 < 10);
    }

    #[test]
    fn l3_warming_benefits_second_core() {
        let cfg = MemConfig::paper();
        let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg)));
        let mut lt = CoreMem::new(&MemConfig::paper_lookahead(), Rc::clone(&shared));
        let mut mt = CoreMem::new(&cfg, Rc::clone(&shared));
        let a = 0x3000_0000;
        let warm = lt.load(a, 0, 0); // LT pulls the line into shared L3
        assert!(!warm.l3_hit);
        let out = mt.load(a, 0, warm.ready);
        assert!(out.l3_hit, "MT should find the line in the shared L3");
        assert!(!out.l1_hit);
    }

    #[test]
    fn lookahead_core_discards_dirty_lines() {
        let cfg = MemConfig::paper_lookahead();
        let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
        let mut lt = CoreMem::new(&cfg, Rc::clone(&shared));
        // Write a line, then thrash its set so it gets evicted.
        let base = 0x4000_0000u64;
        lt.store(base, 0, 0);
        // L1 is 32 KiB 4-way: lines spaced 8 KiB apart share a set.
        for i in 1..=8u64 {
            lt.load(base + i * 8192, 0, 1000 * i);
        }
        let dram_writes = shared.borrow().dram_stats().writes.get();
        assert_eq!(
            dram_writes, 0,
            "look-ahead dirty data must never reach DRAM"
        );
    }

    #[test]
    fn normal_core_dirty_eviction_eventually_writes_back() {
        let (mut m, shared) = system();
        let base = 0x4000_0000u64;
        m.store(base, 0, 0);
        // Evict through L1 (8 KiB apart) and L2 (32 KiB apart) and L3
        // (128 KiB apart): hammer enough conflicting lines.
        let mut now = 100;
        for i in 1..=600u64 {
            now = m.load(base + i * 128 * 1024, 0, now).ready;
        }
        assert!(
            shared.borrow().dram_stats().writes.get() > 0,
            "dirty line should have been written back to DRAM"
        );
    }

    #[test]
    fn l1_prefetch_hint_hits_later() {
        let (mut m, _s) = system();
        let a = 0x5000_0000;
        m.prefetch_into_l1(a, 0);
        let out = m.load(a, 0, 10_000);
        assert!(out.l1_hit);
        assert_eq!(m.l1d_stats().prefetch_useful.get(), 1);
    }

    #[test]
    fn tlb_hint_removes_walk() {
        let (mut m, _s) = system();
        m.tlb_fill(0x6000_0000);
        let out = m.load(0x6000_0000, 0, 0);
        assert_eq!(out.tlb_penalty, 0);
    }

    #[test]
    fn inst_fetch_uses_l1i() {
        let (mut m, _s) = system();
        let (t0, hit0) = m.inst_fetch(0x1_0000, 0);
        assert!(!hit0);
        let (t1, hit1) = m.inst_fetch(0x1_0000, t0);
        assert!(hit1);
        assert!(t1 - t0 <= 3);
    }

    struct NextLine;
    impl PrefetchEngine for NextLine {
        fn name(&self) -> &str {
            "next-line"
        }
        fn on_access(&mut self, _pc: u64, line: u64, miss: bool, _now: u64, out: &mut Vec<u64>) {
            if miss {
                out.push(line + 64);
            }
        }
    }

    #[test]
    fn attached_prefetcher_fills_ahead() {
        let (mut m, _s) = system();
        m.set_l2_prefetcher(Box::new(NextLine));
        let a = 0x7000_0000;
        let t = m.load(a, 0, 0).ready; // miss → prefetch a+64 into L2
        let out = m.load(a + 64, 0, t + 500);
        assert!(out.l2_hit, "next line should be resident in L2");
    }

    #[test]
    fn next_event_tracks_outstanding_fills() {
        let (mut m, _s) = system();
        assert_eq!(m.next_event_at(0), None, "cold hierarchy is idle");
        let out = m.load(0x2000_0000, 0x10, 0);
        let wake = m
            .next_event_at(0)
            .expect("a DRAM-bound miss leaves outstanding work");
        assert!(
            wake <= out.ready,
            "first memory event at {wake} cannot be after the load's data ready {}",
            out.ready
        );
        // Long after the fill lands the hierarchy is idle again.
        assert_eq!(m.next_event_at(out.ready + 10_000), None);
    }

    #[test]
    fn warm_touches_install_lines_without_stats() {
        let (mut m, shared) = system();
        let a = 0x2000_0000;
        m.warm_data(a);
        m.warm_inst(0x1_0000);
        assert_eq!(m.l1d_stats().accesses.get(), 0, "warming must be free");
        assert_eq!(m.l1i_stats().accesses.get(), 0);
        assert_eq!(shared.borrow().l3_stats().accesses.get(), 0);
        assert_eq!(shared.borrow().dram_stats().reads.get(), 0);
        // A later demand access hits everywhere and skips the TLB walk.
        let out = m.load(a, 0, 0);
        assert!(out.l1_hit);
        assert_eq!(out.tlb_penalty, 0);
        let (_, ihit) = m.inst_fetch(0x1_0000, 0);
        assert!(ihit);
    }

    #[test]
    fn flush_private_clears_state() {
        let (mut m, _s) = system();
        let a = 0x2000_0000;
        let t = m.load(a, 0, 0).ready;
        m.flush_private();
        let out = m.load(a, 0, t + 10);
        assert!(!out.l1_hit);
    }
}
