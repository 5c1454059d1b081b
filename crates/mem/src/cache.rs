//! A set-associative, write-back/write-allocate cache model with MSHRs,
//! LRU replacement, prefetch-fill tracking and an optional "discard dirty"
//! mode used by look-ahead cores.

use r3dla_stats::Counter;

use crate::LINE_BYTES;

/// Configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub latency: u64,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
    /// When true, dirty evictions are dropped instead of written back
    /// (look-ahead containment, paper §III-A).
    pub discard_dirty: bool,
}

impl CacheConfig {
    /// The paper's 32 KiB 4-way L1 (1 ns ≈ 3 cycles at 3 GHz).
    pub fn l1() -> Self {
        Self {
            size_bytes: 32 * 1024,
            ways: 4,
            latency: 3,
            mshrs: 32,
            discard_dirty: false,
        }
    }

    /// The paper's 256 KiB 8-way L2 (3 ns ≈ 9 cycles).
    pub fn l2() -> Self {
        Self {
            size_bytes: 256 * 1024,
            ways: 8,
            latency: 9,
            mshrs: 32,
            discard_dirty: false,
        }
    }

    /// The paper's 2 MiB 16-way L3 (12 ns ≈ 36 cycles).
    pub fn l3() -> Self {
        Self {
            size_bytes: 2 * 1024 * 1024,
            ways: 16,
            latency: 36,
            mshrs: 64,
            discard_dirty: false,
        }
    }

    fn num_sets(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize / self.ways
    }
}

/// Demand access kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read (load or instruction fetch).
    Read,
    /// A write (store); write-allocate.
    Write,
}

/// Aggregate statistics for one cache.
#[derive(Debug, Default, Clone)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: Counter,
    /// Demand misses (excluding MSHR merges into outstanding fills).
    pub misses: Counter,
    /// Demand accesses that merged into an in-flight fill (late hits).
    pub mshr_merges: Counter,
    /// Lines written back to the level below.
    pub writebacks: Counter,
    /// Dirty lines dropped because of discard-dirty mode.
    pub discarded_dirty: Counter,
    /// Prefetch fills inserted.
    pub prefetch_fills: Counter,
    /// Demand hits on never-touched prefetched lines (useful prefetches).
    pub prefetch_useful: Counter,
    /// Demand accesses that merged with an in-flight prefetch (late
    /// prefetches: they helped, but not fully).
    pub prefetch_late: Counter,
    /// Prefetched lines evicted before any demand touch (wasted).
    pub prefetch_evicted_unused: Counter,
}

impl CacheStats {
    /// Demand miss ratio in [0, 1]; 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses.get();
        if a == 0 {
            0.0
        } else {
            self.misses.get() as f64 / a as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
    prefetched: bool,
    touched: bool,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    stamp: 0,
    prefetched: false,
    touched: false,
};

#[derive(Debug, Clone, Copy)]
struct Mshr {
    line_addr: u64,
    ready: u64,
    prefetch: bool,
}

/// The result of probing one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Hit; data available at the contained cycle. The bool is true when
    /// this was the first demand touch of a prefetched line — a trigger
    /// event for Best-Offset-style prefetchers.
    Hit(u64, bool),
    /// Merged into an outstanding fill finishing at the contained cycle.
    /// The bool reports whether the outstanding fill was a prefetch.
    Merge(u64, bool),
    /// True miss: the caller must fetch from below and then `fill`.
    Miss,
}

/// A set-associative cache tag array with MSHRs.
///
/// # Examples
///
/// ```
/// use r3dla_mem::{Cache, CacheConfig, AccessKind};
/// let mut c = Cache::new(CacheConfig::l1());
/// assert!(!c.touch(0x1000));       // cold miss
/// assert!(c.touch(0x1000));        // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way of every set, set-major: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    /// `sets - 1`, for set indexing.
    set_mask: usize,
    mshrs: Vec<Mshr>,
    stamp: u64,
    /// Statistics; public for read access in the C-struct spirit.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        assert!(sets > 0 && sets.is_power_of_two(), "bad cache geometry");
        Self {
            lines: vec![INVALID_LINE; sets * cfg.ways],
            set_mask: sets - 1,
            mshrs: Vec::with_capacity(cfg.mshrs),
            stamp: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Where in `lines` the set holding `line_addr` lies.
    #[inline]
    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let start = (((line_addr / LINE_BYTES) as usize) & self.set_mask) * self.cfg.ways;
        start..start + self.cfg.ways
    }

    fn prune_mshrs(&mut self, now: u64) {
        self.mshrs.retain(|m| m.ready > now);
    }

    /// Simple presence/LRU update without timing — used by the offline
    /// profiler's tag-array simulation. Returns whether the line hit, and
    /// fills it on miss.
    pub fn touch(&mut self, addr: u64) -> bool {
        let line_addr = crate::line_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.set_range(line_addr);
        let set = &mut self.lines[ways];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            l.stamp = stamp;
            return true;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("nonzero ways");
        *victim = Line {
            tag: line_addr,
            valid: true,
            dirty: false,
            stamp,
            prefetched: false,
            touched: true,
        };
        false
    }

    /// Checks whether the line containing `addr` is resident (no state
    /// change).
    pub fn contains(&self, addr: u64) -> bool {
        let line_addr = crate::line_of(addr);
        self.lines[self.set_range(line_addr)]
            .iter()
            .any(|l| l.valid && l.tag == line_addr)
    }

    /// Probes for a demand access, updating statistics and LRU.
    ///
    /// Outstanding fills (MSHRs) are checked before the tag array: a line
    /// whose fill is still in flight is a *merge*, not a hit, even though
    /// its tag is already installed.
    pub(crate) fn probe(&mut self, addr: u64, kind: AccessKind, now: u64) -> Probe {
        let line_addr = crate::line_of(addr);
        let ways = self.set_range(line_addr);
        self.stamp += 1;
        let stamp = self.stamp;
        self.stats.accesses.inc();
        self.prune_mshrs(now);
        if let Some(m) = self.mshrs.iter().find(|m| m.line_addr == line_addr) {
            self.stats.mshr_merges.inc();
            let was_prefetch = m.prefetch;
            if was_prefetch {
                self.stats.prefetch_late.inc();
            }
            let ready = m.ready.max(now + self.cfg.latency);
            if let Some(l) = self.lines[ways]
                .iter_mut()
                .find(|l| l.valid && l.tag == line_addr)
            {
                l.stamp = stamp;
                if kind == AccessKind::Write {
                    l.dirty = true;
                }
                l.touched = true;
            }
            return Probe::Merge(ready, was_prefetch);
        }
        let set = &mut self.lines[ways];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            l.stamp = stamp;
            if kind == AccessKind::Write {
                l.dirty = true;
            }
            let first_prefetch_touch = l.prefetched && !l.touched;
            if first_prefetch_touch {
                self.stats.prefetch_useful.inc();
            }
            l.touched = true;
            return Probe::Hit(now + self.cfg.latency, first_prefetch_touch);
        }
        self.stats.misses.inc();
        Probe::Miss
    }

    /// Earliest cycle strictly after `now` at which an outstanding fill
    /// completes, or `None` when no fill is in flight.
    ///
    /// Fill timing in this model is *pull-based*: `fill` installs the
    /// line immediately with its data-ready stamp, and consumers carry
    /// that stamp in their own wakeups (a load's `exec_done`), so
    /// nothing needs to poll this. It exists for the event-driven
    /// scheduler's observability: the next MSHR completion bounds when
    /// cache occupancy can next change.
    pub fn next_mshr_ready(&self, now: u64) -> Option<u64> {
        self.mshrs
            .iter()
            .map(|m| m.ready)
            .filter(|&r| r > now)
            .min()
    }

    /// Earliest cycle at which a new miss can be accepted, given MSHR
    /// occupancy (structural hazard on MSHRs).
    pub(crate) fn mshr_admit_cycle(&mut self, now: u64) -> u64 {
        self.prune_mshrs(now);
        if self.mshrs.len() < self.cfg.mshrs {
            now
        } else {
            self.mshrs.iter().map(|m| m.ready).min().unwrap_or(now)
        }
    }

    /// Installs the line after a fill from below. `ready` is when data
    /// arrives; `prefetch` marks prefetch fills. Returns the address of a
    /// dirty line that must be written back, if any.
    pub(crate) fn fill(
        &mut self,
        addr: u64,
        kind: AccessKind,
        ready: u64,
        prefetch: bool,
    ) -> Option<u64> {
        let line_addr = crate::line_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        if self.mshrs.len() < self.cfg.mshrs {
            self.mshrs.push(Mshr {
                line_addr,
                ready,
                prefetch,
            });
        }
        let ways = self.set_range(line_addr);
        let set = &mut self.lines[ways];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            // Already present (prefetch raced with a demand fill, or a
            // writeback landing on a resident copy): refresh LRU and keep
            // the strongest dirtiness.
            l.stamp = stamp;
            if kind == AccessKind::Write {
                l.dirty = true;
            }
            return None;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("nonzero ways");
        let mut wb = None;
        if victim.valid {
            if victim.prefetched && !victim.touched {
                self.stats.prefetch_evicted_unused.inc();
            }
            if victim.dirty {
                if self.cfg.discard_dirty {
                    self.stats.discarded_dirty.inc();
                } else {
                    self.stats.writebacks.inc();
                    wb = Some(victim.tag);
                }
            }
        }
        *victim = Line {
            tag: line_addr,
            valid: true,
            dirty: kind == AccessKind::Write,
            stamp,
            prefetched: prefetch,
            touched: !prefetch,
        };
        if prefetch {
            self.stats.prefetch_fills.inc();
        }
        wb
    }

    /// The resident lines of every set, least recently used first: the
    /// order in which LRU would evict them.
    pub fn victim_order(&self) -> Vec<Vec<u64>> {
        self.lines
            .chunks(self.cfg.ways)
            .map(|set| {
                let mut valid: Vec<&Line> = set.iter().filter(|l| l.valid).collect();
                valid.sort_by_key(|l| l.stamp);
                valid.iter().map(|l| l.tag).collect()
            })
            .collect()
    }

    /// Invalidates everything (used on context reinitialization).
    pub fn flush(&mut self) {
        self.lines.fill(INVALID_LINE);
        self.mshrs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            ways: 2,
            latency: 2,
            mshrs: 4,
            discard_dirty: false,
        }
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut c = Cache::new(tiny_cfg());
        assert_eq!(c.probe(0x40, AccessKind::Read, 0), Probe::Miss);
        c.fill(0x40, AccessKind::Read, 10, false);
        match c.probe(0x40, AccessKind::Read, 20) {
            Probe::Hit(t, _) => assert_eq!(t, 22),
            p => panic!("expected hit, got {p:?}"),
        }
        assert_eq!(c.stats.accesses.get(), 2);
        assert_eq!(c.stats.misses.get(), 1);
    }

    #[test]
    fn mshr_merge_reports_outstanding_ready() {
        let mut c = Cache::new(tiny_cfg());
        assert_eq!(c.probe(0x40, AccessKind::Read, 0), Probe::Miss);
        c.fill(0x40, AccessKind::Read, 100, false);
        // Same line again while fill outstanding → merge at cycle 100.
        match c.probe(0x44, AccessKind::Read, 5) {
            Probe::Merge(t, pf) => {
                assert_eq!(t, 100);
                assert!(!pf);
            }
            p => panic!("expected merge, got {p:?}"),
        }
        assert_eq!(c.stats.mshr_merges.get(), 1);
        assert_eq!(c.stats.misses.get(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1024 B, 2-way, 64 B lines → 8 sets. Lines 0x0000, 0x2000, 0x4000
        // (spaced by 8 KiB) all map to set 0.
        let mut c = Cache::new(tiny_cfg());
        c.fill(0x0000, AccessKind::Read, 0, false);
        c.fill(0x2000, AccessKind::Read, 0, false);
        assert!(c.contains(0x0000));
        c.probe(0x0000, AccessKind::Read, 1); // refresh LRU for 0x0000
        c.fill(0x4000, AccessKind::Read, 2, false); // evicts 0x2000
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x2000));
        assert!(c.contains(0x4000));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = Cache::new(tiny_cfg());
        c.fill(0x0000, AccessKind::Write, 0, false);
        c.fill(0x2000, AccessKind::Read, 0, false);
        let wb = c.fill(0x4000, AccessKind::Read, 0, false);
        assert_eq!(wb, Some(0x0000));
        assert_eq!(c.stats.writebacks.get(), 1);
    }

    #[test]
    fn discard_dirty_drops_writeback() {
        let mut cfg = tiny_cfg();
        cfg.discard_dirty = true;
        let mut c = Cache::new(cfg);
        c.fill(0x0000, AccessKind::Write, 0, false);
        c.fill(0x2000, AccessKind::Read, 0, false);
        let wb = c.fill(0x4000, AccessKind::Read, 0, false);
        assert_eq!(wb, None);
        assert_eq!(c.stats.discarded_dirty.get(), 1);
        assert_eq!(c.stats.writebacks.get(), 0);
    }

    #[test]
    fn prefetch_usefulness_tracking() {
        let mut c = Cache::new(tiny_cfg());
        c.fill(0x40, AccessKind::Read, 5, true);
        assert_eq!(c.stats.prefetch_fills.get(), 1);
        c.probe(0x40, AccessKind::Read, 10);
        assert_eq!(c.stats.prefetch_useful.get(), 1);
        // A second hit does not double-count usefulness.
        c.probe(0x40, AccessKind::Read, 11);
        assert_eq!(c.stats.prefetch_useful.get(), 1);
    }

    #[test]
    fn prefetch_evicted_unused_is_counted() {
        let mut c = Cache::new(tiny_cfg());
        c.fill(0x0000, AccessKind::Read, 0, true);
        c.fill(0x2000, AccessKind::Read, 0, false);
        c.fill(0x4000, AccessKind::Read, 0, false); // evicts untouched prefetch
        assert_eq!(c.stats.prefetch_evicted_unused.get(), 1);
    }

    #[test]
    fn mshr_admit_models_structural_stall() {
        let mut c = Cache::new(tiny_cfg()); // 4 MSHRs
        for i in 0..4u64 {
            let a = 0x1_0000 + i * 0x2000;
            assert_eq!(c.probe(a, AccessKind::Read, 0), Probe::Miss);
            c.fill(a, AccessKind::Read, 50 + i, false);
        }
        // All MSHRs busy until ≥50.
        assert_eq!(c.mshr_admit_cycle(10), 50);
        // After they drain, admission is immediate.
        assert_eq!(c.mshr_admit_cycle(60), 60);
    }

    #[test]
    fn touch_behaves_like_presence_test() {
        let mut c = Cache::new(tiny_cfg());
        assert!(!c.touch(0x40));
        assert!(c.touch(0x40));
        c.flush();
        assert!(!c.touch(0x40));
    }

    #[test]
    fn miss_ratio_reports_fraction() {
        let mut c = Cache::new(tiny_cfg());
        c.probe(0x40, AccessKind::Read, 0);
        c.fill(0x40, AccessKind::Read, 0, false);
        c.probe(0x40, AccessKind::Read, 1);
        assert!((c.stats.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
