//! A small fully-associative data TLB with LRU replacement.
//!
//! The look-ahead thread sends TLB hints through the footnote queue
//! (paper §III-A); [`Tlb::fill`] models the hint prefill path.

use r3dla_stats::Counter;

/// TLB configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes (must be a power of two).
    pub page_bytes: u64,
    /// Miss (walk) penalty in cycles.
    pub miss_penalty: u64,
}

impl TlbConfig {
    /// A 64-entry 4 KiB-page DTLB with a 30-cycle walk.
    pub fn paper() -> Self {
        Self {
            entries: 64,
            page_bytes: 4096,
            miss_penalty: 30,
        }
    }
}

/// A fully-associative TLB.
///
/// # Examples
///
/// ```
/// use r3dla_mem::{Tlb, TlbConfig};
/// let mut t = Tlb::new(TlbConfig::paper());
/// assert_eq!(t.access(0x2000_0000), 30); // cold miss pays the walk
/// assert_eq!(t.access(0x2000_0F00), 0);  // same page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    entries: Vec<(u64, u64)>, // (page, stamp)
    stamp: u64,
    /// Lookup count.
    pub lookups: Counter,
    /// Miss count.
    pub misses: Counter,
}

impl Tlb {
    /// Creates a TLB from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `entries` is zero.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(cfg.entries > 0, "TLB needs at least one entry");
        Self {
            entries: Vec::with_capacity(cfg.entries),
            stamp: 0,
            lookups: Counter::new(),
            misses: Counter::new(),
            cfg,
        }
    }

    #[inline]
    fn page_of(&self, addr: u64) -> u64 {
        addr / self.cfg.page_bytes
    }

    /// Translates `addr`; returns the added latency (0 on hit, the walk
    /// penalty on miss). The entry is installed on miss.
    pub fn access(&mut self, addr: u64) -> u64 {
        self.lookups.inc();
        let page = self.page_of(addr);
        self.stamp += 1;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.stamp;
            return 0;
        }
        self.misses.inc();
        self.install(page);
        self.cfg.miss_penalty
    }

    /// Prefills the translation for `addr` without charging a walk (the
    /// footnote-queue TLB-hint path).
    pub fn fill(&mut self, addr: u64) {
        let page = self.page_of(addr);
        self.stamp += 1;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.stamp;
            return;
        }
        self.install(page);
    }

    fn install(&mut self, page: u64) {
        if self.entries.len() < self.cfg.entries {
            self.entries.push((page, self.stamp));
            return;
        }
        let victim = self
            .entries
            .iter_mut()
            .min_by_key(|(_, s)| *s)
            .expect("nonempty TLB");
        *victim = (page, self.stamp);
    }

    /// The resident pages, least recently used first: the order in which
    /// LRU would evict them.
    pub fn victim_order(&self) -> Vec<u64> {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|&(_, stamp)| stamp);
        entries.into_iter().map(|(page, _)| page).collect()
    }

    /// Drops all translations.
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_penalty: 30,
        })
    }

    #[test]
    fn hit_after_install() {
        let mut t = tiny();
        assert_eq!(t.access(0x1000), 30);
        assert_eq!(t.access(0x1FF8), 0);
        assert_eq!(t.misses.get(), 1);
        assert_eq!(t.lookups.get(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = tiny();
        t.access(0x1000); // page 1
        t.access(0x2000); // page 2
        t.access(0x1000); // refresh page 1
        t.access(0x3000); // evicts page 2
        assert_eq!(t.access(0x1000), 0);
        assert_eq!(t.access(0x2000), 30);
    }

    #[test]
    fn fill_avoids_walk() {
        let mut t = tiny();
        t.fill(0x5000);
        assert_eq!(t.access(0x5000), 0);
        assert_eq!(t.misses.get(), 0);
    }

    #[test]
    fn flush_forgets() {
        let mut t = tiny();
        t.access(0x1000);
        t.flush();
        assert_eq!(t.access(0x1000), 30);
    }
}
