//! The look-ahead thread's speculative memory view: an address→value
//! overlay on top of the shared architectural memory (paper §III-A i,
//! "containment of speculation").

use r3dla_isa::{DataMem, FxHashMap, VecMem};

/// LT's speculative stores: reads prefer them, falling back to the
/// shared architectural memory the caller passes in; writes never
/// escape the overlay — the software analogue of discard-dirty private
/// caches.
#[derive(Debug, Default)]
pub struct OverlayMem {
    delta: FxHashMap<u64, u64>,
}

impl OverlayMem {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all speculative state (reboot).
    pub fn clear(&mut self) {
        self.delta.clear();
    }

    /// Number of speculatively written words.
    pub fn dirty_words(&self) -> usize {
        self.delta.len()
    }

    /// Loads the aligned word containing `addr`: LT's own store if it
    /// made one, else `base`'s.
    pub fn load(&self, base: &mut VecMem, addr: u64) -> u64 {
        let a = addr & !7;
        match self.delta.get(&a) {
            Some(&v) => v,
            None => base.load(a),
        }
    }

    /// Stores to the overlay only.
    pub fn store(&mut self, addr: u64, val: u64) {
        self.delta.insert(addr & !7, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_through_to_base() {
        let mut base = VecMem::new();
        base.store(0x100, 7);
        let ov = OverlayMem::new();
        assert_eq!(ov.load(&mut base, 0x100), 7);
    }

    #[test]
    fn writes_stay_speculative() {
        let mut base = VecMem::new();
        base.store(0x100, 7);
        let mut ov = OverlayMem::new();
        ov.store(0x100, 99);
        assert_eq!(ov.load(&mut base, 0x100), 99, "LT sees its own store");
        assert_eq!(base.load(0x100), 7, "MT never sees it");
        assert_eq!(ov.dirty_words(), 1);
    }

    #[test]
    fn clear_discards_speculation() {
        let mut base = VecMem::new();
        let mut ov = OverlayMem::new();
        ov.store(0x200, 5);
        ov.clear();
        assert_eq!(ov.load(&mut base, 0x200), 0);
        assert_eq!(ov.dirty_words(), 0);
    }

    #[test]
    fn base_updates_visible_unless_shadowed() {
        let mut base = VecMem::new();
        let mut ov = OverlayMem::new();
        base.store(0x300, 1);
        assert_eq!(ov.load(&mut base, 0x300), 1);
        ov.store(0x300, 2);
        base.store(0x300, 3); // MT commits a newer value
        assert_eq!(ov.load(&mut base, 0x300), 2, "overlay shadows MT's update");
    }
}
