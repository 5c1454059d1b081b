//! The multi-tenant [`Cluster`] driver: several simulated systems — e.g.
//! two [`DlaSystem`](crate::DlaSystem)s sharing an LLC/DRAM model —
//! under one global clock.
//!
//! A single system has one run loop,
//! [`MeasureTarget::run_insts`]: a plain loop over the per-quantum
//! advance. A cluster dispatches that same advance, one tenant at a
//! time, by scanning its tenants for the earliest wakeup.
//!
//! # The wakeup contract
//!
//! A tenant answers "when must I next be dispatched?" after every
//! advance. The cores' `next_event_at()` gives a *lower bound* on the
//! next architecturally visible action: waking a tenant early is always
//! safe (it proves quiescence again and goes back to sleep), waking it
//! late never happens. Because a provably quiescent stretch replayed by
//! `skip_to` is byte-identical to stepping it, *any* dispatch schedule
//! that respects the bound produces the same simulated state — which is
//! why a single system's plain loop, a one-tenant cluster and any
//! interleaving of cluster tenants all agree to the bit.
//!
//! # Determinism
//!
//! Each running tenant holds one wakeup `(cycle, stamp)`; the stamp is
//! a per-run counter bumped at every schedule. The tenant with the
//! smallest pair runs next, so same-cycle wakeups dispatch in the order
//! they were scheduled (FIFO) — never by tenant index. Shared-LLC/DRAM
//! state therefore mutates in nondecreasing global-time order regardless
//! of tenant count.

use std::cell::RefCell;
use std::rc::Rc;

use r3dla_mem::SharedLlc;

use crate::system::{MeasureTarget, SysSnapshot, WindowReport};

/// A tenant's pending wakeup: `(cycle, stamp)`, or `None` once parked.
type Wake = Option<(u64, u64)>;

/// The tenant to dispatch next: the smallest `(cycle, stamp)` wakeup,
/// or `None` when every tenant is parked. Stamps are unique, so the
/// cycle tie-break is schedule order, not index order.
fn earliest(wakes: &[Wake]) -> Option<usize> {
    wakes
        .iter()
        .enumerate()
        .filter_map(|(i, w)| w.map(|w| (w, i)))
        .min()
        .map(|(_, i)| i)
}

/// N simulated systems under one global clock — the multi-tenant
/// scenario (several systems contending for one shared LLC/DRAM, built
/// via [`DlaSystem::assemble_shared`](crate::DlaSystem::assemble_shared)).
///
/// # Lifecycle
///
/// 1. Create the shared memory side and a cluster around it
///    ([`Cluster::with_shared`]), or a plain [`Cluster::new`] for
///    independent tenants.
/// 2. [`push`](Self::push) each tenant (any [`MeasureTarget`]; every
///    tenant of a shared cluster must have been assembled over the same
///    `SharedLlc` handle).
/// 3. [`measure_each`](Self::measure_each): all tenants interleave by
///    earliest local clock; a tenant that reaches its target (or halts,
///    or exhausts its cycle budget) parks and stops contending, and its
///    window report is captured at that moment.
///
/// # Determinism
///
/// Dispatch order is a pure function of the tenants' initial state:
/// earliest local clock first, FIFO on ties. Tenants only touch the
/// shared LLC/DRAM while *stepping* (a skipped window is proven free of
/// memory-system activity), so two runs of the same cluster are
/// byte-identical. When a shared LLC is attached, each quantum is
/// additionally capped at [`SharedLlc::next_event_at`] — a pending fill
/// (possibly another tenant's) re-dispatches every tenant at its
/// completion rather than letting them sleep through it. The cap only
/// ever shortens skips, which the wakeup contract makes behavior-free.
pub struct Cluster<T> {
    tenants: Vec<T>,
    shared: Option<Rc<RefCell<SharedLlc>>>,
}

impl<T> Default for Cluster<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Cluster<T> {
    /// An empty cluster of independent tenants (no shared wake coupling).
    pub fn new() -> Self {
        Self {
            tenants: Vec::new(),
            shared: None,
        }
    }

    /// An empty cluster whose tenants share `shared`; their skip windows
    /// are bounded by its next MSHR/DRAM completion so one tenant's fill
    /// wakes the others.
    pub fn with_shared(shared: Rc<RefCell<SharedLlc>>) -> Self {
        Self {
            tenants: Vec::new(),
            shared: Some(shared),
        }
    }

    /// Adds a tenant; returns its index (report order).
    pub fn push(&mut self, tenant: T) -> usize {
        self.tenants.push(tenant);
        self.tenants.len() - 1
    }
}

impl<T: MeasureTarget> Cluster<T> {
    /// Dispatches tenants until every one is done (committed `target`
    /// more instructions, halted, or `max_cycles` elapsed on its local
    /// clock); `on_park` fires exactly once per tenant at the moment it
    /// finishes, while every still-running tenant is frozen at a local
    /// clock ≥ the parking tenant's.
    fn pump(&mut self, target: u64, max_cycles: u64, mut on_park: impl FnMut(usize, &T)) {
        let n = self.tenants.len();
        let starts: Vec<(u64, u64)> = self
            .tenants
            .iter()
            .map(|t| (t.local_cycle(), t.committed()))
            .collect();
        let mut probes = vec![u64::MAX; n];
        let mut wakes: Vec<Wake> = (0..n).map(|i| Some((starts[i].0, i as u64))).collect();
        let mut stamp = n as u64;
        while let Some(i) = earliest(&wakes) {
            wakes[i] = None;
            let tenant = &mut self.tenants[i];
            let (start_cycle, start_committed) = starts[i];
            if tenant.committed() - start_committed >= target
                || tenant.halted()
                || tenant.local_cycle() - start_cycle >= max_cycles
            {
                on_park(i, tenant);
                continue;
            }
            let mut cap = start_cycle.saturating_add(max_cycles);
            if let Some(shared) = &self.shared {
                if let Some(wake) = shared.borrow().next_event_at(tenant.local_cycle()) {
                    cap = cap.min(wake);
                }
            }
            // Progress even when the shared cap is already behind us: a
            // zero-width skip window degenerates to a plain step.
            let before = tenant.local_cycle();
            let next = tenant.advance_quantum(cap.max(before), &mut probes[i]);
            if crate::guard::tick(tenant.local_cycle() - before) {
                break;
            }
            wakes[i] = Some((next, stamp));
            stamp += 1;
        }
        debug_assert!(crate::guard::interrupted() || wakes.iter().all(Option::is_none));
    }

    /// Warms every tenant up over `warm` committed instructions (still
    /// contending), then measures a window of `win` per tenant. Each
    /// report is captured the moment its tenant crosses the target, so a
    /// tenant that finishes early does not accumulate the others'
    /// residual shared-channel traffic. Cycle budgets match
    /// [`measure_window`](crate::measure_window). Note `dram_traffic`
    /// counts the *shared* channel: in a shared-LLC cluster it includes
    /// lines moved for co-running tenants.
    pub fn measure_each(&mut self, warm: u64, win: u64) -> Vec<WindowReport> {
        self.pump(warm, warm * 60 + 500_000, |_, _| {});
        let snaps: Vec<SysSnapshot> = self.tenants.iter().map(|t| t.counters_snapshot()).collect();
        let mut reports: Vec<Option<WindowReport>> = self.tenants.iter().map(|_| None).collect();
        self.pump(win, win * 60 + 500_000, |i, t| {
            reports[i] = Some(t.window_report(&snaps[i]));
        });
        reports
            .into_iter()
            .enumerate()
            // A missing report means pump was interrupted by the cell
            // guard before this tenant parked; hand back the partial
            // window — the supervisor discards the cell as timed out.
            .map(|(i, r)| r.unwrap_or_else(|| self.tenants[i].window_report(&snaps[i])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same cycle: schedule order wins over index order. Tenant 1 was
    /// rescheduled to cycle 15 (stamp 2) before tenant 0 (stamp 3).
    #[test]
    fn same_cycle_dispatches_in_schedule_order() {
        assert_eq!(earliest(&[Some((15, 3)), Some((15, 2))]), Some(1));
        assert_eq!(earliest(&[Some((15, 2)), Some((15, 3))]), Some(0));
        assert_eq!(earliest(&[Some((16, 0)), Some((15, 9))]), Some(1));
    }

    #[test]
    fn parked_tenants_are_skipped() {
        assert_eq!(earliest(&[None, Some((40, 7)), None]), Some(1));
        assert_eq!(earliest(&[None, None]), None);
        assert_eq!(earliest(&[]), None);
    }

    /// A `u64::MAX` "never" wakeup sorts after every finite one and is
    /// still dispatched once it is the only one left.
    #[test]
    fn never_wakeups_sort_last() {
        assert_eq!(earliest(&[Some((u64::MAX, 0)), Some((10, 1))]), Some(1));
        assert_eq!(
            earliest(&[Some((u64::MAX, 1)), Some((u64::MAX, 0))]),
            Some(1)
        );
        assert_eq!(earliest(&[Some((u64::MAX, 0)), None]), Some(0));
    }
}
