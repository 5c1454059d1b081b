//! Deterministic discrete-event kernel: a calendar queue over
//! `(time, seq)` keys with FIFO tie-breaking, actor bookkeeping with
//! cancel/re-arm on top of it ([`Kernel`]), and the multi-tenant
//! [`Cluster`] driver that hosts several simulated systems — e.g. two
//! [`DlaSystem`](crate::DlaSystem)s sharing an LLC/DRAM model — under
//! one global clock.
//!
//! The kernel serves [`Cluster`] only. A single system has one actor,
//! so [`DlaSystem::run_until_mt`](crate::DlaSystem::run_until_mt) and
//! [`SingleCoreSim::run_until`](crate::SingleCoreSim::run_until) are
//! plain loops over the same per-quantum advance a cluster dispatches.
//!
//! # The wakeup contract
//!
//! An actor is anything that can answer "when must I next be
//! dispatched?" after every advance. The cores' `next_event_at()` gives
//! a *lower bound* on the next architecturally visible action: waking an
//! actor early is always safe (it proves quiescence again and goes back
//! to sleep), waking it late never happens. Because a provably quiescent
//! stretch replayed by `skip_to` is byte-identical to stepping it, *any*
//! dispatch schedule that respects the bound produces the same simulated
//! state — which is why a single system's plain loop, a one-tenant
//! cluster and any interleaving of cluster tenants all agree to the bit.
//!
//! # Determinism rules
//!
//! * Events are totally ordered by `(time, seq)`; `seq` is a monotone
//!   insertion counter, so same-cycle events dispatch in the order they
//!   were scheduled (FIFO) — never by actor id, hash order or heap
//!   shape.
//! * Re-arming an actor bumps its generation; a stale event left in the
//!   queue is skipped at pop. Cancellation is O(1) and never reorders
//!   live events.
//! * [`Cluster`] dispatches whichever tenant's local clock is earliest
//!   (ties by schedule order), so shared-LLC/DRAM state mutations occur
//!   in nondecreasing global-time order regardless of tenant count.

use std::cell::RefCell;
use std::rc::Rc;

use r3dla_mem::SharedLlc;

use crate::system::{MeasureTarget, SysSnapshot, WindowReport};

/// Identifies an actor registered with a [`Kernel`] (dense, starting
/// at 0 in registration order).
pub type ActorId = usize;

// Inert shim: only the frozen perfbench harness calls it; a later benchmark change removes it.
#[doc(hidden)]
pub fn event_kernel_default() -> bool {
    true
}

/// Buckets in the calendar wheel: one simulated cycle each. Core wakeups
/// are almost always within a few hundred cycles (an MSHR or DRAM
/// completion), so the common case is a constant-time bucket append;
/// only far-future wakeups (reboot drain timeouts, `u64::MAX` "never"
/// parks) take the overflow path.
const WHEEL_BUCKETS: usize = 512;

#[derive(Clone, Copy, Debug)]
struct Event {
    time: u64,
    seq: u64,
    actor: ActorId,
    generation: u64,
}

/// A deterministic calendar queue: a wheel of one-cycle buckets plus a
/// far-future overflow list, ordered by `(time, seq)` with FIFO
/// tie-breaking.
///
/// The queue never reorders same-key events: within a bucket, events are
/// stored in insertion (`seq`) order, and the overflow list is sorted by
/// `(time, seq)` — unique keys — before being redistributed when the
/// wheel drains past its horizon.
///
/// # Examples
///
/// ```
/// use r3dla_core::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(7, 1, 0);
/// q.push(3, 0, 0);
/// q.push(7, 2, 0); // same cycle as actor 1: FIFO after it
/// assert_eq!(q.pop().map(|(t, a, _)| (t, a)), Some((3, 0)));
/// assert_eq!(q.pop().map(|(t, a, _)| (t, a)), Some((7, 1)));
/// assert_eq!(q.pop().map(|(t, a, _)| (t, a)), Some((7, 2)));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue {
    wheel: Vec<Vec<Event>>,
    far: Vec<Event>,
    /// Simulated time of wheel bucket 0.
    base: u64,
    /// Next wheel bucket to drain; buckets before it are empty.
    cursor: usize,
    seq: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue based at time 0.
    pub fn new() -> Self {
        Self {
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            far: Vec::new(),
            base: 0,
            cursor: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Number of queued events (stale generations included — the
    /// [`Kernel`] filters those at pop).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues a wakeup for `actor` at `time` tagged with `generation`;
    /// returns the event's sequence number. Times earlier than the
    /// current drain point are clamped to it ("schedule in the past"
    /// means "fire as soon as possible", after anything already queued
    /// for that cycle).
    pub fn push(&mut self, time: u64, actor: ActorId, generation: u64) -> u64 {
        let floor = self.base.saturating_add(self.cursor as u64);
        let time = time.max(floor);
        let seq = self.seq;
        self.seq += 1;
        let ev = Event {
            time,
            seq,
            actor,
            generation,
        };
        match time.checked_sub(self.base) {
            Some(d) if d < self.wheel.len() as u64 => self.wheel[d as usize].push(ev),
            _ => self.far.push(ev),
        }
        self.len += 1;
        seq
    }

    /// Removes and returns the earliest event as
    /// `(time, actor, generation)`; `None` when empty.
    pub fn pop(&mut self) -> Option<(u64, ActorId, u64)> {
        if self.len == 0 {
            return None;
        }
        loop {
            while self.cursor < self.wheel.len() {
                let bucket = &mut self.wheel[self.cursor];
                if !bucket.is_empty() {
                    let ev = bucket.remove(0);
                    self.len -= 1;
                    return Some((ev.time, ev.actor, ev.generation));
                }
                self.cursor += 1;
            }
            // Wheel drained: rebase it onto the earliest far event. `len
            // > 0` with an empty wheel implies `far` is non-empty.
            self.rebase();
        }
    }

    /// Moves the wheel window to start at the earliest overflow event and
    /// redistributes every overflow event inside the new horizon. The
    /// buckets are empty here (the wheel just drained), and the overflow
    /// list is sorted by the unique `(time, seq)` key first, so
    /// within-bucket insertion order equals seq order — FIFO survives the
    /// rebase.
    fn rebase(&mut self) {
        debug_assert!(!self.far.is_empty());
        self.far.sort_unstable_by_key(|e| (e.time, e.seq));
        self.base = self.far[0].time;
        self.cursor = 0;
        let mut keep = Vec::new();
        for ev in self.far.drain(..) {
            // Offset arithmetic, not an absolute horizon: `base + len`
            // saturates near `u64::MAX` (the "never" park time) and would
            // otherwise strand the earliest event in the far list forever.
            let d = ev.time - self.base;
            if d < self.wheel.len() as u64 {
                self.wheel[d as usize].push(ev);
            } else {
                keep.push(ev);
            }
        }
        self.far = keep;
    }
}

/// The discrete-event scheduler: an [`EventQueue`] plus per-actor
/// generation counters, so each actor has at most one *live* wakeup and
/// re-arming or cancelling never has to search the queue.
///
/// # Examples
///
/// ```
/// use r3dla_core::Kernel;
///
/// let mut k = Kernel::new();
/// let a = k.add_actor();
/// let b = k.add_actor();
/// k.schedule(a, 10);
/// k.schedule(b, 10); // same cycle: dispatches after `a` (FIFO)
/// k.schedule(a, 5); // re-arm: the wakeup at 10 is now stale
/// assert_eq!(k.pop(), Some((5, a)));
/// assert_eq!(k.pop(), Some((10, b)));
/// assert_eq!(k.pop(), None);
/// assert_eq!(k.now(), 10);
/// ```
pub struct Kernel {
    queue: EventQueue,
    generations: Vec<u64>,
    armed: Vec<bool>,
    live: usize,
    now: u64,
    // Dispatch accounting (plain fields, not atomics: the kernel is
    // single-threaded and these must cost nothing). Surfaced through
    // [`stats`](Self::stats) for the telemetry sidecar.
    dispatched: u64,
    stale_dropped: u64,
}

/// Dispatch counters for one [`Kernel`], or accumulated across a
/// [`Cluster`]'s run phases: how many live wakeups were dispatched and
/// how many stale events (re-armed or cancelled wakeups) were drained
/// and dropped on the way. The ratio is a direct health signal for the
/// calendar queue — a high stale fraction means actors re-arm far more
/// often than they fire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Live events returned by [`Kernel::pop`].
    pub dispatched: u64,
    /// Stale events consumed and skipped while hunting for live ones.
    pub stale_dropped: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// An empty kernel at time 0 with no actors.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            generations: Vec::new(),
            armed: Vec::new(),
            live: 0,
            now: 0,
            dispatched: 0,
            stale_dropped: 0,
        }
    }

    /// Dispatch accounting since construction.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            dispatched: self.dispatched,
            stale_dropped: self.stale_dropped,
        }
    }

    /// Registers a new actor; ids are dense and start at 0.
    pub fn add_actor(&mut self) -> ActorId {
        self.generations.push(0);
        self.armed.push(false);
        self.generations.len() - 1
    }

    /// Current kernel time: the timestamp of the last dispatched event.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether `actor` has a live (not cancelled, not yet dispatched)
    /// wakeup.
    pub fn armed(&self, actor: ActorId) -> bool {
        self.armed[actor]
    }

    /// Whether no actor has a live wakeup — the kernel's run loop is
    /// done.
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    /// Arms (or re-arms) `actor`'s single wakeup at time `at` (clamped to
    /// [`now`](Self::now)). Any previously scheduled wakeup becomes stale
    /// and is skipped at pop — re-arming is how an actor moves its own
    /// wakeup earlier when new information (say, another tenant's fill)
    /// arrives.
    pub fn schedule(&mut self, actor: ActorId, at: u64) {
        self.generations[actor] += 1;
        if !self.armed[actor] {
            self.armed[actor] = true;
            self.live += 1;
        }
        self.queue
            .push(at.max(self.now), actor, self.generations[actor]);
    }

    /// Cancels `actor`'s live wakeup, if any. O(1): the queued event goes
    /// stale and is dropped when it surfaces.
    pub fn cancel(&mut self, actor: ActorId) {
        if self.armed[actor] {
            self.armed[actor] = false;
            self.live -= 1;
            self.generations[actor] += 1;
        }
    }

    /// Dispatches the earliest live wakeup: advances
    /// [`now`](Self::now) to its time, disarms the actor, and returns
    /// `(time, actor)`. Stale events (re-armed or cancelled) are consumed
    /// and skipped. Returns `None` when no live wakeups remain.
    pub fn pop(&mut self) -> Option<(u64, ActorId)> {
        while let Some((time, actor, generation)) = self.queue.pop() {
            if self.armed[actor] && self.generations[actor] == generation {
                self.armed[actor] = false;
                self.live -= 1;
                debug_assert!(time >= self.now, "calendar queue went backwards");
                self.now = time;
                self.dispatched += 1;
                return Some((time, actor));
            }
            self.stale_dropped += 1;
        }
        debug_assert_eq!(self.live, 0);
        None
    }
}

/// The event-source surface a simulated system exposes to a [`Kernel`]:
/// a local clock, halt/commit observation, and a single-quantum advance
/// that reports when the system must next be dispatched.
///
/// Implementations must guarantee **progress** (`advance_quantum`
/// strictly increases `local_cycle`) and the **wakeup contract** (the
/// returned dispatch time is the local clock after the advance: either
/// the next cycle, or the end of a proven-quiescent skip — never beyond
/// the first possible architectural action).
pub trait KernelActor {
    /// The actor's local clock, in the shared global time base (all
    /// cluster tenants start at cycle 0).
    fn local_cycle(&self) -> u64;
    /// Whether the measured program has halted — the actor will never
    /// make progress again.
    fn halted(&self) -> bool;
    /// Committed instructions on the measured (main) thread.
    fn committed(&self) -> u64;
    /// Advances one scheduler quantum: a single cycle step, or a
    /// proven-quiescent skip never reaching past `cap`. Returns the cycle
    /// at which the kernel must next dispatch this actor (the new local
    /// clock). `last_probe` is the actor's activity-probe memo — the
    /// same cheap "did anything happen since last time?" gate the
    /// single-system run loops use — owned by the caller so the actor
    /// stays borrowable between dispatches.
    fn advance_quantum(&mut self, cap: u64, last_probe: &mut u64) -> u64;
}

/// Per-tenant dispatch bookkeeping inside [`Cluster`].
struct TenantState {
    start_cycle: u64,
    start_committed: u64,
    last_probe: u64,
    done: bool,
}

/// N simulated systems under one [`Kernel`] and one global clock — the
/// multi-tenant scenario (several systems contending for one shared
/// LLC/DRAM, built via
/// [`DlaSystem::assemble_shared`](crate::DlaSystem::assemble_shared)).
///
/// # Lifecycle
///
/// 1. Create the shared memory side and a cluster around it
///    ([`Cluster::with_shared`]), or a plain [`Cluster::new`] for
///    independent tenants.
/// 2. [`push`](Self::push) each tenant (any [`KernelActor`]; every
///    tenant of a shared cluster must have been assembled over the same
///    `SharedLlc` handle).
/// 3. [`run_until_each`](Self::run_until_each) /
///    [`measure_each`](Self::measure_each): one kernel interleaves all
///    tenants by earliest local clock; a tenant that reaches its target
///    (or halts, or exhausts its cycle budget) parks and stops
///    contending, and under `measure_each` its window report is captured
///    at that moment.
///
/// # Determinism
///
/// Dispatch order is a pure function of the tenants' initial state:
/// earliest local clock first, FIFO on ties. Tenants only touch the
/// shared LLC/DRAM while *stepping* (a skipped window is proven free of
/// memory-system activity), so shared-state mutations occur in
/// nondecreasing global-time order and two runs of the same cluster are
/// byte-identical. When a shared LLC is attached, each quantum is
/// additionally capped at [`SharedLlc::next_event_at`] — a pending fill
/// (possibly another tenant's) re-dispatches every tenant at its
/// completion rather than letting them sleep through it. The cap only
/// ever shortens skips, which the wakeup contract makes behavior-free.
pub struct Cluster<T> {
    tenants: Vec<T>,
    shared: Option<Rc<RefCell<SharedLlc>>>,
    kstats: KernelStats,
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
            kstats: KernelStats::default(),
        }
    }

    /// An empty cluster whose tenants share `shared`; their skip windows
    /// are bounded by its next MSHR/DRAM completion so one tenant's fill
    /// wakes the others.
    pub fn with_shared(shared: Rc<RefCell<SharedLlc>>) -> Self {
        Self {
            tenants: Vec::new(),
            shared: Some(shared),
            kstats: KernelStats::default(),
        }
    }

    /// Dispatch accounting accumulated over every run/measure phase of
    /// this cluster (each phase pumps a fresh [`Kernel`]; totals add
    /// up here). Telemetry-only — never feeds report bytes.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kstats
    }

    /// Adds a tenant; returns its index (dispatch id and report order).
    pub fn push(&mut self, tenant: T) -> usize {
        self.tenants.push(tenant);
        self.tenants.len() - 1
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the cluster has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenants, in push order.
    pub fn tenants(&self) -> &[T] {
        &self.tenants
    }

    /// Mutable tenant access (attaching observers, toggling knobs).
    pub fn tenants_mut(&mut self) -> &mut [T] {
        &mut self.tenants
    }
}

impl<T: KernelActor> Cluster<T> {
    /// Pumps one kernel until every tenant is done (committed `target`
    /// more instructions, halted, or `max_cycles` elapsed on its local
    /// clock); `on_park` fires exactly once per tenant at the moment it
    /// finishes, while every still-running tenant is frozen at a local
    /// clock ≥ the parking tenant's.
    fn pump(&mut self, target: u64, max_cycles: u64, mut on_park: impl FnMut(usize, &T)) {
        let mut kernel = Kernel::new();
        let mut states: Vec<TenantState> = Vec::with_capacity(self.tenants.len());
        for (i, t) in self.tenants.iter().enumerate() {
            let id = kernel.add_actor();
            debug_assert_eq!(id, i);
            kernel.schedule(id, t.local_cycle());
            states.push(TenantState {
                start_cycle: t.local_cycle(),
                start_committed: t.committed(),
                last_probe: u64::MAX,
                done: false,
            });
        }
        let shared = self.shared.clone();
        while let Some((_, i)) = kernel.pop() {
            let tenant = &mut self.tenants[i];
            let st = &mut states[i];
            if tenant.committed() - st.start_committed >= target
                || tenant.halted()
                || tenant.local_cycle() - st.start_cycle >= max_cycles
            {
                st.done = true;
                on_park(i, tenant);
                continue;
            }
            let mut cap = st.start_cycle.saturating_add(max_cycles);
            if let Some(shared) = &shared {
                if let Some(wake) = shared.borrow().next_event_at(tenant.local_cycle()) {
                    cap = cap.min(wake);
                }
            }
            // Progress even when the shared cap is already behind us: a
            // zero-width skip window degenerates to a plain step.
            let before = tenant.local_cycle();
            let next = tenant.advance_quantum(cap.max(tenant.local_cycle()), &mut st.last_probe);
            if crate::guard::tick(tenant.local_cycle() - before) {
                break;
            }
            kernel.schedule(i, next);
        }
        let s = kernel.stats();
        self.kstats.dispatched += s.dispatched;
        self.kstats.stale_dropped += s.stale_dropped;
        debug_assert!(crate::guard::interrupted() || states.iter().all(|s| s.done));
    }

    /// Runs every tenant until each has committed `target` more
    /// instructions, halted, or spent `max_cycles`; tenants interleave
    /// through one kernel in global-time order. Returns the largest
    /// per-tenant elapsed cycle count.
    pub fn run_until_each(&mut self, target: u64, max_cycles: u64) -> u64 {
        let starts: Vec<u64> = self.tenants.iter().map(|t| t.local_cycle()).collect();
        self.pump(target, max_cycles, |_, _| {});
        self.tenants
            .iter()
            .zip(&starts)
            .map(|(t, s)| t.local_cycle() - s)
            .max()
            .unwrap_or(0)
    }
}

impl<T: KernelActor + MeasureTarget> Cluster<T> {
    /// Warms every tenant up over `warm` committed instructions (still
    /// contending), then measures a window of `win` per tenant. Each
    /// report is captured the moment its tenant crosses the target, so a
    /// tenant that finishes early does not accumulate the others'
    /// residual shared-channel traffic. Cycle budgets match
    /// [`measure_window`](crate::measure_window). Note `dram_traffic`
    /// counts the *shared* channel: in a shared-LLC cluster it includes
    /// lines moved for co-running tenants.
    pub fn measure_each(&mut self, warm: u64, win: u64) -> Vec<WindowReport> {
        self.run_until_each(warm, warm * 60 + 500_000);
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

    /// Same-cycle events dispatch in schedule order, not actor-id order.
    #[test]
    fn fifo_tie_break_is_schedule_order() {
        let mut k = Kernel::new();
        let a = k.add_actor();
        let b = k.add_actor();
        let c = k.add_actor();
        k.schedule(b, 42);
        k.schedule(a, 42);
        k.schedule(c, 42);
        assert_eq!(k.pop(), Some((42, b)));
        assert_eq!(k.pop(), Some((42, a)));
        assert_eq!(k.pop(), Some((42, c)));
        assert_eq!(k.pop(), None);
        assert!(k.is_idle());
    }

    /// Total order is (time, seq) across a mix of near, same-cycle and
    /// far-horizon events, including ones past the wheel.
    #[test]
    fn same_cycle_multi_actor_ordering_across_horizons() {
        let mut q = EventQueue::new();
        q.push(7, 0, 0);
        q.push(3, 1, 0);
        q.push(7, 2, 0);
        q.push(100_000, 3, 0); // far beyond the wheel
        q.push(3, 4, 0);
        q.push(100_000, 5, 0);
        let order: Vec<(u64, ActorId)> = std::iter::from_fn(|| q.pop())
            .map(|(t, a, _)| (t, a))
            .collect();
        assert_eq!(
            order,
            vec![(3, 1), (3, 4), (7, 0), (7, 2), (100_000, 3), (100_000, 5)]
        );
    }

    /// Re-arming moves the wakeup and the stale event never dispatches;
    /// cancelling silences the actor entirely.
    #[test]
    fn cancel_and_rearm_drop_stale_wakeups() {
        let mut k = Kernel::new();
        let a = k.add_actor();
        let b = k.add_actor();
        k.schedule(a, 50);
        k.schedule(b, 20);
        k.schedule(a, 10); // re-arm earlier: the 50 is stale
        assert_eq!(k.pop(), Some((10, a)));
        k.schedule(a, 30);
        k.cancel(a);
        assert!(!k.armed(a));
        assert_eq!(k.pop(), Some((20, b)));
        assert_eq!(k.pop(), None, "cancelled wakeup must not dispatch");
        // Re-arm after cancel works and time keeps monotone. The queue
        // drained through the stale wakeup at 50 while hunting for live
        // ones, so "as soon as possible" is 50 — harmless: the dispatch
        // time is informational, actors advance from their own clock.
        k.schedule(a, 5);
        assert_eq!(k.pop(), Some((50, a)));
        assert_eq!(k.now(), 50);
    }

    /// Draining far past the wheel horizon repeatedly (forcing rebases)
    /// preserves (time, seq) order.
    #[test]
    fn rebase_preserves_order() {
        let mut q = EventQueue::new();
        // Spread events over many wheel windows, inserted out of order.
        let times = [5_000u64, 1, 700, 5_000, 2_000_000, 700, 90_000];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i, 0);
        }
        let order: Vec<(u64, ActorId)> = std::iter::from_fn(|| q.pop())
            .map(|(t, a, _)| (t, a))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, 1),
                (700, 2),
                (700, 5),
                (5_000, 0),
                (5_000, 3),
                (90_000, 6),
                (2_000_000, 4)
            ]
        );
    }

    /// Interleaved push/pop at the same cycle keeps FIFO order, and a
    /// `u64::MAX` "never" park stays queued without overflow.
    #[test]
    fn same_cycle_push_during_drain_and_never_park() {
        let mut k = Kernel::new();
        let a = k.add_actor();
        let b = k.add_actor();
        k.schedule(a, 10);
        k.schedule(b, u64::MAX);
        assert_eq!(k.pop(), Some((10, a)));
        k.schedule(a, 10); // same cycle as the dispatch we just took
        assert_eq!(k.pop(), Some((10, a)));
        k.cancel(b);
        assert_eq!(k.pop(), None);
    }
}
