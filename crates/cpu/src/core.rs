//! The cycle-stepped out-of-order core.
//!
//! One [`Core`] owns a private memory hierarchy ([`CoreMem`]) and one or
//! more hardware threads (SMT). Each cycle advances commit → writeback →
//! issue → rename → fetch, so results flow strictly forward in time.
//! What a thread asks of the world outside the core (directions, skeleton
//! masks, value predictions, memory, commit reporting) goes through the
//! [`ThreadHooks`] its owner passes to each [`Core::step`].
//!
//! The model is *execute-in-execute*: functional results are computed when
//! an instruction issues, using real values held in the physical register
//! file. Wrong-path instructions therefore execute real (garbage-input)
//! work and pollute caches — exactly the effect decoupled look-ahead is
//! designed to absorb on behalf of the main thread.

use std::rc::Rc;
use std::sync::Arc;

use r3dla_bpred::{Btb, BtbConfig, Ras, RasState};
use r3dla_isa::{
    eval_alu, eval_cond, mem_addr, BranchKind, FuClass, Inst, Op, Program, Reg, INST_BYTES,
};
use r3dla_mem::CoreMem;
use r3dla_stats::Histogram;

use crate::config::CoreConfig;
use crate::counters::ActivityCounters;
use crate::iface::{CommitRecord, ThreadHooks};
use crate::prf::Prf;
use crate::ring::{Ring, StoreQueue};

/// Base address where skeleton mask bits live in the binary image; the
/// look-ahead front end fetches mask lines from here (paper §III-A iii).
pub const MASK_BASE: u64 = 0x0800_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Dispatched,
    Issued,
    Done,
}

/// A ROB slot. Its ring position is the instruction's sequence number.
#[derive(Debug, Clone)]
struct RobEntry {
    pc: u64,
    inst: Inst,
    stage: Stage,
    exec_done: u64,
    dest_new: Option<u16>,
    dest_old: Option<u16>,
    src: [Option<u16>; 2],
    // Branch bookkeeping.
    pred_next_pc: u64,
    actual_taken: Option<bool>,
    actual_next_pc: u64,
    dir_snapshot: u64,
    ras_snapshot: Rc<RasState>,
    // Value-reuse alignment context (tag of the governing conditional
    // branch and distance from it).
    branch_tag: u64,
    branch_offset: u32,
    // Memory bookkeeping. A store's data lives in the store queue, at
    // `sq_pos` (meaningless for other instructions).
    addr: Option<u64>,
    sq_pos: u64,
    l1_miss: bool,
    l2_miss: bool,
    tlb_miss: bool,
    // Value prediction.
    vpred: Option<u64>,
    // Results & stats.
    result: Option<u64>,
    dispatch_cycle: u64,
}

/// An issue-queue slot. It repeats the two ROB fields readiness depends
/// on (both fixed at rename), so a waiting entry is rejected without
/// touching the ROB.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    thread: usize,
    seq: u64,
    src: [Option<u16>; 2],
    dispatch_cycle: u64,
}

#[derive(Debug, Clone)]
struct FetchedInst {
    pc: u64,
    inst: Inst,
    pred_next_pc: u64,
    dir_snapshot: u64,
    ras_snapshot: Rc<RasState>,
    decode_ready: u64,
    branch_tag: u64,
    branch_offset: u32,
}

impl FetchedInst {
    /// The contents of a front-end slot before its first use.
    fn vacant(ras: &Rc<RasState>) -> Self {
        Self {
            pc: 0,
            inst: Inst::NOP,
            pred_next_pc: 0,
            dir_snapshot: 0,
            ras_snapshot: Rc::clone(ras),
            decode_ready: 0,
            branch_tag: 0,
            branch_offset: 0,
        }
    }
}

impl RobEntry {
    /// The contents of a ROB slot before its first use.
    fn vacant(ras: &Rc<RasState>) -> Self {
        Self {
            pc: 0,
            inst: Inst::NOP,
            stage: Stage::Done,
            exec_done: 0,
            dest_new: None,
            dest_old: None,
            src: [None; 2],
            pred_next_pc: 0,
            actual_taken: None,
            actual_next_pc: 0,
            dir_snapshot: 0,
            ras_snapshot: Rc::clone(ras),
            branch_tag: 0,
            branch_offset: 0,
            addr: None,
            sq_pos: 0,
            l1_miss: false,
            l2_miss: false,
            tlb_miss: false,
            vpred: None,
            result: None,
            dispatch_cycle: 0,
        }
    }
}

/// Per-thread results exposed after simulation.
#[derive(Debug, Default, Clone)]
pub struct ThreadStats {
    /// Committed instruction count.
    pub committed: u64,
    /// Conditional branches committed.
    pub cond_branches: u64,
    /// L1D load misses observed at execute (committed loads only).
    pub l1d_load_misses: u64,
    /// Loads committed.
    pub loads: u64,
    /// Occupancy histogram of the fetch buffer (sampled every cycle).
    pub fetch_occupancy: Histogram,
    /// Histogram of instructions renamed per cycle (decode supply).
    pub renamed_per_cycle: Histogram,
    /// Histogram of instructions fetched per cycle (I-side supply).
    pub fetched_per_cycle: Histogram,
}

struct Thread {
    // Front end.
    fetch_pc: u64,
    fetch_stall_until: u64,
    /// Fetched, not yet renamed instructions, oldest first. The first
    /// `decoding` are the decode/rename pipeline registers: drained
    /// from the fetch buffer, they spend `frontend_depth` cycles there,
    /// modelling the 20-stage pipe without consuming fetch-buffer
    /// capacity. The rest are the fetch buffer. Draining moves the
    /// boundary, not the instruction.
    front_end: Ring<FetchedInst>,
    decoding: usize,
    btb: Btb,
    ras: Ras,
    /// `ras` as a shared snapshot, built on first use and dropped at
    /// every RAS change: all instructions fetched between two changes
    /// point at one copy instead of each carrying the whole stack.
    ras_snap: Option<Rc<RasState>>,
    // Value-reuse alignment: tag of the last fetched conditional branch
    // and the distance of the fetch cursor from it.
    last_branch_tag: u64,
    cursor_offset: u32,
    next_local_tag: u64,
    halted_fetch: bool,
    // Rename state.
    rat: [u16; Reg::COUNT],
    validated: [bool; Reg::COUNT],
    // Backend.
    /// Renamed, uncommitted instructions, positioned by sequence
    /// number: `rob.head()` is the oldest in flight and `rob.tail()` the
    /// number the next renamed instruction takes.
    rob: Ring<RobEntry>,
    store_queue: StoreQueue,
    /// Issued, unresolved instructions as `(seq, exec_done)`, in no
    /// particular order: writeback scans these instead of the ROB.
    executing: Vec<(u64, u64)>,
    /// Lower bound on the smallest `exec_done` in `executing`
    /// (`u64::MAX` when it is empty). Writeback skips the scan while it
    /// lies in the future; the scan leaves it exact.
    next_done: u64,

    // Architectural state.
    arch_regs: [u64; Reg::COUNT],
    arch_pc: u64,
    halted: bool,
    // Stats.
    stats: ThreadStats,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("fetch_pc", &self.fetch_pc)
            .field("committed", &self.stats.committed)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl Thread {
    /// Instructions in the fetch buffer.
    fn fetch_buffered(&self) -> usize {
        self.front_end.len() - self.decoding
    }

    /// The oldest instruction in the decode pipe.
    fn decode_head(&self) -> Option<&FetchedInst> {
        self.front_end.front().filter(|_| self.decoding > 0)
    }

    /// The ROB slot of a queued instruction.
    ///
    /// The IQ never holds an entry whose ROB slot is gone, nor one that
    /// has left `Stage::Dispatched`: rename enqueues an entry together
    /// with its `Dispatched` ROB slot (skip-validation entries, born
    /// `Done`, are never enqueued); issue dequeues it as it leaves
    /// `Dispatched`; commit retires only `Done` entries; a squash pops
    /// exactly the ROB entries younger than the squashing `seq` and
    /// drops the same ones from the IQ; a reboot drops all of a
    /// thread's entries from both. So readiness may be checked from the
    /// IQ copy before the ROB is consulted.
    fn queued(&self, q: &IqEntry) -> &RobEntry {
        debug_assert!(
            (self.rob.head()..self.rob.tail()).contains(&q.seq)
                && self.rob.at(q.seq).stage == Stage::Dispatched,
            "IQ entry (thread {}, seq {}) without a live dispatched ROB slot",
            q.thread,
            q.seq
        );
        self.rob.at(q.seq)
    }

    fn clear_front_end(&mut self) {
        self.front_end.clear();
        self.decoding = 0;
    }

    /// The current RAS state, shared with every other instruction
    /// fetched since the last RAS change.
    fn ras_snapshot(&mut self) -> Rc<RasState> {
        Rc::clone(
            self.ras_snap
                .get_or_insert_with(|| Rc::new(self.ras.snapshot())),
        )
    }

    fn ras_push(&mut self, addr: u64) {
        self.ras.push(addr);
        self.ras_snap = None;
    }

    fn ras_pop(&mut self) -> Option<u64> {
        self.ras_snap = None;
        self.ras.pop()
    }

    /// Restores the RAS to `snap`, which then is the current snapshot.
    fn ras_restore(&mut self, snap: Rc<RasState>) {
        self.ras.restore(*snap);
        self.ras_snap = Some(snap);
    }

    fn ras_reset(&mut self) {
        self.ras = Ras::new();
        self.ras_snap = None;
    }
}

/// Functional-unit occupancy: per-cycle issue counts per class, and the
/// cycle each unpipelined divider frees.
struct FuPool {
    int_busy_until: Vec<u64>,
    fp_busy_until: Vec<u64>,
    mem_used: usize,
    int_used: usize,
    fp_used: usize,
}

impl FuPool {
    fn new(cfg: &CoreConfig) -> Self {
        Self {
            int_busy_until: vec![0; cfg.int_units],
            fp_busy_until: vec![0; cfg.fp_units],
            mem_used: 0,
            int_used: 0,
            fp_used: 0,
        }
    }

    fn new_cycle(&mut self) {
        self.mem_used = 0;
        self.int_used = 0;
        self.fp_used = 0;
    }

    fn available(&self, cfg: &CoreConfig, class: FuClass, cycle: u64) -> bool {
        match class {
            FuClass::IntAlu | FuClass::Branch | FuClass::IntMul => self.int_used < cfg.int_units,
            FuClass::IntDiv => {
                self.int_used < cfg.int_units && self.int_busy_until.iter().any(|&b| b <= cycle)
            }
            FuClass::Mem => self.mem_used < cfg.mem_units,
            FuClass::Fp => self.fp_used < cfg.fp_units,
            FuClass::FpDiv => {
                self.fp_used < cfg.fp_units && self.fp_busy_until.iter().any(|&b| b <= cycle)
            }
        }
    }

    fn consume(&mut self, class: FuClass, cycle: u64, done: u64) {
        match class {
            FuClass::IntAlu | FuClass::Branch | FuClass::IntMul => self.int_used += 1,
            FuClass::IntDiv => {
                self.int_used += 1;
                if let Some(b) = self.int_busy_until.iter_mut().find(|b| **b <= cycle) {
                    *b = done;
                }
            }
            FuClass::Mem => self.mem_used += 1,
            FuClass::Fp => self.fp_used += 1,
            FuClass::FpDiv => {
                self.fp_used += 1;
                if let Some(b) = self.fp_busy_until.iter_mut().find(|b| **b <= cycle) {
                    *b = done;
                }
            }
        }
    }
}

/// A cycle-stepped out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    program: Arc<Program>,
    mem: CoreMem,
    threads: Vec<Thread>,
    prf: Prf,
    iq: Vec<IqEntry>,
    cycle: u64,
    fus: FuPool,
    /// Activity counters (consumed by the energy model).
    pub counters: ActivityCounters,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core running `program` against the given private
    /// hierarchy. Threads are added with [`Core::add_thread`].
    pub fn new(cfg: CoreConfig, program: Arc<Program>, mem: CoreMem) -> Self {
        let prf = Prf::new(cfg.prf_size, 0);
        Self {
            fus: FuPool::new(&cfg),
            cfg,
            program,
            mem,
            threads: Vec::new(),
            prf,
            iq: Vec::new(),
            cycle: 0,
            counters: ActivityCounters::default(),
        }
    }

    /// Adds a hardware thread starting at `entry` with architectural
    /// registers `regs`. Returns the thread id: the index of its hooks in
    /// the slice every [`step`](Core::step) takes.
    ///
    /// # Panics
    ///
    /// Panics if the PRF cannot seat another thread's architectural state.
    pub fn add_thread(&mut self, entry: u64, regs: [u64; Reg::COUNT]) -> usize {
        let mut rat = [0u16; Reg::COUNT];
        for (i, r) in rat.iter_mut().enumerate() {
            let p = self.prf.alloc().expect("PRF too small for thread state");
            self.prf.init(p, regs[i]);
            *r = p;
        }
        let ras = Rc::new(Ras::new().snapshot());
        self.threads.push(Thread {
            fetch_pc: entry,
            fetch_stall_until: 0,
            front_end: Ring::new(
                self.cfg.fetch_buffer + self.decode_pipe_cap(),
                FetchedInst::vacant(&ras),
            ),
            decoding: 0,
            btb: Btb::new(BtbConfig::paper()),
            ras: Ras::new(),
            ras_snap: None,
            last_branch_tag: 0,
            cursor_offset: 0,
            next_local_tag: 1,
            halted_fetch: false,
            rat,
            validated: [false; Reg::COUNT],
            rob: Ring::new(self.cfg.rob_size, RobEntry::vacant(&ras)),
            store_queue: StoreQueue::new(self.cfg.lsq_size),
            executing: Vec::new(),
            next_done: u64::MAX,
            arch_regs: regs,
            arch_pc: entry,
            halted: false,
            stats: ThreadStats::default(),
        });
        self.threads.len() - 1
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Whether every thread has committed a halt.
    pub fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Whether thread `t` has halted.
    pub fn thread_halted(&self, t: usize) -> bool {
        self.threads[t].halted
    }

    /// Per-thread statistics.
    pub fn thread_stats(&self, t: usize) -> &ThreadStats {
        &self.threads[t].stats
    }

    /// Architectural (committed) register state of a thread — the source
    /// for DLA reboot copies.
    pub fn arch_regs(&self, t: usize) -> [u64; Reg::COUNT] {
        self.threads[t].arch_regs
    }

    /// Architectural next PC of a thread.
    pub fn arch_pc(&self, t: usize) -> u64 {
        self.threads[t].arch_pc
    }

    /// Committed instruction count of a thread.
    pub fn committed(&self, t: usize) -> u64 {
        self.threads[t].stats.committed
    }

    /// Number of in-flight (renamed, uncommitted) instructions in a
    /// thread's ROB.
    pub fn in_flight(&self, t: usize) -> usize {
        self.threads[t].rob.len()
    }

    /// Access to the private memory hierarchy.
    pub fn mem(&self) -> &CoreMem {
        &self.mem
    }

    /// Mutable access to the private memory hierarchy (prefetch hints).
    pub fn mem_mut(&mut self) -> &mut CoreMem {
        &mut self.mem
    }

    /// Fully flushes a thread's pipeline and restarts it at `pc` with the
    /// supplied architectural registers — the DLA reboot operation. The
    /// register-copy delay is charged by stalling fetch for `stall`
    /// cycles (64 in the paper).
    pub fn reboot_thread(&mut self, thread: usize, pc: u64, regs: [u64; Reg::COUNT], stall: u64) {
        self.squash_all(thread);
        let t = &mut self.threads[thread];
        t.arch_regs = regs;
        t.arch_pc = pc;
        t.fetch_pc = pc;
        t.fetch_stall_until = self.cycle + stall;
        t.halted = false;
        t.halted_fetch = false;
        t.last_branch_tag = 0;
        t.cursor_offset = 0;
        t.validated = [false; Reg::COUNT];
        for (i, &p) in t.rat.iter().enumerate() {
            self.prf.init(p, regs[i]);
        }
    }

    /// Advances the whole core by one cycle. `hooks` holds one entry per
    /// thread, indexed by thread id.
    pub fn step<H: ThreadHooks>(&mut self, hooks: &mut [H]) {
        debug_assert_eq!(
            hooks.len(),
            self.threads.len(),
            "one hooks value per thread"
        );
        self.counters.cycles.inc();
        self.fus.new_cycle();
        self.stage_commit(hooks);
        self.stage_writeback(hooks);
        self.stage_issue(hooks);
        self.stage_rename(hooks);
        self.stage_fetch(hooks);
        for t in &mut self.threads {
            t.stats.fetch_occupancy.record(t.fetch_buffered() as u64);
        }
        self.cycle += 1;
    }

    /// Runs until all threads halt or `max_cycles` elapse; returns cycles
    /// executed. Quiescent stretches are fast-forwarded through
    /// [`Core::next_event_at`] / [`Core::skip_to`]; the result is
    /// identical to stepping every cycle.
    pub fn run<H: ThreadHooks>(&mut self, hooks: &mut [H], max_cycles: u64) -> u64 {
        let start = self.cycle;
        let mut last_probe = u64::MAX;
        while !self.halted() && self.cycle - start < max_cycles {
            self.step_or_skip(hooks, start.saturating_add(max_cycles), &mut last_probe);
        }
        self.cycle - start
    }

    /// One fast-path iteration of a single-core run loop: fast-forwards
    /// to the next event when the previous iteration already looked idle
    /// (and quiescence proves out), else steps one cycle. `cap` bounds
    /// the skip target; `last_probe` carries the idleness gate across
    /// calls (seed it with `u64::MAX`). Returns the new cycle: after a
    /// skip, the wakeup [`next_event_at`](Core::next_event_at) reported
    /// (capped at `cap`); after a step, the very next cycle. Shared by
    /// [`Core::run`], the single-core simulators and the profiler so the
    /// gate logic cannot drift between them.
    pub fn step_or_skip<H: ThreadHooks>(
        &mut self,
        hooks: &mut [H],
        cap: u64,
        last_probe: &mut u64,
    ) -> u64 {
        // Only pay for the quiescence proof when the previous cycle
        // already looked idle.
        let probe = self.activity_probe();
        if probe == *last_probe {
            if let Some(wake) = self.next_event_at(hooks) {
                self.skip_to(wake.min(cap));
                return self.cycle;
            }
        }
        *last_probe = probe;
        self.step(hooks);
        self.cycle
    }

    // ------------------------------------------------------------------
    // Event-driven fast path
    // ------------------------------------------------------------------

    /// A cheap monotone activity signature: unchanged across a cycle
    /// means that cycle (very likely) did no observable work, so a run
    /// loop should bother asking [`Core::next_event_at`]. It may miss
    /// rare progress kinds (a writeback with nothing else, a
    /// drain-only cycle) — that only costs one wasted query, never
    /// correctness, because `next_event_at` re-proves quiescence itself.
    pub fn activity_probe(&self) -> u64 {
        let c = &self.counters;
        c.fetched.get()
            + c.mask_deleted.get()
            + c.icache_lines.get()
            + c.decoded.get()
            + c.executed.get()
            + c.committed.get()
            + c.squashed.get()
    }

    /// Earliest-activity query for the event-driven fast path.
    ///
    /// Returns `None` when the core may change state at the *current*
    /// cycle — the caller must [`step`](Core::step). Returns `Some(wake)`
    /// with `wake > cycle()` when the core is provably quiescent until
    /// `wake`: every cycle before it would only advance clocks and record
    /// per-cycle occupancy samples, which [`Core::skip_to`] replays in
    /// bulk. The bound aggregates, per thread, the fetch-stall expiry,
    /// the decode-pipe head's ready cycle, the commit head's completion,
    /// every executing instruction's `exec_done`, and each issue-queue
    /// entry's earliest source-ready cycle (for loads, also the earliest
    /// resolve of a blocking older store).
    ///
    /// `wake` is a lower bound, not a prediction: waking early merely
    /// re-asks the question next cycle; waking late can never happen. A
    /// direction-starved thread (BOQ-fed fetch at a conditional branch
    /// with an empty queue) is quiescent with no intrinsic wake — only a
    /// sibling core can refill its queue, so the system-level scheduler
    /// combines both cores' bounds.
    pub fn next_event_at<H: ThreadHooks>(&self, hooks: &[H]) -> Option<u64> {
        let now = self.cycle;
        let mut wake = u64::MAX;
        let pipe_cap = self.decode_pipe_cap();
        for (t, h) in self.threads.iter().zip(hooks) {
            // Fetch buffer → decode pipe drain possible this cycle?
            if t.fetch_buffered() > 0 && t.decoding < pipe_cap {
                return None;
            }
            // Rename.
            if let Some(f) = t.decode_head() {
                if f.decode_ready > now {
                    wake = wake.min(f.decode_ready);
                } else if self.iq.len() < self.cfg.iq_size
                    && self.prf.available() > 0
                    && t.rob.len() < self.cfg.rob_size
                    && !(f.inst.is_store() && t.store_queue.len() >= self.cfg.lsq_size)
                {
                    return None; // rename absorbs it this cycle
                }
                // Otherwise blocked on backend capacity, which frees only
                // at an issue or commit event — both accounted for below.
            }
            // Fetch.
            if !t.halted && !t.halted_fetch {
                if t.fetch_stall_until > now {
                    wake = wake.min(t.fetch_stall_until);
                } else if t.fetch_buffered() < self.cfg.fetch_buffer {
                    match self.program.fetch(t.fetch_pc) {
                        // Direction-starved: quiescent with no intrinsic
                        // wake (see above).
                        Some(inst) if inst.is_cond_branch() && !h.available() => {}
                        // Anything else fetches — or mutates cache and
                        // front-end state trying to.
                        _ => return None,
                    }
                }
                // A full fetch buffer only records the per-cycle
                // zero-fetch sample, replayed by `skip_to`.
            }
            // Commit: a completed head retires at its exec_done.
            if let Some(head) = t.rob.front() {
                if head.stage == Stage::Done {
                    if head.exec_done <= now {
                        return None;
                    }
                    wake = wake.min(head.exec_done);
                }
            }
            // Writeback: issued, unresolved entries complete at exec_done.
            // Between steps the bound is exact (see `stage_writeback`).
            if t.next_done <= now {
                return None;
            }
            wake = wake.min(t.next_done);
        }
        // Issue: earliest cycle any queued entry could become ready.
        for q in &self.iq {
            let mut ready = Self::ready_bound(&self.prf, q.dispatch_cycle, &q.src);
            // A load also waits for older stores with unresolved
            // addresses. Skeleton-filtered threads may issue some loads
            // as prefetch payloads that bypass that check, so the
            // refinement applies only to unfiltered threads (for the
            // others the plain source bound is already a valid floor).
            let t = &self.threads[q.thread];
            if t.queued(q).inst.is_load() && !hooks[q.thread].filtered() {
                ready = ready.max(Self::load_block_bound(&self.prf, t, q.seq));
            }
            if ready <= now {
                return None;
            }
            wake = wake.min(ready);
        }
        Some(wake)
    }

    /// Lower bound on the cycle at which an instruction dispatched at
    /// `dispatch_cycle` with sources `src` could issue: past its dispatch
    /// cycle with every present source readable.
    fn ready_bound(prf: &Prf, dispatch_cycle: u64, src: &[Option<u16>; 2]) -> u64 {
        let mut ready = dispatch_cycle + 1;
        for p in src.iter().flatten() {
            ready = ready.max(prf.ready_at(*p));
        }
        ready
    }

    /// Lower bound on the cycle at which the oldest address-unresolved
    /// store blocking loads at `seq` could resolve (0 when none blocks).
    fn load_block_bound(prf: &Prf, t: &Thread, seq: u64) -> u64 {
        match t.store_queue.oldest_unresolved() {
            Some(s) if s.seq < seq => {
                // The store resolves its address no earlier than it can
                // issue.
                let se = t.rob.at(s.seq);
                Self::ready_bound(prf, se.dispatch_cycle, &se.src)
            }
            _ => 0,
        }
    }

    /// Bulk-advances a quiescent core to `target`, replaying exactly the
    /// per-cycle effects that idle stepping would have produced: the
    /// cycle counter, the fetch-bubble accounting, and the per-thread
    /// occupancy/zero-throughput samples.
    ///
    /// The caller must have proven quiescence with
    /// [`Core::next_event_at`] and must not pass a `target` beyond the
    /// returned wake cycle; the two together keep counters and state
    /// byte-identical to the cycle-by-cycle path.
    pub fn skip_to(&mut self, target: u64) {
        let n = target.saturating_sub(self.cycle);
        if n == 0 {
            return;
        }
        self.counters.cycles.add(n);
        if self.cfg.decode_width > 0
            && self.backend_has_room()
            && self.threads.iter().any(|t| !t.halted)
        {
            self.counters
                .fetch_bubble_insts
                .add(n * self.cfg.decode_width as u64);
        }
        let now = self.cycle;
        let fetch_cap = self.cfg.fetch_buffer;
        for t in &mut self.threads {
            t.stats
                .fetch_occupancy
                .record_n(t.fetch_buffered() as u64, n);
            t.stats.renamed_per_cycle.record_n(0, n);
            // Only a buffer-full thread reaches its per-cycle zero-fetch
            // sample; stalled, starved or halted threads return before
            // recording.
            if !t.halted
                && !t.halted_fetch
                && t.fetch_stall_until <= now
                && t.fetch_buffered() >= fetch_cap
            {
                t.stats.fetched_per_cycle.record_n(0, n);
            }
        }
        self.fus.new_cycle();
        self.cycle = target;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn stage_commit<H: ThreadHooks>(&mut self, hooks: &mut [H]) {
        let nthreads = self.threads.len();
        if nthreads == 0 {
            return;
        }
        let mut budget = self.cfg.commit_width;
        for k in 0..nthreads {
            let tid = (self.cycle as usize + k) % nthreads;
            while budget > 0 {
                if !self.commit_one(tid, &mut hooks[tid]) {
                    break;
                }
                budget -= 1;
            }
        }
    }

    fn commit_one<H: ThreadHooks>(&mut self, tid: usize, h: &mut H) -> bool {
        let cycle = self.cycle;
        let Core {
            threads,
            prf,
            mem,
            counters,
            ..
        } = self;
        let t = &mut threads[tid];
        let seq = t.rob.head();
        let Some(e) = t.rob.front() else {
            return false;
        };
        if e.stage != Stage::Done || e.exec_done > cycle {
            return false;
        }
        if let Some(rd) = e.inst.def() {
            if let Some(old) = e.dest_old {
                prf.free(old);
            }
            if let Some(v) = e.result {
                t.arch_regs[rd.index()] = v;
            }
        }
        t.arch_pc = e.actual_next_pc;
        if e.inst.is_store() {
            let s = t.store_queue.front().expect("a store in flight");
            debug_assert_eq!(s.seq, seq, "store queue out of step with the ROB");
            if let Some(addr) = s.addr {
                h.store(addr, s.data);
                mem.store(addr, e.pc, cycle);
            }
            t.store_queue.pop_front();
        }
        if e.inst.op == Op::Halt {
            t.halted = true;
        }
        t.stats.committed += 1;
        if e.inst.is_cond_branch() {
            t.stats.cond_branches += 1;
        }
        if e.inst.is_load() {
            t.stats.loads += 1;
            if e.l1_miss {
                t.stats.l1d_load_misses += 1;
            }
        }
        counters.committed.inc();
        // The hooks cannot reach the core, so the ROB slot may be read
        // while they run and retired after.
        h.on_commit(&CommitRecord {
            thread: tid,
            seq,
            inst: e.inst,
            pc: e.pc,
            cycle,
            next_pc: e.actual_next_pc,
            taken: e.actual_taken,
            value: e.result,
            mem_addr: e.addr,
            l1_miss: e.l1_miss,
            l2_miss: e.l2_miss,
            tlb_miss: e.tlb_miss,
            dispatch_to_exec: e.exec_done.saturating_sub(e.dispatch_cycle),
        });
        t.rob.pop_front();
        true
    }

    // ------------------------------------------------------------------
    // Writeback / branch resolution / value validation
    // ------------------------------------------------------------------

    fn stage_writeback<H: ThreadHooks>(&mut self, hooks: &mut [H]) {
        let cycle = self.cycle;
        for (tid, h) in hooks.iter_mut().enumerate() {
            if self.threads[tid].next_done > cycle {
                continue;
            }
            // Completes every due instruction, oldest first. A squash
            // drops the younger ones from `executing`, so the loop ends
            // there, exactly where an in-order walk of the ROB would.
            // The last scan finds nothing due, so the earliest pending
            // completion it sees is the exact new bound.
            loop {
                let t = &mut self.threads[tid];
                match Self::oldest_due(&t.executing, cycle) {
                    Ok(pos) => {
                        let (seq, _) = t.executing.swap_remove(pos);
                        self.resolve_entry(tid, seq, h);
                    }
                    Err(next_done) => {
                        t.next_done = next_done;
                        break;
                    }
                }
            }
        }
    }

    /// Position in `executing` of the oldest instruction whose result is
    /// due by `cycle`; when none is due, the earliest `exec_done`
    /// (`u64::MAX` for an empty list).
    fn oldest_due(executing: &[(u64, u64)], cycle: u64) -> Result<usize, u64> {
        let mut oldest: Option<(usize, u64)> = None;
        let mut earliest = u64::MAX;
        for (pos, &(seq, done)) in executing.iter().enumerate() {
            earliest = earliest.min(done);
            if done <= cycle && oldest.is_none_or(|(_, s)| seq < s) {
                oldest = Some((pos, seq));
            }
        }
        oldest.map(|(pos, _)| pos).ok_or(earliest)
    }

    /// Completes one instruction, squashing younger ones on a value or
    /// branch mispredict.
    fn resolve_entry<H: ThreadHooks>(&mut self, tid: usize, seq: u64, h: &mut H) {
        let t = &mut self.threads[tid];
        let en = t.rob.at_mut(seq);
        en.stage = Stage::Done;
        let (inst, pc, vpred, result) = (en.inst, en.pc, en.vpred, en.result);
        let (taken, actual_next, pred_next) = (en.actual_taken, en.actual_next_pc, en.pred_next_pc);
        // Value-prediction validation.
        if let Some(pred) = vpred {
            self.counters.value_validations.inc();
            let correct = result.unwrap_or(0) == pred;
            h.value_outcome(pc, correct);
            if !correct {
                self.counters.value_mispredicts.inc();
                // Replay: squash younger instructions (which consumed the
                // bad value) and refetch after this instruction. The
                // instruction itself keeps its correct result.
                self.squash_younger(tid, seq, h);
                return;
            }
        }
        // Branch resolution.
        if inst.is_branch() {
            let mispredicted = actual_next != pred_next;
            if inst.is_cond_branch() {
                h.resolve(pc, taken.unwrap_or(false), mispredicted);
            }
            if taken.unwrap_or(true) {
                t.btb.update(pc, actual_next);
            }
            if mispredicted {
                self.counters.branch_mispredicts.inc();
                self.squash_younger(tid, seq, h);
            }
        }
    }

    /// Undoes the rename of the ROB entry at `seq`, which is being
    /// squashed.
    fn unrename(t: &mut Thread, prf: &mut Prf, seq: u64) {
        let e = t.rob.at(seq);
        if let Some(rd) = e.inst.def() {
            if let (Some(new), Some(old)) = (e.dest_new, e.dest_old) {
                t.rat[rd.index()] = old;
                prf.free(new);
            }
        }
    }

    /// Squashes all entries younger than `seq` and redirects fetch after
    /// the squashing entry, which stays in the ROB.
    fn squash_younger<H: ThreadHooks>(&mut self, tid: usize, seq: u64, h: &mut H) {
        let cycle = self.cycle;
        let Core {
            threads,
            prf,
            iq,
            counters,
            ..
        } = self;
        let t = &mut threads[tid];
        while t.rob.tail() > seq + 1 {
            let victim = t.rob.tail() - 1;
            Self::unrename(t, prf, victim);
            if t.rob.at(victim).inst.is_store() {
                debug_assert_eq!(t.store_queue.back().map(|s| s.seq), Some(victim));
                t.store_queue.pop_back();
            }
            t.rob.pop_back();
            counters.squashed.inc();
        }
        let e = t.rob.back().expect("the squashing entry stays");
        let (inst, pc, next_pc, taken) = (e.inst, e.pc, e.actual_next_pc, e.actual_taken);
        let (dir_snapshot, branch_tag, branch_offset) =
            (e.dir_snapshot, e.branch_tag, e.branch_offset);
        let ras_snapshot = Rc::clone(&e.ras_snapshot);
        t.executing.retain(|&(s, _)| s <= seq);
        t.clear_front_end();
        t.validated = [false; Reg::COUNT];
        // Redirect fetch down the architecturally correct path.
        t.fetch_pc = next_pc;
        t.fetch_stall_until = cycle + 1;
        t.halted_fetch = false;
        // Repair speculative front-end state to just-after the
        // squashing entry.
        h.restore(dir_snapshot, taken);
        t.ras_restore(ras_snapshot);
        if matches!(
            inst.branch_kind(),
            Some(BranchKind::Call | BranchKind::IndCall)
        ) {
            t.ras_push(pc + INST_BYTES);
        }
        // Restore the value-reuse alignment cursor.
        t.last_branch_tag = branch_tag;
        t.cursor_offset = if inst.is_cond_branch() {
            0
        } else {
            branch_offset
        };
        t.next_local_tag = branch_tag + 1;
        iq.retain(|q| q.thread != tid || q.seq <= seq);
    }

    /// Squashes the entire pipeline state of a thread (reboot). Sequence
    /// numbers continue from where the squashed ones ended.
    fn squash_all(&mut self, tid: usize) {
        let t = &mut self.threads[tid];
        for victim in (t.rob.head()..t.rob.tail()).rev() {
            Self::unrename(t, &mut self.prf, victim);
            self.counters.squashed.inc();
        }
        t.rob.clear();
        t.store_queue.clear();
        t.clear_front_end();
        t.ras_reset();
        t.executing.clear();
        t.next_done = u64::MAX;
        t.validated = [false; Reg::COUNT];
        t.next_local_tag = 1;
        self.iq.retain(|q| q.thread != tid);
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn stage_issue<H: ThreadHooks>(&mut self, hooks: &mut [H]) {
        // Single age-ordered pass with in-place compaction: issued
        // entries are dropped by not copying them forward, so one cycle
        // costs O(iq) instead of O(iq²) `Vec::remove` shifts. Entries
        // past the issue-width cutoff are copied through untouched,
        // exactly as the shifting loop left them.
        let mut issued = 0usize;
        let mut kept = 0usize;
        for i in 0..self.iq.len() {
            let q = self.iq[i];
            if issued < self.cfg.issue_width && self.try_issue(q, &mut hooks[q.thread]) {
                issued += 1;
                continue;
            }
            if kept != i {
                self.iq[kept] = q;
            }
            kept += 1;
        }
        self.iq.truncate(kept);
    }

    /// Issues a queued instruction if it can go this cycle; returns
    /// whether it did.
    fn try_issue<H: ThreadHooks>(&mut self, q: IqEntry, h: &mut H) -> bool {
        let cycle = self.cycle;
        let Core {
            cfg,
            mem,
            threads,
            prf,
            fus,
            counters,
            ..
        } = self;
        let ready = |src: Option<u16>| src.is_none_or(|p| prf.is_ready(p, cycle));
        if q.dispatch_cycle >= cycle || !ready(q.src[0]) || !ready(q.src[1]) {
            return false;
        }
        let t = &mut threads[q.thread];
        let e = t.queued(&q);
        let (inst, pc, dest_new, vpred, sq_pos) = (e.inst, e.pc, e.dest_new, e.vpred, e.sq_pos);
        let class = inst.fu_class();
        if !fus.available(cfg, class, cycle) {
            return false;
        }
        let prefetch_only = inst.is_load() && h.prefetch_only(pc);
        if inst.is_load() && !prefetch_only && !t.store_queue.load_may_issue(q.seq) {
            return false; // an older store's address is unresolved
        }
        let a = q.src[0].map(|p| prf.read(p)).unwrap_or(0);
        let b = q.src[1].map(|p| prf.read(p)).unwrap_or(0);
        counters
            .rf_reads
            .add(u64::from(q.src[0].is_some()) + u64::from(q.src[1].is_some()));
        counters.executed.inc();
        let seq_pc = pc + INST_BYTES;
        let mut result: Option<u64> = None;
        let mut actual_taken: Option<bool> = None;
        let mut actual_next = seq_pc;
        let mut exec_done = cycle + inst.latency();
        let mut addr = None;
        let mut flags = (false, false, false);
        match inst.op {
            Op::Ld => {
                let a_addr = mem_addr(&inst, a);
                addr = Some(a_addr);
                // Forward from the youngest older store to the address,
                // else access the data cache.
                let (ready, value) = match t.store_queue.forward(q.seq, a_addr) {
                    Some(v) => (cycle + 2, v),
                    None => {
                        let value = h.load(a_addr);
                        let out = mem.load(a_addr, pc, cycle);
                        flags = (!out.l1_hit, !out.l2_hit, out.tlb_penalty > 0);
                        (out.ready.max(cycle + 1), value)
                    }
                };
                // Prefetch payloads (skeleton loads with dead results)
                // touch the memory system but never stall the pipeline.
                exec_done = if prefetch_only { cycle + 3 } else { ready };
                result = Some(value);
            }
            Op::St => {
                let a_addr = mem_addr(&inst, a);
                addr = Some(a_addr);
                t.store_queue.resolve(sq_pos, a_addr, b);
                exec_done = cycle + 1;
            }
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                let taken = h.force(pc).unwrap_or_else(|| eval_cond(inst.op, a, b));
                actual_taken = Some(taken);
                actual_next = if taken { inst.imm as u64 } else { seq_pc };
            }
            Op::Jal => {
                actual_next = inst.imm as u64;
                if inst.def().is_some() {
                    result = Some(seq_pc);
                }
            }
            Op::Jalr => {
                actual_next = a.wrapping_add(inst.imm as u64) & !3;
                if inst.def().is_some() {
                    result = Some(seq_pc);
                }
            }
            Op::Nop | Op::Halt => {}
            _ => {
                result = Some(eval_alu(inst.op, a, b, inst.imm));
            }
        }
        if inst.is_load() {
            counters.loads.inc();
        } else if inst.is_store() {
            counters.stores.inc();
        }
        fus.consume(class, cycle, exec_done);
        // Write the PRF early; readiness gates visibility. For correctly
        // value-predicted instructions, keep the early availability the
        // prediction established (same value, earlier ready).
        if let (Some(p), Some(v)) = (dest_new, result) {
            match vpred {
                Some(pv) if pv == v => {} // prediction already in place
                _ => {
                    prf.write(p, v, exec_done);
                    counters.rf_writes.inc();
                }
            }
        }
        t.executing.push((q.seq, exec_done));
        t.next_done = t.next_done.min(exec_done);
        let en = t.rob.at_mut(q.seq);
        en.stage = Stage::Issued;
        en.exec_done = exec_done;
        en.result = result;
        en.actual_taken = actual_taken;
        en.actual_next_pc = actual_next;
        en.addr = addr;
        en.l1_miss = flags.0;
        en.l2_miss = flags.1;
        en.tlb_miss = flags.2;
        true
    }

    // ------------------------------------------------------------------
    // Rename / dispatch
    // ------------------------------------------------------------------

    fn stage_rename<H: ThreadHooks>(&mut self, hooks: &mut [H]) {
        let nthreads = self.threads.len();
        if nthreads == 0 {
            return;
        }
        // Drain the fetch buffer into the decode pipe (the decode stage
        // proper), which imposes the front-end depth without consuming
        // fetch-buffer capacity.
        let cycle = self.cycle;
        let pipe_cap = self.decode_pipe_cap();
        let mut drain_budget = self.cfg.decode_width;
        for k in 0..nthreads {
            let tid = (cycle as usize + k) % nthreads;
            let depth = self.cfg.frontend_depth;
            let t = &mut self.threads[tid];
            while drain_budget > 0 && t.decoding < pipe_cap && t.fetch_buffered() > 0 {
                let pos = t.front_end.head() + t.decoding as u64;
                t.front_end.at_mut(pos).decode_ready = cycle + depth;
                t.decoding += 1;
                drain_budget -= 1;
            }
        }
        // Shared backend capacity is computed once per cycle and tracked
        // as the loop consumes it, instead of re-derived per renamed
        // instruction.
        let mut budget = self.cfg.decode_width;
        let mut iq_free = self.cfg.iq_size.saturating_sub(self.iq.len());
        let mut prf_free = self.prf.available();
        let mut absorbed = 0u64;
        for k in 0..nthreads {
            let tid = (self.cycle as usize + k) % nthreads;
            let mut renamed = 0u64;
            while budget > 0 && self.rename_one(tid, &mut hooks[tid], &mut iq_free, &mut prf_free) {
                budget -= 1;
                renamed += 1;
            }
            self.threads[tid].stats.renamed_per_cycle.record(renamed);
            absorbed += renamed;
        }
        if budget > 0 && self.backend_has_room() && self.threads.iter().any(|t| !t.halted) {
            self.counters.fetch_bubble_insts.add(budget as u64);
        }
        self.counters.decoded.add(absorbed);
    }

    /// Capacity of a thread's decode pipe.
    fn decode_pipe_cap(&self) -> usize {
        self.cfg.decode_width * self.cfg.frontend_depth as usize + 1
    }

    fn backend_has_room(&self) -> bool {
        self.threads.iter().any(|t| t.rob.len() < self.cfg.rob_size)
            && self.iq.len() < self.cfg.iq_size
    }

    /// Renames the decode pipe's head into a ROB slot, filled in place.
    fn rename_one<H: ThreadHooks>(
        &mut self,
        tid: usize,
        h: &mut H,
        iq_free: &mut usize,
        prf_free: &mut usize,
    ) -> bool {
        let cycle = self.cycle;
        if *iq_free == 0 || *prf_free == 0 {
            return false;
        }
        let Core {
            cfg,
            threads,
            prf,
            iq,
            counters,
            ..
        } = self;
        let t = &mut threads[tid];
        if t.rob.len() >= cfg.rob_size {
            return false;
        }
        let Some(f) = t.decode_head() else {
            return false;
        };
        if f.decode_ready > cycle {
            return false;
        }
        if f.inst.is_store() && t.store_queue.len() >= cfg.lsq_size {
            return false;
        }
        let (pc, inst) = (f.pc, f.inst);
        // Value-prediction lookup (main-thread value reuse).
        let vpred = h.predict_value(pc, f.branch_tag, f.branch_offset);
        let seq = t.rob.tail();
        let uses = inst.uses();
        let src = [
            uses[0].map(|r| t.rat[r.index()]),
            uses[1].map(|r| t.rat[r.index()]),
        ];
        let (dest_new, dest_old) = match inst.def() {
            Some(rd) => {
                let p = prf.alloc().expect("availability checked");
                *prf_free -= 1;
                let old = t.rat[rd.index()];
                t.rat[rd.index()] = p;
                (Some(p), Some(old))
            }
            None => (None, None),
        };
        // Validation-skip scoreboard (paper Fig 4): an ALU instruction
        // whose sources are all validated-predicted values and which
        // itself has a value prediction need not execute for validation.
        let mut skip_validation = false;
        if let Some(v) = vpred {
            counters.value_predictions.inc();
            let alu_like = !inst.is_mem() && !inst.is_branch();
            let n_sources = uses.iter().flatten().count();
            let all_sources_validated = uses.iter().flatten().all(|r| t.validated[r.index()]);
            if alu_like && n_sources > 0 && all_sources_validated {
                skip_validation = true;
                counters.value_validation_skips.inc();
            }
            if let Some(p) = dest_new {
                prf.write(p, v, cycle + 1);
                counters.rf_writes.inc();
            }
        }
        if let Some(rd) = inst.def() {
            t.validated[rd.index()] = vpred.is_some();
        }
        let sq_pos = if inst.is_store() {
            t.store_queue.push(seq)
        } else {
            0
        };
        // Every field is written: the slot still holds a retired entry.
        let f = t.front_end.at_mut(t.front_end.head());
        let RobEntry {
            pc: e_pc,
            inst: e_inst,
            stage,
            exec_done,
            dest_new: e_dest_new,
            dest_old: e_dest_old,
            src: e_src,
            pred_next_pc,
            actual_taken,
            actual_next_pc,
            dir_snapshot,
            ras_snapshot,
            branch_tag,
            branch_offset,
            addr,
            sq_pos: e_sq_pos,
            l1_miss,
            l2_miss,
            tlb_miss,
            vpred: e_vpred,
            result,
            dispatch_cycle,
        } = t.rob.push_back();
        *e_pc = pc;
        *e_inst = inst;
        *stage = if skip_validation {
            Stage::Done
        } else {
            Stage::Dispatched
        };
        *exec_done = if skip_validation { cycle + 1 } else { u64::MAX };
        *e_dest_new = dest_new;
        *e_dest_old = dest_old;
        *e_src = src;
        *pred_next_pc = f.pred_next_pc;
        *actual_taken = None;
        *actual_next_pc = pc + INST_BYTES;
        *dir_snapshot = f.dir_snapshot;
        // Hand the snapshot over without touching its count; the stale
        // one left in the front-end slot is dropped when fetch reuses it.
        std::mem::swap(ras_snapshot, &mut f.ras_snapshot);
        *branch_tag = f.branch_tag;
        *branch_offset = f.branch_offset;
        *addr = None;
        *e_sq_pos = sq_pos;
        *l1_miss = false;
        *l2_miss = false;
        *tlb_miss = false;
        *e_vpred = if skip_validation { None } else { vpred };
        *result = vpred;
        *dispatch_cycle = cycle;
        t.front_end.pop_front();
        t.decoding -= 1;
        counters.rob_writes.inc();
        if !skip_validation {
            iq.push(IqEntry {
                thread: tid,
                seq,
                src,
                dispatch_cycle: cycle,
            });
            *iq_free -= 1;
            counters.iq_writes.inc();
        }
        true
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn stage_fetch<H: ThreadHooks>(&mut self, hooks: &mut [H]) {
        for (tid, h) in hooks.iter_mut().enumerate() {
            self.fetch_thread(tid, h);
        }
    }

    fn fetch_thread<H: ThreadHooks>(&mut self, tid: usize, h: &mut H) {
        let cycle = self.cycle;
        let Core {
            cfg,
            program,
            mem,
            threads,
            counters,
            ..
        } = self;
        let t = &mut threads[tid];
        if t.halted || t.halted_fetch || t.fetch_stall_until > cycle {
            return;
        }
        let mut pushed = 0usize;
        let mut slots = 0usize;
        let max_slots = cfg.fetch_width * 2;
        let mut current_line = u64::MAX;
        while pushed < cfg.fetch_width && slots < max_slots {
            if t.fetch_buffered() >= cfg.fetch_buffer {
                break;
            }
            let pc = t.fetch_pc;
            // Decoded once here; consumed after the icache probe below.
            let fetched = program.fetch(pc);
            // Direction starvation (a BOQ-fed thread with an empty BOQ at
            // a conditional branch) stalls fetch before any cache or
            // predictor state is touched: the stalled cycles are then
            // perfectly quiescent, which is what lets `next_event_at`
            // prove the thread skippable while it waits for the queue.
            if let Some(inst) = &fetched {
                if inst.is_cond_branch() && !h.available() {
                    return;
                }
            }
            let line = pc & !63;
            if line != current_line {
                let (ready, hit) = mem.inst_fetch(pc, cycle);
                counters.icache_lines.inc();
                if cfg.fetch_masks && !hit {
                    // Skeleton masks (2 bits/inst) live elsewhere in the
                    // binary: one mask line covers 16 instruction lines.
                    // Fetch it alongside the instruction line on a miss.
                    let mask_addr = MASK_BASE + (line >> 4);
                    let (mready, _mhit) = mem.inst_fetch(mask_addr & !63, cycle);
                    t.fetch_stall_until = t.fetch_stall_until.max(mready);
                }
                if !hit {
                    t.fetch_stall_until = t.fetch_stall_until.max(ready);
                    break;
                }
                current_line = line;
            }
            let Some(inst) = fetched else {
                // Ran off the binary (deep wrong path): wait for a squash.
                t.halted_fetch = true;
                return;
            };
            slots += 1;
            // Skeleton masking: deleted instructions consume a fetch slot
            // but never enter the fetch buffer (paper §III-A iii).
            if !h.keep(pc) {
                counters.mask_deleted.inc();
                t.fetch_pc = pc + INST_BYTES;
                continue;
            }
            let mut next_pc = pc + INST_BYTES;
            let mut is_taken_branch = false;
            let kind = inst.branch_kind();
            if matches!(kind, Some(BranchKind::Cond)) {
                counters.bpred_lookups.inc();
            }
            let dir_snapshot = h.snapshot();
            let ras_snapshot = t.ras_snapshot();
            match kind {
                Some(BranchKind::Cond) => match h.predict(pc) {
                    Some(taken) => {
                        if taken {
                            next_pc = inst.imm as u64;
                            is_taken_branch = true;
                        }
                    }
                    None => {
                        // BOQ empty: stall fetch this cycle.
                        return;
                    }
                },
                Some(BranchKind::Jump) => {
                    next_pc = inst.imm as u64;
                    is_taken_branch = true;
                }
                Some(BranchKind::Call) => {
                    next_pc = inst.imm as u64;
                    t.ras_push(pc + INST_BYTES);
                    is_taken_branch = true;
                }
                Some(BranchKind::Ret) => {
                    next_pc = t
                        .ras_pop()
                        .or_else(|| t.btb.predict(pc))
                        .unwrap_or(pc + INST_BYTES);
                    is_taken_branch = true;
                }
                Some(BranchKind::IndCall) | Some(BranchKind::IndJump) => {
                    next_pc = h
                        .indirect_target(pc)
                        .or_else(|| t.btb.predict(pc))
                        .unwrap_or(pc + INST_BYTES);
                    if matches!(kind, Some(BranchKind::IndCall)) {
                        t.ras_push(pc + INST_BYTES);
                    }
                    is_taken_branch = true;
                }
                None => {}
            }
            let (branch_tag, branch_offset);
            if inst.is_cond_branch() {
                let tag = h.last_tag().unwrap_or_else(|| {
                    let g = t.next_local_tag;
                    t.next_local_tag += 1;
                    g
                });
                branch_tag = tag;
                branch_offset = 0;
                t.last_branch_tag = tag;
                t.cursor_offset = 0;
            } else {
                t.cursor_offset = t.cursor_offset.saturating_add(1);
                branch_tag = t.last_branch_tag;
                branch_offset = t.cursor_offset;
            }
            // Every field is written: the slot still holds a renamed entry.
            let FetchedInst {
                pc: f_pc,
                inst: f_inst,
                pred_next_pc,
                dir_snapshot: f_dir_snapshot,
                ras_snapshot: f_ras_snapshot,
                decode_ready,
                branch_tag: f_branch_tag,
                branch_offset: f_branch_offset,
            } = t.front_end.push_back();
            *f_pc = pc;
            *f_inst = inst;
            *pred_next_pc = next_pc;
            *f_dir_snapshot = dir_snapshot;
            *f_ras_snapshot = ras_snapshot;
            *decode_ready = 0; // assigned when drained into the decode pipe
            *f_branch_tag = branch_tag;
            *f_branch_offset = branch_offset;
            t.fetch_pc = next_pc;
            pushed += 1;
            counters.fetched.inc();
            if inst.op == Op::Halt {
                t.halted_fetch = true;
                break;
            }
            if is_taken_branch {
                break; // one taken branch per cycle
            }
        }
        t.stats.fetched_per_cycle.record(pushed as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::BaseHooks;
    use r3dla_isa::{ArchState, Asm};
    use r3dla_mem::{MemConfig, SharedLlc};
    use std::cell::RefCell;

    /// A chase of four dependent cold loads, so that nothing commits
    /// for several DRAM round trips, then an endless loop of `stores`
    /// stores and `alus` ALU instructions that fills the backend behind
    /// it.
    fn stalled_head_then_loop(stores: usize, alus: usize) -> Program {
        let mut a = Asm::new();
        let (p, x, one) = (Reg::int(10), Reg::int(11), Reg::int(12));
        let chase = a.data().alloc_words(4 * 1024);
        for k in 0..4u64 {
            let next = chase + (k + 1) * 1024 * 8;
            a.data().put_word(chase + k * 1024 * 8, next);
        }
        a.li(p, chase as i64);
        a.li(one, 1);
        for _ in 0..4 {
            a.ld(p, p, 0);
        }
        a.label("loop");
        for k in 0..stores {
            a.st(one, x, 8 * k as i64);
        }
        for _ in 0..alus {
            a.addi(x, x, 0);
        }
        a.blt(Reg::ZERO, one, "loop");
        a.finish().expect("test program assembles")
    }

    /// Runs `prog` for `cycles` on a one-thread core; returns the peak
    /// occupancy of its ROB, front end and store queue.
    fn peak_occupancy(cfg: &CoreConfig, prog: Program, cycles: u64) -> (usize, usize, usize) {
        let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
        let mem = CoreMem::new(&MemConfig::paper(), shared);
        let mut hooks = [BaseHooks::new(&prog)];
        let mut core = Core::new(cfg.clone(), Arc::new(prog), mem);
        core.add_thread(
            core.program.entry(),
            ArchState::new(core.program.entry()).regs(),
        );
        let mut peak = (0, 0, 0);
        for _ in 0..cycles {
            core.step(&mut hooks);
            let t = &core.threads[0];
            peak.0 = peak.0.max(t.rob.len());
            peak.1 = peak.1.max(t.front_end.len());
            peak.2 = peak.2.max(t.store_queue.len());
        }
        peak
    }

    /// Behind a stalled head, each ring fills to the bound the core
    /// enforces on it, never past it, under the paper's core, the half
    /// core and the wide SMT core: the ROB to `rob_size`, the store
    /// queue to `lsq_size`, and the front end to the fetch buffer plus
    /// the decode pipe.
    #[test]
    fn rings_fill_to_their_configured_capacity() {
        for cfg in [
            CoreConfig::paper(),
            CoreConfig::half_core(),
            CoreConfig::wide_smt(),
        ] {
            let cap = cfg.fetch_buffer + cfg.decode_width * cfg.frontend_depth as usize + 1;
            let (rob, front_end, _) = peak_occupancy(&cfg, stalled_head_then_loop(0, 9), 600);
            assert_eq!(rob, cfg.rob_size, "ROB under {cfg:?}");
            assert_eq!(front_end, cap, "front end under {cfg:?}");
            // Eight stores in ten fill the store queue before the ROB,
            // and issue fast enough to leave the IQ room.
            let (rob, front_end, sq) = peak_occupancy(&cfg, stalled_head_then_loop(8, 1), 600);
            assert_eq!(sq, cfg.lsq_size, "store queue under {cfg:?}");
            assert!(rob < cfg.rob_size, "ROB under {cfg:?}: {rob}");
            assert_eq!(front_end, cap, "front end under {cfg:?}");
        }
    }
}
