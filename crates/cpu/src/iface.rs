//! What a core asks of the world outside it. Each hardware thread has
//! one [`ThreadHooks`] value — its fetch-direction source, fetch filter
//! (skeleton mask), branch override, value-prediction source, functional
//! memory and commit sink — and the core's owner passes them to every
//! [`Core::step`](crate::Core::step) as one `&mut` slice. The core keeps
//! no handle on them, so every hook call is a static call with no
//! borrow flag, and the owner (a DLA system, say) may share state
//! between its cores' hooks through plain fields.

use std::cell::RefCell;
use std::rc::Rc;

use r3dla_bpred::{DirectionPredictor, Tage};
use r3dla_isa::{DataMem, Inst, Program, VecMem};

/// Everything one hardware thread's pipeline asks of the world outside
/// the core. Only the direction source and memory are required; the
/// other hooks default to a conventional thread's behaviour.
pub trait ThreadHooks {
    // ---- Fetch direction ----------------------------------------------

    /// Predicts the conditional branch at `pc`, or `None` to stall fetch
    /// this cycle.
    ///
    /// A conventional core asks a predictor; a DLA main thread is fed
    /// from the Branch Outcome Queue instead, which may be momentarily
    /// empty (paper §III-A: "If the queue is empty, we stall the
    /// fetch").
    fn predict(&mut self, pc: u64) -> Option<bool>;
    /// Whether a direction is currently available, without consuming it.
    ///
    /// Must agree with [`predict`](Self::predict): `predict` returns
    /// `Some` iff this returns `true`. The fetch stage uses it to detect
    /// a direction-starved thread *before* touching any cache state, and
    /// the event-driven fast path uses it to prove the thread quiescent.
    fn available(&self) -> bool {
        true
    }
    /// Supplies a target for an indirect branch at `pc` beyond the BTB
    /// (the DLA footnote-queue branch-target hint path).
    fn indirect_target(&mut self, _pc: u64) -> Option<u64> {
        None
    }
    /// Reports the architectural outcome at branch resolution.
    fn resolve(&mut self, pc: u64, taken: bool, mispredicted: bool);
    /// The tag of the most recently served prediction, when the source
    /// numbers its predictions (the BOQ does; it aligns footnote-queue
    /// value-reuse entries with fetched branches). `None` lets the core
    /// assign thread-local tags.
    fn last_tag(&self) -> Option<u64> {
        None
    }
    /// Opaque speculative-state snapshot taken at each branch fetch.
    fn snapshot(&self) -> u64 {
        0
    }
    /// Restores a snapshot after a squash; `resolved` carries the true
    /// outcome of the branch that caused it (if it was conditional).
    fn restore(&mut self, _snapshot: u64, _resolved: Option<bool>) {}

    // ---- Fetch filter and branch override ------------------------------

    /// Whether this thread filters its fetch stream (a look-ahead
    /// thread running a skeleton). Unfiltered threads keep every
    /// instruction and never issue prefetch payloads.
    fn filtered(&self) -> bool {
        false
    }
    /// Whether the instruction at `pc` is kept (on the skeleton):
    /// look-ahead cores delete the rest "immediately upon fetch" (paper
    /// §III-A iii).
    fn keep(&mut self, _pc: u64) -> bool {
        true
    }
    /// Whether the load at `pc` is a *prefetch payload*: the skeleton
    /// includes it to generate its address and touch the memory system,
    /// but no skeleton instruction consumes its result, so the thread
    /// must not stall on it (paper §III-A: "a subset of memory
    /// instructions is also included in the skeleton as prefetch
    /// payloads").
    fn prefetch_only(&mut self, _pc: u64) -> bool {
        false
    }
    /// The forced direction of the conditional branch at `pc`, if any —
    /// how bias-converted skeleton branches behave in the look-ahead
    /// thread (paper §III-E1). The branch still executes and reports an
    /// outcome (keeping the BOQ aligned), but its direction ignores the
    /// (possibly stale) condition inputs.
    fn force(&self, _pc: u64) -> Option<bool> {
        None
    }

    // ---- Value prediction (the DLA value-reuse path, paper §III-D1) ----

    /// A prediction for the instruction at `pc`, which is `offset`
    /// instructions after the `branch_tag`-th fetched conditional branch
    /// (the FQ entry alignment scheme).
    fn predict_value(&mut self, _pc: u64, _branch_tag: u64, _offset: u32) -> Option<u64> {
        None
    }
    /// Reports whether a consumed value prediction validated correctly.
    fn value_outcome(&mut self, _pc: u64, _correct: bool) {}

    // ---- Functional memory ---------------------------------------------

    /// Functional load.
    fn load(&mut self, addr: u64) -> u64;
    /// Functional store, performed at commit.
    fn store(&mut self, addr: u64, val: u64);

    // ---- Commit --------------------------------------------------------

    /// Called once per committed instruction, in program order.
    fn on_commit(&mut self, _rec: &CommitRecord) {}
}

/// Everything the rest of the system wants to know about one committed
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitRecord {
    /// Hardware thread that committed the instruction.
    pub thread: usize,
    /// Dynamic sequence number within the thread.
    pub seq: u64,
    /// The instruction.
    pub inst: Inst,
    /// Its PC.
    pub pc: u64,
    /// Commit cycle.
    pub cycle: u64,
    /// Architectural next PC.
    pub next_pc: u64,
    /// For conditional branches, the outcome.
    pub taken: Option<bool>,
    /// Result value written to the destination register, if any.
    pub value: Option<u64>,
    /// Effective address, for memory operations.
    pub mem_addr: Option<u64>,
    /// Whether a load missed in L1D.
    pub l1_miss: bool,
    /// Whether a load missed in L2.
    pub l2_miss: bool,
    /// Whether the access took a TLB walk.
    pub tlb_miss: bool,
    /// Observed dispatch-to-execute-complete latency in cycles (the
    /// paper's "slow instruction" metric for value-reuse targeting).
    pub dispatch_to_exec: u64,
}

/// Observes a committed instruction stream (profilers, experiment
/// harnesses, per-PC attribution).
pub trait CommitSink {
    /// Called once per committed instruction, in program order.
    fn on_commit(&mut self, rec: &CommitRecord);
}

/// No sink.
impl CommitSink for () {
    fn on_commit(&mut self, _rec: &CommitRecord) {}
}

/// An optional sink.
impl<S: CommitSink> CommitSink for Option<S> {
    fn on_commit(&mut self, rec: &CommitRecord) {
        if let Some(sink) = self {
            sink.on_commit(rec);
        }
    }
}

/// A sink shared with its reader.
impl<S: CommitSink + ?Sized> CommitSink for Rc<RefCell<S>> {
    fn on_commit(&mut self, rec: &CommitRecord) {
        self.borrow_mut().on_commit(rec);
    }
}

/// A late-bound, shared commit observer.
pub type Observer = Option<Rc<RefCell<dyn CommitSink>>>;

/// A conventional thread's hooks: a TAGE direction predictor, its own
/// architectural memory, every fetched instruction kept, no value
/// prediction, and a commit sink `S` (`()` for none).
#[derive(Debug, Clone)]
pub struct BaseHooks<S = ()> {
    /// The direction predictor.
    pub dir: Tage,
    /// The thread's architectural memory.
    pub mem: VecMem,
    /// Where committed instructions are reported.
    pub sink: S,
}

impl BaseHooks {
    /// A thread over a fresh copy of `program`'s data image, with no
    /// commit sink.
    pub fn new(program: &Program) -> Self {
        Self::with_sink(program, ())
    }
}

impl<S> BaseHooks<S> {
    /// A thread over a fresh copy of `program`'s data image, reporting
    /// commits to `sink`.
    pub fn with_sink(program: &Program, sink: S) -> Self {
        let mut mem = VecMem::new();
        mem.load_image(program.image());
        Self {
            dir: Tage::paper(),
            mem,
            sink,
        }
    }
}

impl<S: CommitSink> ThreadHooks for BaseHooks<S> {
    fn predict(&mut self, pc: u64) -> Option<bool> {
        Some(self.dir.predict(pc))
    }

    fn resolve(&mut self, pc: u64, taken: bool, mispredicted: bool) {
        self.dir.update(pc, taken, mispredicted);
    }

    fn snapshot(&self) -> u64 {
        self.dir.history()
    }

    fn restore(&mut self, snapshot: u64, resolved: Option<bool>) {
        self.dir.restore_history(snapshot, resolved);
    }

    fn load(&mut self, addr: u64) -> u64 {
        self.mem.load(addr)
    }

    fn store(&mut self, addr: u64, val: u64) {
        self.mem.store(addr, val);
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        self.sink.on_commit(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_hooks_train_their_predictor() {
        let mut h = BaseHooks::new(&Program::from_parts("empty", Vec::new(), 0, Vec::new()));
        for _ in 0..10 {
            let p = h.predict(0x40).unwrap();
            h.resolve(0x40, true, !p);
        }
        assert_eq!(h.predict(0x40), Some(true));
    }
}
