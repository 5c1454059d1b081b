//! The look-ahead link: everything a DLA system's main thread (MT) and
//! look-ahead thread (LT) share — the BOQ and FQ, the indirect-target
//! and value-reuse entries the FQ delivers, the SIF, T1, the active
//! skeleton and its recycle controller, and the architectural memory
//! with LT's speculative overlay (paper §III, Fig 8).
//!
//! [`DlaSystem`](crate::DlaSystem) owns one [`Link`] and lends it to
//! each core's step as that core's [`ThreadHooks`]: [`MtHooks`] reads
//! directions from the BOQ and reports MT commits to the recycle
//! controller, SIF and T1; [`LtHooks`] masks fetch with the active
//! skeleton and turns LT commits into BOQ and FQ entries.

use r3dla_bpred::{DirectionPredictor, Tage};
use r3dla_cpu::{CommitRecord, CommitSink, Observer, ThreadHooks};
use r3dla_isa::{DataMem, FxHashMap, VecMem};

use crate::overlay::OverlayMem;
use crate::queues::{Boq, Footnote, FootnoteQueue};
use crate::recycle::{ActiveSkeleton, RecycleController};
use crate::t1::T1;
use crate::value_reuse::{Sif, VrSource};

/// The state both threads of a DLA system reach.
pub(crate) struct Link {
    pub(crate) boq: Boq,
    pub(crate) fq: FootnoteQueue,
    /// Indirect-branch targets delivered through the FQ.
    pub(crate) ind_targets: FxHashMap<u64, u64>,
    /// Value-reuse entries delivered through the FQ (with value reuse).
    pub(crate) vr: Option<VrSource>,
    pub(crate) sif: Sif,
    pub(crate) t1: Option<T1>,
    /// T1 prefetches raised at MT commit, issued after the MT step.
    pub(crate) t1_out: Vec<u64>,
    pub(crate) active: ActiveSkeleton,
    pub(crate) recycle: RecycleController,
    /// Architectural memory: MT's view, and LT's below its overlay.
    pub(crate) arch_mem: VecMem,
    pub(crate) overlay: OverlayMem,
    /// LT-commit side: BOQ pushes and FQ hints.
    pub(crate) hints: HintSink,
    /// Extra observer of the MT commit stream.
    pub(crate) observer: Observer,
}

impl Link {
    /// Drops everything LT sent that MT has not used yet: a misfeed
    /// makes it stale.
    pub(crate) fn flush_queues(&mut self) {
        self.boq.clear();
        self.fq.clear();
        if let Some(vr) = &mut self.vr {
            vr.clear();
        }
        // Indirect-branch targets learned before the misfeed would steer
        // MT fetch down stale paths after the restart.
        self.ind_targets.clear();
    }

    fn lt_commit(&mut self, rec: &CommitRecord) {
        let Link {
            boq,
            fq,
            sif,
            hints,
            ..
        } = self;
        hints.on_commit(rec, boq, fq, sif);
    }

    fn mt_commit(&mut self, rec: &CommitRecord) {
        self.observer.on_commit(rec);
        self.recycle.on_commit(&mut self.active);
        let value_reuse = self.vr.is_some();
        if rec.inst.is_cond_branch() {
            self.boq.commit_front();
            if rec.taken == Some(true) && rec.next_pc < rec.pc {
                // A committed loop branch.
                if value_reuse {
                    self.sif.on_loop_branch(rec.next_pc);
                }
                if let Some(t1) = &mut self.t1 {
                    t1.on_loop_branch(rec.next_pc);
                }
                self.recycle
                    .on_loop_branch(rec.next_pc, rec.cycle, &mut self.active);
            }
        }
        if value_reuse {
            self.sif.observe_latency(rec.pc, rec.dispatch_to_exec);
        }
        if let Some(t1) = &mut self.t1 {
            if self.active.sbit(rec.pc) {
                if let Some(addr) = rec.mem_addr {
                    t1.observe(rec.pc, addr, rec.cycle, &mut self.t1_out);
                }
            }
        }
    }
}

/// MT's hooks: directions from the BOQ (paper §III-A: "its fetch unit
/// draws branch direction predictions from the BOQ instead of its branch
/// predictor"), indirect targets and values from the FQ, architectural
/// memory.
pub(crate) struct MtHooks<'a>(pub(crate) &'a mut Link);

impl ThreadHooks for MtHooks<'_> {
    fn predict(&mut self, _pc: u64) -> Option<bool> {
        self.0.boq.consume().map(|e| e.taken)
    }

    fn available(&self) -> bool {
        self.0.boq.depth() > 0
    }

    fn indirect_target(&mut self, pc: u64) -> Option<u64> {
        self.0.ind_targets.get(&pc).copied()
    }

    fn resolve(&mut self, _pc: u64, _taken: bool, mispredicted: bool) {
        if mispredicted {
            self.0.boq.misfeed = true;
        }
    }

    fn last_tag(&self) -> Option<u64> {
        Some(self.0.boq.last_served_tag())
    }

    fn snapshot(&self) -> u64 {
        self.0.boq.consume_cursor() as u64
    }

    fn restore(&mut self, snapshot: u64, resolved: Option<bool>) {
        let boq = &mut self.0.boq;
        boq.rewind(snapshot as usize);
        if resolved.is_some() {
            // The squashing instruction was itself a conditional branch;
            // its entry stays consumed.
            let _ = boq.consume();
        }
    }

    fn predict_value(&mut self, pc: u64, branch_tag: u64, _offset: u32) -> Option<u64> {
        self.0.vr.as_mut()?.predict(pc, branch_tag)
    }

    fn value_outcome(&mut self, pc: u64, correct: bool) {
        if let Some(vr) = &mut self.0.vr {
            vr.on_outcome(pc, correct);
        }
    }

    fn load(&mut self, addr: u64) -> u64 {
        self.0.arch_mem.load(addr)
    }

    fn store(&mut self, addr: u64, val: u64) {
        self.0.arch_mem.store(addr, val);
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        self.0.mt_commit(rec);
    }
}

/// LT's hooks: its own predictor, the active skeleton as fetch filter
/// and branch override, the speculative overlay, and commits into the
/// BOQ and FQ.
pub(crate) struct LtHooks<'a> {
    pub(crate) dir: &'a mut Tage,
    pub(crate) link: &'a mut Link,
}

impl ThreadHooks for LtHooks<'_> {
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

    fn filtered(&self) -> bool {
        true
    }

    fn keep(&mut self, pc: u64) -> bool {
        self.link.active.keep(pc)
    }

    fn prefetch_only(&mut self, pc: u64) -> bool {
        self.link.active.prefetch_only(pc)
    }

    fn force(&self, pc: u64) -> Option<bool> {
        self.link.active.force(pc)
    }

    fn load(&mut self, addr: u64) -> u64 {
        let Link {
            arch_mem, overlay, ..
        } = &mut *self.link;
        overlay.load(arch_mem, addr)
    }

    fn store(&mut self, addr: u64, val: u64) {
        self.link.overlay.store(addr, val);
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        self.link.lt_commit(rec);
    }
}

/// Turns LT commits into BOQ entries and FQ hints.
pub(crate) struct HintSink {
    value_reuse: bool,
    fq_hints: bool,
    /// Tag of the last BOQ entry pushed, or `None` before the first
    /// conditional branch commits (and again right after a reboot).
    last_tag: Option<u64>,
    /// Hints committed before the first branch: held here and re-tagged
    /// with that branch's tag so `release_up_to` delivers them
    /// just-in-time instead of immediately.
    pending: Vec<Footnote>,
    pending_cap: usize,
}

impl HintSink {
    pub(crate) fn new(value_reuse: bool, fq_hints: bool, pending_cap: usize) -> Self {
        Self {
            value_reuse,
            fq_hints,
            last_tag: None,
            pending: Vec::new(),
            pending_cap,
        }
    }

    fn push_note(&mut self, fq: &mut FootnoteQueue, note: Footnote) {
        match self.last_tag {
            Some(tag) => fq.push(tag, note),
            None => {
                if self.pending.len() < self.pending_cap {
                    self.pending.push(note);
                }
            }
        }
    }

    /// Forgets the aligning-branch state after a reboot: the next hints
    /// must wait for the first post-reboot branch again.
    pub(crate) fn reset(&mut self) {
        self.last_tag = None;
        self.pending.clear();
    }

    fn on_commit(&mut self, rec: &CommitRecord, boq: &mut Boq, fq: &mut FootnoteQueue, sif: &Sif) {
        if rec.inst.is_cond_branch() {
            let tag = boq.push(rec.taken.unwrap_or(false));
            // Flush hints that preceded any branch: this branch is their
            // aligning BOQ entry.
            for note in self.pending.drain(..) {
                let note = match note {
                    Footnote::Value {
                        offset, pc, value, ..
                    } => Footnote::Value {
                        tag,
                        offset,
                        pc,
                        value,
                    },
                    other => other,
                };
                fq.push(tag, note);
            }
            self.last_tag = Some(tag);
            return;
        }
        if !self.fq_hints {
            return;
        }
        if rec.inst.is_branch() && !rec.inst.has_static_target() {
            // Indirect branch: send the target hint.
            self.push_note(
                fq,
                Footnote::BranchTarget {
                    pc: rec.pc,
                    target: rec.next_pc,
                },
            );
        }
        if rec.inst.is_load() {
            if let Some(addr) = rec.mem_addr {
                if rec.l1_miss {
                    self.push_note(fq, Footnote::L1Prefetch(addr));
                }
                if rec.tlb_miss {
                    self.push_note(fq, Footnote::TlbHint(addr));
                }
            }
        }
        if self.value_reuse && !rec.inst.is_branch() {
            if let Some(value) = rec.value {
                if sif.should_reuse(rec.pc) {
                    let tag = self.last_tag.unwrap_or(0);
                    self.push_note(
                        fq,
                        Footnote::Value {
                            tag,
                            offset: 0,
                            pc: rec.pc,
                            value,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_isa::{Inst, Op};

    /// A committed `op` at `pc`.
    fn record(op: Op, pc: u64) -> CommitRecord {
        CommitRecord {
            thread: 0,
            seq: 0,
            inst: Inst { op, ..Inst::NOP },
            pc,
            cycle: 0,
            next_pc: pc + 4,
            taken: None,
            value: None,
            mem_addr: None,
            l1_miss: false,
            l2_miss: false,
            tlb_miss: false,
            dispatch_to_exec: 0,
        }
    }

    /// A load at `pc` that missed L1 at `addr`.
    fn load_record(pc: u64, addr: u64) -> CommitRecord {
        let mut r = record(Op::Ld, pc);
        r.mem_addr = Some(addr);
        r.l1_miss = true;
        r
    }

    fn branch_record(pc: u64, taken: bool) -> CommitRecord {
        let mut r = record(Op::Bne, pc);
        r.taken = Some(taken);
        r
    }

    fn release(link: &mut Link, served: u64) -> Vec<Footnote> {
        let mut out = Vec::new();
        link.fq.release_up_to(served, &mut out);
        out
    }

    /// A link with empty queues and no skeleton versions.
    fn link(boq_capacity: usize) -> Link {
        let program = r3dla_isa::Program::from_parts("empty", Vec::new(), 0, Vec::new());
        let no_versions = crate::skeleton::SkeletonSet {
            versions: Vec::new(),
        };
        Link {
            boq: Boq::new(boq_capacity),
            fq: FootnoteQueue::new(16),
            ind_targets: FxHashMap::default(),
            vr: None,
            sif: Sif::new(),
            t1: None,
            t1_out: Vec::new(),
            active: ActiveSkeleton::new(no_versions, &program),
            recycle: RecycleController::new(crate::RecycleMode::Off),
            arch_mem: VecMem::new(),
            overlay: OverlayMem::new(),
            hints: HintSink::new(false, true, 16),
            observer: None,
        }
    }

    #[test]
    fn mt_hooks_stall_on_an_empty_boq_and_detect_misfeed() {
        let mut link = link(4);
        assert_eq!(
            MtHooks(&mut link).predict(0x40),
            None,
            "empty BOQ must stall fetch"
        );
        link.boq.push(true);
        let mut mt = MtHooks(&mut link);
        assert_eq!(mt.predict(0x40), Some(true));
        mt.resolve(0x40, false, true);
        assert!(link.boq.misfeed);
    }

    #[test]
    fn mt_hooks_rewind_the_boq_on_restore() {
        let mut link = link(4);
        link.boq.push(true);
        link.boq.push(false);
        let mut mt = MtHooks(&mut link);
        let snap = mt.snapshot();
        mt.predict(0x40);
        mt.predict(0x44);
        mt.restore(snap, None);
        assert_eq!(mt.predict(0x40), Some(true));
    }

    #[test]
    fn pre_branch_hints_wait_for_their_aligning_branch() {
        let mut lt = link(16);
        // Two hints commit before any conditional branch.
        lt.lt_commit(&load_record(0x40, 0x1000));
        lt.lt_commit(&load_record(0x44, 0x2000));
        // They must NOT be releasable yet — tag 0 would release them
        // immediately (served tag starts at 0).
        let out = release(&mut lt, 0);
        assert!(out.is_empty(), "pre-branch hints must be held, got {out:?}");
        assert!(lt.fq.is_empty(), "hints stay buffered in the sink");
        // The first branch commits: the hints are re-tagged with its tag.
        lt.lt_commit(&branch_record(0x48, true));
        let out = release(&mut lt, 0);
        assert!(out.is_empty(), "still held until MT consumes the branch");
        assert_eq!(
            release(&mut lt, 1),
            vec![Footnote::L1Prefetch(0x1000), Footnote::L1Prefetch(0x2000)],
            "hints release just-in-time with their aligning branch"
        );
    }

    #[test]
    fn post_branch_hints_keep_streaming() {
        let mut lt = link(16);
        lt.lt_commit(&branch_record(0x40, false));
        lt.lt_commit(&load_record(0x44, 0x3000));
        assert_eq!(release(&mut lt, 1), vec![Footnote::L1Prefetch(0x3000)]);
    }

    #[test]
    fn sink_reset_reenters_pre_branch_holding() {
        let mut lt = link(16);
        lt.lt_commit(&branch_record(0x40, true));
        lt.hints.reset();
        // After a reboot, hints must wait for the first post-reboot
        // branch again instead of reusing the stale tag.
        lt.lt_commit(&load_record(0x44, 0x4000));
        assert!(release(&mut lt, u64::MAX).is_empty());
        lt.lt_commit(&branch_record(0x48, true));
        assert_eq!(release(&mut lt, 2), vec![Footnote::L1Prefetch(0x4000)]);
    }
}
