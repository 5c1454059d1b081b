//! Bit-exact fingerprints of the detailed core on paths the CI report
//! gates do not reach: RAS repair on mispredicted call/return paths in
//! the profiling training run, and two hardware threads sharing one
//! wide SMT core.
//!
//! The constants were taken from a release build of the model before
//! the core's host-cost rework (shared RAS snapshots, ROB-free issue
//! checks, the executing list) and must not move under host-cost
//! changes. An intended model change must update them, and say so in
//! its change notes.

use std::cell::RefCell;
use std::rc::Rc;

use r3dla::bpred::Tage;
use r3dla::core::{profile, DlaConfig};
use r3dla::cpu::{BaseMem, Core, CoreConfig, PredictorDirection};
use r3dla::isa::{ArchState, BranchKind, Program, VecMem};
use r3dla::mem::{CoreMem, MemConfig, SharedLlc};
use r3dla::workloads::{by_name, Scale};
use r3dla_bench::measure_smt;

/// FNV-1a over a sequence of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn tiny_program(name: &str) -> Program {
    by_name(name)
        .expect("known workload")
        .build(Scale::Tiny)
        .program
}

fn has_calls_and_returns(p: &Program) -> bool {
    let kinds: Vec<_> = p.insts().iter().filter_map(|i| i.branch_kind()).collect();
    kinds
        .iter()
        .any(|k| matches!(k, BranchKind::Call | BranchKind::IndCall))
        && kinds.contains(&BranchKind::Ret)
}

#[test]
fn training_run_latencies_are_pinned() {
    for (name, want) in [
        ("gobmk_like", 0x8798_0cd4_4a0f_e539u64),
        ("xalan_like", 0xa8b2_f131_14c7_1720u64),
    ] {
        let prog = Rc::new(tiny_program(name));
        assert!(has_calls_and_returns(&prog), "{name}: no call/return");
        let prof = profile(&prog, DlaConfig::dla().profile_insts);
        let got = fnv(prof.avg_d2e.iter().map(|x| x.to_bits()));
        assert_eq!(got, want, "{name}: avg_d2e fingerprint {got:#018x}");
    }
}

#[test]
fn two_thread_smt_row_is_pinned() {
    let name = "xalan_like";
    let built = by_name(name).expect("known workload").build(Scale::Tiny);
    let ipc = measure_smt(&built, CoreConfig::wide_smt(), 2, 2_000);
    assert_eq!(
        ipc.to_bits(),
        0x3ff0_5b11_9949_3552,
        "{name}: measure_smt IPC {ipc}"
    );

    // The same two threads stepped directly, pinned as a full stat row.
    let program = Rc::new(built.program.clone());
    let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
    let mem = CoreMem::new(&MemConfig::paper(), shared);
    let mut core = Core::new(CoreConfig::wide_smt(), Rc::clone(&program), mem);
    for _ in 0..2 {
        let vm = Rc::new(RefCell::new(VecMem::new()));
        vm.borrow_mut().load_image(program.image());
        core.add_thread(
            program.entry(),
            ArchState::new(program.entry()).regs(),
            Box::new(PredictorDirection::new(Box::new(Tage::paper()))),
            Rc::new(RefCell::new(BaseMem(vm))),
        );
    }
    core.run(20_000);
    let c = &core.counters;
    let mut row = format!(
        "cycles={} fetched={} decoded={} executed={} committed={} squashed={} \
         mispredicts={} rf_reads={} rf_writes={} loads={} stores={} bubbles={}",
        c.cycles.get(),
        c.fetched.get(),
        c.decoded.get(),
        c.executed.get(),
        c.committed.get(),
        c.squashed.get(),
        c.branch_mispredicts.get(),
        c.rf_reads.get(),
        c.rf_writes.get(),
        c.loads.get(),
        c.stores.get(),
        c.fetch_bubble_insts.get(),
    );
    for t in 0..2 {
        let s = core.thread_stats(t);
        let hists = [
            &s.fetch_occupancy,
            &s.renamed_per_cycle,
            &s.fetched_per_cycle,
        ];
        let h = fnv(hists
            .iter()
            .flat_map(|h| h.iter().flat_map(|(v, n)| [v, n])));
        row += &format!(
            " | t{t} committed={} cond={} loads={} l1d_misses={} hists={h:016x}",
            s.committed, s.cond_branches, s.loads, s.l1d_load_misses
        );
    }
    assert_eq!(
        row,
        "cycles=20000 fetched=119287 decoded=63617 executed=41913 committed=17382 \
         squashed=46163 mispredicts=1332 rf_reads=53239 rf_writes=34665 loads=8948 \
         stores=0 bubbles=171158 \
         | t0 committed=8691 cond=920 loads=1840 l1d_misses=117 hists=9d05962a86575273 \
         | t1 committed=8691 cond=920 loads=1840 l1d_misses=117 hists=dfbf02b5874545cf",
        "{name}: two-thread stat row"
    );
}
