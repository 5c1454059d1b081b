//! Bit-exact fingerprints of the detailed core on paths the CI report
//! gates do not reach: RAS repair on mispredicted call/return paths in
//! the profiling training run, the store queue's load ordering and
//! forwarding in training runs, two hardware threads sharing one wide
//! SMT core, and the look-ahead link under each R3 piece on its own.
//!
//! Each constant was taken from a release build of the model before
//! the host-cost change that it guards (shared RAS snapshots, ROB-free
//! issue checks and the executing list; then in-place rings and the
//! store-queue cursor; then the owned link and its static hook calls)
//! and must not move under host-cost changes. An
//! intended model change must update them, and say so in its change
//! notes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use r3dla::core::{profile, timing_budget, DlaConfig};
use r3dla::cpu::{BaseHooks, CommitRecord, CommitSink, Core, CoreConfig};
use r3dla::isa::{ArchState, BranchKind, Program};
use r3dla::mem::{CoreMem, MemConfig, SharedLlc};
use r3dla::prefetch::by_name as by_prefetcher;
use r3dla::workloads::{by_name, suite, Scale};
use r3dla_bench::runner::{CellKind, ConfigSpec};
use r3dla_bench::{measure_smt, parallel_map, Prepared};

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

/// Folds every committed instruction's outcome into one FNV-1a word.
struct StreamSink(u64);

impl CommitSink for StreamSink {
    fn on_commit(&mut self, r: &CommitRecord) {
        let words = [
            r.pc,
            r.cycle,
            r.value.unwrap_or(u64::MAX),
            r.mem_addr.unwrap_or(u64::MAX),
            u64::from(r.l1_miss),
            r.dispatch_to_exec,
        ];
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The committed stream of a workload's training run: the core, memory
/// and budget `profile` uses, with a sink on every commit.
fn training_stream(name: &str) -> u64 {
    let prog = Arc::new(tiny_program(name));
    let mem_cfg = MemConfig::paper();
    let shared = Rc::new(RefCell::new(SharedLlc::new(&mem_cfg)));
    let mut mem = CoreMem::new(&mem_cfg, shared);
    mem.set_l2_prefetcher(by_prefetcher("bop").expect("known prefetcher"));
    let mut core = Core::new(CoreConfig::paper(), Arc::clone(&prog), mem);
    let t = core.add_thread(prog.entry(), ArchState::new(prog.entry()).regs());
    let mut hooks = [BaseHooks::with_sink(
        &prog,
        StreamSink(0xcbf2_9ce4_8422_2325),
    )];
    let budget = timing_budget(DlaConfig::dla().profile_insts);
    let max_cycles = budget * 30;
    let mut last_probe = u64::MAX;
    while !core.halted() && core.committed(t) < budget && core.cycle() < max_cycles {
        core.step_or_skip(&mut hooks, max_cycles, &mut last_probe);
    }
    hooks[0].sink.0
}

/// The store queue's two rules, pinned on training runs. A load waits
/// while an older store's address is unknown: `is_like`'s histogram
/// loop loads a bucket, increments it and stores it back, so each load
/// waits for the previous iteration's store. And a load forwards from
/// the youngest older store to its address: `gobmk_like` has loads with
/// several such stores in flight.
#[test]
fn store_queue_training_runs_are_pinned() {
    for (name, want) in [
        ("is_like", 0xc7c3_6ce4_7679_999au64),
        ("gobmk_like", 0xd0d9_0be0_9196_7012u64),
    ] {
        let got = training_stream(name);
        assert_eq!(
            got, want,
            "{name}: committed-stream fingerprint {got:#018x}"
        );
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
    let program = Arc::new(built.program.clone());
    let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
    let mem = CoreMem::new(&MemConfig::paper(), shared);
    let mut core = Core::new(CoreConfig::wide_smt(), Arc::clone(&program), mem);
    let mut hooks = [(); 2].map(|_| {
        core.add_thread(program.entry(), ArchState::new(program.entry()).regs());
        BaseHooks::new(&program)
    });
    core.run(&mut hooks, 20_000);
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

/// One DLA-family cell from the program entry: the MT commit stream
/// folded by a [`StreamSink`] observer, then the final cycle, LT
/// commits and reboots.
fn lookahead_row(p: &Prepared, config: &str) -> String {
    let spec = ConfigSpec::by_name(config).expect("known config");
    let CellKind::Dla(cfg) = spec.kind else {
        panic!("{config} is not a look-ahead config")
    };
    let mut sys = p.dla_system(cfg);
    let sink = Rc::new(RefCell::new(StreamSink(0xcbf2_9ce4_8422_2325)));
    sys.set_mt_observer(sink.clone());
    sys.run_until_mt(30_000, 3_000_000);
    let stream = sink.borrow().0;
    format!(
        "{config}: stream={stream:016x} cycle={} lt={} reboots={}",
        sys.cycle(),
        sys.lt().committed(0),
        sys.reboots
    )
}

/// The look-ahead link, pinned per R3 piece: plain DLA, full R3, and
/// each piece on its own (T1 offload, value reuse, the 32-entry fetch
/// buffer, dynamic recycling). `rgbyuv_like` shrinks its skeleton
/// under T1 and fills the larger fetch buffer; `cg_like` switches
/// skeleton versions under recycling and reboots under R3.
#[test]
fn lookahead_pieces_are_pinned() {
    let names = ["rgbyuv_like", "cg_like"];
    let workloads: Vec<_> = suite()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    let prepared = parallel_map(&workloads, 2, |w| Prepared::new(w, Scale::Tiny));
    let rows: Vec<String> = prepared
        .iter()
        .flat_map(|p| {
            ["dla", "r3", "dla_t1", "dla_vr", "dla_fb", "dla_rc"]
                .map(|c| format!("{} {}", p.name, lookahead_row(p, c)))
        })
        .collect();
    let want = [
        "rgbyuv_like dla: stream=ebf7fe61bb5bc293 cycle=26407 lt=25344 reboots=0",
        "rgbyuv_like r3: stream=803c1b1937bb96b9 cycle=33908 lt=13038 reboots=0",
        "rgbyuv_like dla_t1: stream=bdb161ab6afffc0a cycle=35185 lt=11698 reboots=0",
        "rgbyuv_like dla_vr: stream=63608f78d2fb7e8d cycle=27033 lt=25344 reboots=0",
        "rgbyuv_like dla_fb: stream=87a272aa4eceaeff cycle=26378 lt=25359 reboots=0",
        "rgbyuv_like dla_rc: stream=ebf7fe61bb5bc293 cycle=26407 lt=25344 reboots=0",
        "cg_like dla: stream=fd0b8876fa25bc62 cycle=23459 lt=18192 reboots=0",
        "cg_like r3: stream=4728906e2596e0c2 cycle=24187 lt=21506 reboots=1",
        "cg_like dla_t1: stream=e9144059fafa70d9 cycle=23808 lt=18192 reboots=0",
        "cg_like dla_vr: stream=61b017c4c9b62cd8 cycle=23454 lt=18188 reboots=0",
        "cg_like dla_fb: stream=ff8bd6a3c1993b0f cycle=23459 lt=18192 reboots=0",
        "cg_like dla_rc: stream=260517c36a05186f cycle=23761 lt=21584 reboots=0",
    ];
    assert_eq!(rows, want, "look-ahead rows");
}
