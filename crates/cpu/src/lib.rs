//! A cycle-stepped out-of-order core for the R3-DLA simulator.
//!
//! Models the paper's Table I baseline: a 20-stage, 4-wide out-of-order
//! pipeline with a 192-entry ROB, 96-entry LSQ, TAGE-class branch
//! prediction, BTB and RAS, plus everything decoupled look-ahead needs to
//! attach to it:
//!
//! * per-thread [`ThreadHooks`], passed to every [`Core::step`]: the
//!   fetch-direction source (so the main thread can be fed from the
//!   Branch Outcome Queue), the fetch filter (so the look-ahead thread
//!   can delete skeleton-masked instructions at fetch), value prediction
//!   with replay-on-mispredict and the validation-skip scoreboard (paper
//!   Fig 4), functional memory, and the commit stream from which the
//!   BOQ/FQ are generated; [`BaseHooks`] is a conventional thread's;
//! * SMT: several hardware threads sharing one wide backend (paper
//!   §IV-B3).
//!
//! # Examples
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use std::sync::Arc;
//! use r3dla_cpu::{BaseHooks, Core, CoreConfig};
//! use r3dla_isa::{Asm, Reg, ArchState};
//! use r3dla_mem::{CoreMem, MemConfig, SharedLlc};
//!
//! // A counted loop.
//! let mut a = Asm::new();
//! let (i, n) = (Reg::int(10), Reg::int(11));
//! a.li(i, 0);
//! a.li(n, 100);
//! a.label("loop");
//! a.addi(i, i, 1);
//! a.blt(i, n, "loop");
//! a.halt();
//! let prog = Arc::new(a.finish().unwrap());
//!
//! let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
//! let mem = CoreMem::new(&MemConfig::paper(), shared);
//! let mut core = Core::new(CoreConfig::paper(), Arc::clone(&prog), mem);
//! let t = core.add_thread(prog.entry(), ArchState::new(prog.entry()).regs());
//! let mut hooks = [BaseHooks::new(&prog)];
//! core.run(&mut hooks, 100_000);
//! assert!(core.thread_halted(t));
//! assert_eq!(core.arch_regs(t)[10], 100);
//! ```

mod config;
mod core;
mod counters;
mod iface;
mod prf;
mod ring;

pub use crate::core::{Core, ThreadStats, MASK_BASE};
pub use config::{CoreConfig, CoreConfigBuilder};
pub use counters::ActivityCounters;
pub use iface::{BaseHooks, CommitRecord, CommitSink, Observer, ThreadHooks};
pub use prf::Prf;

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_isa::{ArchState, Asm, DataMem, Program, Reg, VecMem};
    use r3dla_mem::{CoreMem, MemConfig, SharedLlc};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    fn build_core(prog: &Arc<Program>) -> (Core, usize, [BaseHooks; 1]) {
        let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
        let mem = CoreMem::new(&MemConfig::paper(), shared);
        let mut core = Core::new(CoreConfig::paper(), Arc::clone(prog), mem);
        let t = core.add_thread(prog.entry(), ArchState::new(prog.entry()).regs());
        (core, t, [BaseHooks::new(prog)])
    }

    /// Runs a program on the timing core and functionally, asserting the
    /// architectural end states agree — the golden-model check.
    fn check_against_functional(prog: Arc<Program>, max_cycles: u64) -> (Core, usize) {
        let (mut core, t, mut h) = build_core(&prog);
        core.run(&mut h, max_cycles);
        assert!(core.thread_halted(t), "core did not halt");
        let mut st = ArchState::new(prog.entry());
        let mut fm = VecMem::new();
        fm.load_image(prog.image());
        let steps = r3dla_isa::run(&prog, &mut st, &mut fm, 100_000_000).expect("functional run");
        assert_eq!(
            core.committed(t),
            steps,
            "committed count must equal functional instruction count"
        );
        for r in 0..Reg::COUNT {
            assert_eq!(core.arch_regs(t)[r], st.regs()[r], "register {r} mismatch");
        }
        (core, t)
    }

    #[test]
    fn straightline_alu_program() {
        let mut a = Asm::new();
        let x = Reg::int(10);
        let y = Reg::int(11);
        a.li(x, 6);
        a.li(y, 7);
        a.mul(x, x, y);
        a.addi(x, x, 58);
        a.halt();
        check_against_functional(Arc::new(a.finish().unwrap()), 10_000);
    }

    #[test]
    fn loop_with_memory_matches_functional() {
        let mut a = Asm::new();
        let arr = a.data().words(&[0; 64]);
        let (i, n, base, v) = (Reg::int(10), Reg::int(11), Reg::int(12), Reg::int(13));
        a.li(i, 0);
        a.li(n, 64);
        a.li(base, arr as i64);
        a.label("loop");
        a.slli(v, i, 1); // v = 2i
        a.slli(Reg::int(14), i, 3);
        a.add(Reg::int(14), Reg::int(14), base);
        a.st(v, Reg::int(14), 0); // arr[i] = 2i
        a.ld(Reg::int(15), Reg::int(14), 0);
        a.add(Reg::int(16), Reg::int(16), Reg::int(15)); // acc += arr[i]
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let (core, t) = check_against_functional(Arc::new(a.finish().unwrap()), 200_000);
        // acc = sum of 2i for i in 0..64 = 64*63 = 4032.
        assert_eq!(core.arch_regs(t)[16], 4032);
    }

    #[test]
    fn store_to_load_forwarding_value_correct() {
        let mut a = Asm::new();
        let slot = a.data().words(&[0]);
        let b = Reg::int(10);
        a.li(b, slot as i64);
        a.li(Reg::int(11), 1234);
        a.st(Reg::int(11), b, 0);
        a.ld(Reg::int(12), b, 0); // must forward 1234
        a.addi(Reg::int(12), Reg::int(12), 1);
        a.halt();
        let (core, t) = check_against_functional(Arc::new(a.finish().unwrap()), 10_000);
        assert_eq!(core.arch_regs(t)[12], 1235);
    }

    #[test]
    fn calls_and_returns_match_functional() {
        let mut a = Asm::new();
        let x = Reg::int(10);
        a.li(x, 1);
        a.call("f");
        a.call("f");
        a.call("f");
        a.halt();
        a.label("f");
        a.add(x, x, x);
        a.ret();
        check_against_functional(Arc::new(a.finish().unwrap()), 20_000);
    }

    #[test]
    fn data_dependent_branches_match_functional() {
        // Branches whose direction depends on loaded data (predictor will
        // mispredict; squash/recovery must preserve semantics).
        let mut a = Asm::new();
        let mut vals = Vec::new();
        let mut rng = r3dla_stats::Rng::new(42);
        for _ in 0..128 {
            vals.push(rng.range_u64(0, 2));
        }
        let arr = a.data().words(&vals);
        let (i, n, base, v, acc) = (
            Reg::int(10),
            Reg::int(11),
            Reg::int(12),
            Reg::int(13),
            Reg::int(14),
        );
        a.li(i, 0);
        a.li(n, 128);
        a.li(base, arr as i64);
        a.label("loop");
        a.slli(v, i, 3);
        a.add(v, v, base);
        a.ld(v, v, 0);
        a.beq(v, Reg::ZERO, "skip");
        a.addi(acc, acc, 1);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let expected: u64 = vals.iter().sum();
        let (core, t) = check_against_functional(Arc::new(a.finish().unwrap()), 500_000);
        assert_eq!(core.arch_regs(t)[14], expected);
        assert!(
            core.counters.branch_mispredicts.get() > 0,
            "should mispredict sometimes"
        );
        assert!(core.counters.squashed.get() > 0, "squashes should occur");
    }

    #[test]
    fn division_and_fp_latencies_respected() {
        let mut a = Asm::new();
        let (x, y) = (Reg::int(10), Reg::int(11));
        a.li(x, 1000);
        a.li(y, 7);
        a.div(x, x, y); // 142
        a.cvtif(Reg::fp(1), x);
        a.fadd(Reg::fp(2), Reg::fp(1), Reg::fp(1));
        a.cvtfi(Reg::int(12), Reg::fp(2)); // 284
        a.halt();
        let (core, t) = check_against_functional(Arc::new(a.finish().unwrap()), 10_000);
        assert_eq!(core.arch_regs(t)[12], 284);
    }

    #[test]
    fn ipc_bounded_by_machine_width() {
        // A loop of independent ALU work: the I-cache warms quickly and
        // steady-state IPC should approach (but never exceed) the width.
        let mut a = Asm::new();
        let (i, n) = (Reg::int(10), Reg::int(11));
        a.li(i, 0);
        a.li(n, 2000);
        a.label("loop");
        for k in 0..16 {
            a.li(Reg::int(12 + (k % 8) as u8), k);
        }
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let prog = Arc::new(a.finish().unwrap());
        let (mut core, t, mut h) = build_core(&prog);
        core.run(&mut h, 200_000);
        assert!(core.thread_halted(t));
        let ipc = core.committed(t) as f64 / core.cycle() as f64;
        assert!(ipc <= 4.0 + 1e-9, "IPC {ipc} exceeds machine width");
        assert!(ipc > 1.5, "IPC {ipc} suspiciously low for pure ALU loop");
    }

    #[test]
    fn pointer_chase_is_memory_bound() {
        // Build a random cyclic permutation and chase it: every load
        // depends on the previous one and misses often.
        let mut rng = r3dla_stats::Rng::new(7);
        let n = 4096usize;
        let mut perm: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut perm);
        let mut a = Asm::new();
        let arr = a.data().alloc_words(n);
        for (i, &p) in perm.iter().enumerate() {
            a.data().put_word(arr + (i as u64) * 8, arr + p * 8);
        }
        let (cur, cnt, lim) = (Reg::int(10), Reg::int(11), Reg::int(12));
        a.li(cur, arr as i64);
        a.li(cnt, 0);
        a.li(lim, 2000);
        a.label("chase");
        a.ld(cur, cur, 0);
        a.addi(cnt, cnt, 1);
        a.blt(cnt, lim, "chase");
        a.halt();
        let prog = Arc::new(a.finish().unwrap());
        let (mut core, t, mut h) = build_core(&prog);
        core.run(&mut h, 3_000_000);
        assert!(core.thread_halted(t));
        let ipc = core.committed(t) as f64 / core.cycle() as f64;
        assert!(ipc < 1.0, "pointer chasing should be slow, IPC={ipc}");
    }

    #[test]
    fn wrong_path_work_is_counted() {
        // A hard-to-predict branch causes wrong-path execution; executed
        // must exceed committed.
        let mut rng = r3dla_stats::Rng::new(3);
        let vals: Vec<u64> = (0..256).map(|_| rng.range_u64(0, 2)).collect();
        let mut a = Asm::new();
        let arr = a.data().words(&vals);
        let (i, n, base, v, x) = (
            Reg::int(10),
            Reg::int(11),
            Reg::int(12),
            Reg::int(13),
            Reg::int(14),
        );
        a.li(i, 0);
        a.li(n, 256);
        a.li(base, arr as i64);
        a.label("loop");
        a.slli(v, i, 3);
        a.add(v, v, base);
        a.ld(v, v, 0);
        a.beq(v, Reg::ZERO, "zero");
        a.addi(x, x, 3);
        a.addi(x, x, 5);
        a.j("join");
        a.label("zero");
        a.addi(x, x, 1);
        a.addi(x, x, 2);
        a.label("join");
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let prog = Arc::new(a.finish().unwrap());
        let (mut core, t, mut h) = build_core(&prog);
        core.run(&mut h, 1_000_000);
        assert!(core.thread_halted(t));
        assert!(
            core.counters.executed.get() > core.committed(t),
            "wrong-path execution should inflate executed count"
        );
    }

    #[test]
    fn smt_two_threads_both_make_progress() {
        let mut a = Asm::new();
        let (i, n) = (Reg::int(10), Reg::int(11));
        a.li(i, 0);
        a.li(n, 2000);
        a.label("loop");
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let prog = Arc::new(a.finish().unwrap());
        let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
        let mem = CoreMem::new(&MemConfig::paper(), shared);
        let mut core = Core::new(CoreConfig::wide_smt(), Arc::clone(&prog), mem);
        for _ in 0..2 {
            core.add_thread(prog.entry(), ArchState::new(prog.entry()).regs());
        }
        let mut h = [BaseHooks::new(&prog), BaseHooks::new(&prog)];
        core.run(&mut h, 1_000_000);
        assert!(core.thread_halted(0));
        assert!(core.thread_halted(1));
        assert_eq!(core.arch_regs(0)[10], 2000);
        assert_eq!(core.arch_regs(1)[10], 2000);
    }

    #[test]
    fn reboot_restarts_thread_with_new_state() {
        let mut a = Asm::new();
        a.label("spin");
        a.addi(Reg::int(10), Reg::int(10), 1);
        a.j("spin");
        a.halt();
        let prog = Arc::new(a.finish().unwrap());
        let (mut core, t, mut h) = build_core(&prog);
        for _ in 0..2000 {
            core.step(&mut h);
        }
        let before = core.committed(t);
        assert!(before > 0);
        let mut regs = [0u64; Reg::COUNT];
        regs[10] = 5_000_000;
        core.reboot_thread(t, prog.entry(), regs, 64);
        // After reboot, the counter continues from the injected state.
        for _ in 0..2000 {
            core.step(&mut h);
        }
        assert!(
            core.arch_regs(t)[10] >= 5_000_000,
            "reboot state not applied"
        );
    }

    #[test]
    fn fetch_buffer_capacity_is_respected() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let prog = Arc::new(a.finish().unwrap());
        let (mut core, t, mut h) = build_core(&prog);
        for _ in 0..200 {
            core.step(&mut h);
        }
        let max_occ = core.thread_stats(t).fetch_occupancy.max().unwrap_or(0);
        assert!(
            max_occ <= CoreConfig::paper().fetch_buffer as u64,
            "occupancy {max_occ} exceeded capacity"
        );
    }

    // ------------------------------------------------------------------
    // Event-driven fast path (`next_event_at` / `skip_to`)
    // ------------------------------------------------------------------

    /// A pointer-chase program over a shuffled permutation — every load
    /// depends on the previous one and misses, producing the long
    /// quiescent stalls the fast path exists for.
    fn chase_program(iters: i64) -> Arc<Program> {
        let mut rng = r3dla_stats::Rng::new(7);
        let n = 4096usize;
        let mut perm: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut perm);
        let mut a = Asm::new();
        let arr = a.data().alloc_words(n);
        for (i, &p) in perm.iter().enumerate() {
            a.data().put_word(arr + (i as u64) * 8, arr + p * 8);
        }
        let (cur, cnt, lim) = (Reg::int(10), Reg::int(11), Reg::int(12));
        a.li(cur, arr as i64);
        a.li(cnt, 0);
        a.li(lim, iters);
        a.label("chase");
        a.ld(cur, cur, 0);
        a.addi(cnt, cnt, 1);
        a.blt(cnt, lim, "chase");
        a.halt();
        Arc::new(a.finish().unwrap())
    }

    /// Full observable state of a core, for skip-equivalence comparisons:
    /// clock, per-thread architectural state, activity counters and
    /// per-cycle statistics (histograms included).
    fn core_fingerprint(core: &Core, threads: usize) -> String {
        let mut s = format!("cycle={} counters={:?}", core.cycle(), core.counters);
        for t in 0..threads {
            s.push_str(&format!(
                " t{}: committed={} pc={:#x} regs={:?} stats={:?}",
                t,
                core.committed(t),
                core.arch_pc(t),
                core.arch_regs(t),
                core.thread_stats(t),
            ));
        }
        s
    }

    /// Drives `core` cycle by cycle (the reference path).
    fn run_slow<H: ThreadHooks>(core: &mut Core, h: &mut [H], max_cycles: u64) {
        let start = core.cycle();
        while !core.halted() && core.cycle() - start < max_cycles {
            core.step(h);
        }
    }

    /// Drives `core` through the event-driven fast path; returns the
    /// number of cycles fast-forwarded (to prove the path was exercised).
    fn run_fast<H: ThreadHooks>(core: &mut Core, h: &mut [H], max_cycles: u64) -> u64 {
        let start = core.cycle();
        let mut skipped = 0;
        while !core.halted() && core.cycle() - start < max_cycles {
            match core.next_event_at(h) {
                Some(wake) => {
                    let target = wake.min(start + max_cycles);
                    skipped += target - core.cycle();
                    core.skip_to(target);
                }
                None => core.step(h),
            }
        }
        skipped
    }

    #[test]
    fn skip_equivalence_on_memory_stalls() {
        let prog = chase_program(1_500);
        let (mut fast, tf, mut hf) = build_core(&prog);
        let (mut slow, ts, mut hs) = build_core(&prog);
        let skipped = run_fast(&mut fast, &mut hf, 3_000_000);
        run_slow(&mut slow, &mut hs, 3_000_000);
        assert!(fast.thread_halted(tf) && slow.thread_halted(ts));
        assert!(
            skipped > 10_000,
            "a memory-bound chase must fast-forward substantially, skipped {skipped}"
        );
        assert_eq!(core_fingerprint(&fast, 1), core_fingerprint(&slow, 1));
    }

    #[test]
    fn skip_equivalence_smt_with_early_thread_halt() {
        // Two SMT threads of very different lengths on one backend (the
        // trip count loads from thread-private memory, so one program
        // serves both): the fast path must stay exact across the short
        // thread's halt and keep fast-forwarding the survivor's stalls.
        let mut rng = r3dla_stats::Rng::new(11);
        let n = 4096usize;
        let mut perm: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut perm);
        let mut a = Asm::new();
        let arr = a.data().alloc_words(n);
        for (i, &p) in perm.iter().enumerate() {
            a.data().put_word(arr + (i as u64) * 8, arr + p * 8);
        }
        let limword = a.data().alloc_words(1);
        a.data().put_word(limword, 400);
        let (cur, cnt, lim) = (Reg::int(10), Reg::int(11), Reg::int(12));
        a.li(cur, arr as i64);
        a.li(cnt, 0);
        a.li(lim, limword as i64);
        a.ld(lim, lim, 0);
        a.label("chase");
        a.ld(cur, cur, 0);
        a.addi(cnt, cnt, 1);
        a.blt(cnt, lim, "chase");
        a.halt();
        let prog = Arc::new(a.finish().unwrap());
        let build_pair = || {
            let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
            let mem = CoreMem::new(&MemConfig::paper(), shared);
            let mut core = Core::new(CoreConfig::paper(), Arc::clone(&prog), mem);
            let hooks = [400u64, 40].map(|iters| {
                core.add_thread(prog.entry(), ArchState::new(prog.entry()).regs());
                let mut h = BaseHooks::new(&prog);
                h.mem.store(limword, iters);
                h
            });
            (core, hooks)
        };
        let (mut fast, mut hf) = build_pair();
        let (mut slow, mut hs) = build_pair();
        let skipped = run_fast(&mut fast, &mut hf, 4_000_000);
        run_slow(&mut slow, &mut hs, 4_000_000);
        assert!(fast.halted() && slow.halted(), "both SMT threads must halt");
        assert!(
            fast.committed(0) > fast.committed(1),
            "thread 1 must be the short one"
        );
        assert!(skipped > 0, "SMT chase must still fast-forward");
        assert_eq!(core_fingerprint(&fast, 2), core_fingerprint(&slow, 2));
    }

    /// A thread whose directions are refilled externally — the
    /// core-level model of a BOQ-fed main thread.
    struct QueueHooks {
        supply: std::collections::VecDeque<bool>,
        mem: VecMem,
    }

    impl ThreadHooks for QueueHooks {
        fn predict(&mut self, _pc: u64) -> Option<bool> {
            self.supply.pop_front()
        }
        fn available(&self) -> bool {
            !self.supply.is_empty()
        }
        fn resolve(&mut self, _pc: u64, _taken: bool, _mispredicted: bool) {}
        fn load(&mut self, addr: u64) -> u64 {
            self.mem.load(addr)
        }
        fn store(&mut self, addr: u64, val: u64) {
            self.mem.store(addr, val);
        }
    }

    #[test]
    fn direction_starved_thread_is_quiescent_until_refill() {
        // A loop whose only control is a conditional branch, fed from an
        // external queue. Once the queue empties and the pipeline drains,
        // the core must report unbounded quiescence; refilling the queue
        // must make it runnable again — the hint-queue wakeup contract.
        let mut a = Asm::new();
        let (x, lim) = (Reg::int(10), Reg::int(11));
        a.li(x, 0);
        a.li(lim, 1_000_000);
        a.label("loop");
        a.addi(x, x, 1);
        a.blt(x, lim, "loop");
        a.halt();
        let prog = Arc::new(a.finish().unwrap());
        let build = || {
            let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
            let mem = CoreMem::new(&MemConfig::paper(), shared);
            let mut core = Core::new(CoreConfig::paper(), Arc::clone(&prog), mem);
            core.add_thread(prog.entry(), ArchState::new(prog.entry()).regs());
            let mut h = [QueueHooks {
                supply: [true; 32].into(),
                mem: BaseHooks::new(&prog).mem,
            }];
            // Drain the 32 supplied directions and the pipeline.
            for _ in 0..4_000 {
                core.step(&mut h);
            }
            assert!(h[0].supply.is_empty(), "supply must be exhausted");
            (core, h)
        };
        let (mut fast, mut hf) = build();
        let (mut slow, mut hs) = build();
        assert_eq!(
            fast.next_event_at(&hf),
            Some(u64::MAX),
            "a drained, direction-starved core has no intrinsic wakeup"
        );
        // Skipping 100 starved cycles must equal stepping through them.
        fast.skip_to(fast.cycle() + 100);
        for _ in 0..100 {
            slow.step(&mut hs);
        }
        assert_eq!(core_fingerprint(&fast, 1), core_fingerprint(&slow, 1));
        // Refill: both cores must wake and make identical progress again.
        let committed_before = fast.committed(0);
        for h in [&mut hf, &mut hs] {
            h[0].supply.extend([true; 64]);
        }
        assert_eq!(
            fast.next_event_at(&hf),
            None,
            "a refilled direction queue makes the thread runnable now"
        );
        for _ in 0..2_000 {
            fast.step(&mut hf);
            slow.step(&mut hs);
        }
        assert!(fast.committed(0) > committed_before);
        assert_eq!(core_fingerprint(&fast, 1), core_fingerprint(&slow, 1));
    }
}
