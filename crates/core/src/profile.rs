//! Offline profiling (the paper's "training run"): per-static-instruction
//! cache miss rates, branch bias, stride consistency, observed memory
//! dependences, and — from a baseline timing run — dispatch-to-execute
//! latencies for value-reuse targeting.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use r3dla_cpu::{BaseHooks, CommitRecord, CommitSink, Core, CoreConfig};
use r3dla_isa::{run, step, ArchState, MemKind, Program, VecMem};
use r3dla_mem::{Cache, CacheConfig, CoreMem, MemConfig, SharedLlc};

/// Per-static-instruction profile gathered from a training run.
#[derive(Debug, Clone)]
pub struct ProfileData {
    /// Execution count per static instruction.
    pub exec_count: Vec<u64>,
    /// L1D misses per static memory instruction.
    pub l1_miss: Vec<u64>,
    /// L2 misses per static memory instruction.
    pub l2_miss: Vec<u64>,
    /// Taken count per static conditional branch.
    pub taken: Vec<u64>,
    /// Number of instances where a memory instruction repeated its
    /// previous address stride.
    pub stride_consistent: Vec<u64>,
    /// Instances per memory instruction (denominator for stride ratio).
    pub mem_instances: Vec<u64>,
    /// Whether the instruction's last observed occurrence was inside a
    /// loop (between a backward branch and its target).
    pub in_loop: Vec<bool>,
    /// Observed store→load dependences: load index → store indices.
    pub mem_deps: HashMap<usize, Vec<usize>>,
    /// Average dispatch-to-execute latency per static instruction (from a
    /// baseline timing run); 0 when never sampled.
    pub avg_d2e: Vec<f64>,
}

impl ProfileData {
    /// L1 miss ratio of static instruction `i`.
    pub fn l1_miss_rate(&self, i: usize) -> f64 {
        if self.mem_instances[i] == 0 {
            0.0
        } else {
            self.l1_miss[i] as f64 / self.mem_instances[i] as f64
        }
    }

    /// L2 miss ratio of static instruction `i`.
    pub fn l2_miss_rate(&self, i: usize) -> f64 {
        if self.mem_instances[i] == 0 {
            0.0
        } else {
            self.l2_miss[i] as f64 / self.mem_instances[i] as f64
        }
    }

    /// Branch bias (max of taken/not-taken ratio) of static branch `i`.
    pub fn bias(&self, i: usize) -> f64 {
        if self.exec_count[i] == 0 {
            return 0.0;
        }
        let t = self.taken[i] as f64 / self.exec_count[i] as f64;
        t.max(1.0 - t)
    }

    /// The biased direction of static branch `i` (true = taken).
    pub fn biased_taken(&self, i: usize) -> bool {
        self.taken[i] * 2 >= self.exec_count[i]
    }

    /// Stride consistency ratio of memory instruction `i`.
    pub fn stride_ratio(&self, i: usize) -> f64 {
        if self.mem_instances[i] < 4 {
            0.0
        } else {
            self.stride_consistent[i] as f64 / self.mem_instances[i] as f64
        }
    }
}

/// Runs the functional profiler over (at most) `max_insts` instructions of
/// a training execution.
///
/// Uses tag-array L1/L2 caches for miss attribution and tracks the last
/// writer of every address for memory-dependence capture.
pub fn profile_functional(prog: &Program, max_insts: u64) -> ProfileData {
    let n = prog.len();
    let mut data = ProfileData {
        exec_count: vec![0; n],
        l1_miss: vec![0; n],
        l2_miss: vec![0; n],
        taken: vec![0; n],
        stride_consistent: vec![0; n],
        mem_instances: vec![0; n],
        in_loop: vec![false; n],
        mem_deps: HashMap::new(),
        avg_d2e: vec![0.0; n],
    };
    let mut l1 = Cache::new(CacheConfig::l1());
    let mut l2 = Cache::new(CacheConfig::l2());
    let mut last_writer: HashMap<u64, usize> = HashMap::new();
    let mut last_addr: Vec<u64> = vec![0; n];
    let mut last_stride: Vec<i64> = vec![0; n];
    let mut loop_depth_marker: Vec<(u64, u64)> = Vec::new(); // (target, branch pc)
    let mut st = ArchState::new(prog.entry());
    let mut mem = VecMem::new();
    mem.load_image(prog.image());
    for _ in 0..max_insts {
        let pc = st.pc;
        let out = match step(prog, &mut st, &mut mem) {
            Ok(o) => o,
            Err(_) => break,
        };
        let idx = prog.pc_to_index(pc).expect("profiled pc in range");
        data.exec_count[idx] += 1;
        if let Some(taken) = out.taken {
            if taken {
                data.taken[idx] += 1;
                if out.next_pc < pc {
                    // Entering/continuing a loop body.
                    loop_depth_marker.push((out.next_pc, pc));
                    if loop_depth_marker.len() > 8 {
                        loop_depth_marker.remove(0);
                    }
                }
            }
        }
        if let Some((kind, addr, _)) = out.mem {
            data.mem_instances[idx] += 1;
            if !l1.touch(addr) {
                data.l1_miss[idx] += 1;
                if !l2.touch(addr) {
                    data.l2_miss[idx] += 1;
                }
            }
            let stride = addr as i64 - last_addr[idx] as i64;
            if data.mem_instances[idx] > 1 && stride == last_stride[idx] && stride != 0 {
                data.stride_consistent[idx] += 1;
            }
            last_stride[idx] = stride;
            last_addr[idx] = addr;
            data.in_loop[idx] = loop_depth_marker.iter().any(|&(t, b)| pc >= t && pc <= b);
            match kind {
                MemKind::Store => {
                    last_writer.insert(addr, idx);
                }
                MemKind::Load => {
                    if let Some(&w) = last_writer.get(&addr) {
                        let deps = data.mem_deps.entry(idx).or_default();
                        if !deps.contains(&w) {
                            deps.push(w);
                        }
                    }
                }
            }
        }
        if out.halted {
            break;
        }
    }
    data
}

struct D2eSink {
    sum: Vec<f64>,
    count: Vec<u64>,
    prog: Arc<Program>,
}

impl CommitSink for D2eSink {
    fn on_commit(&mut self, rec: &CommitRecord) {
        if let Some(idx) = self.prog.pc_to_index(rec.pc) {
            self.sum[idx] += rec.dispatch_to_exec as f64;
            self.count[idx] += 1;
        }
    }
}

/// Augments `data` with dispatch-to-execute latencies measured on the
/// baseline timing core over (at most) `max_insts` committed instructions.
pub fn profile_timing(prog: &Rc<Program>, data: &mut ProfileData, max_insts: u64) {
    let mem_cfg = MemConfig::paper();
    let shared = Rc::new(RefCell::new(SharedLlc::new(&mem_cfg)));
    let mut core_mem = CoreMem::new(&mem_cfg, shared);
    if let Some(pf) = r3dla_prefetch::by_name("bop") {
        core_mem.set_l2_prefetcher(pf);
    }
    let program = Arc::new(Program::clone(prog));
    let mut core = Core::new(CoreConfig::paper(), Arc::clone(&program), core_mem);
    let t = core.add_thread(prog.entry(), ArchState::new(prog.entry()).regs());
    let sink = D2eSink {
        sum: vec![0.0; prog.len()],
        count: vec![0; prog.len()],
        prog: program,
    };
    let mut hooks = [BaseHooks::with_sink(prog, sink)];
    let max_cycles = max_insts * 30; // generous bound
    let mut last_probe = u64::MAX;
    while !core.halted() && core.committed(t) < max_insts && core.cycle() < max_cycles {
        // Fast-forward quiescent stretches (cold-cache stalls dominate
        // the training run); identical results to stepping every cycle.
        core.step_or_skip(&mut hooks, max_cycles, &mut last_probe);
    }
    let sink = &hooks[0].sink;
    for i in 0..prog.len() {
        if sink.count[i] > 0 {
            data.avg_d2e[i] = sink.sum[i] / sink.count[i] as f64;
        }
    }
}

/// Convenience: functional profile + timing augmentation.
pub fn profile(prog: &Rc<Program>, max_insts: u64) -> ProfileData {
    let mut data = profile_functional(prog, max_insts);
    profile_timing(prog, &mut data, timing_budget(max_insts));
    data
}

/// Committed instructions [`profile`] gives its timing pass after a
/// functional pass over `max_insts`.
pub fn timing_budget(max_insts: u64) -> u64 {
    (max_insts / 4).max(20_000)
}

/// Runs a pure functional execution to completion and returns the dynamic
/// instruction count (used by experiment harnesses for window sizing).
pub fn dynamic_length(prog: &Program, cap: u64) -> u64 {
    let mut st = ArchState::new(prog.entry());
    let mut mem = VecMem::new();
    mem.load_image(prog.image());
    run(prog, &mut st, &mut mem, cap).unwrap_or(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_isa::{Asm, Reg};

    fn strided_and_biased_program() -> Program {
        let mut a = Asm::new();
        let arr = a.data().alloc_words(4096);
        let (i, n, b, v) = (Reg::int(10), Reg::int(11), Reg::int(12), Reg::int(13));
        a.li(i, 0);
        a.li(n, 4096);
        a.li(b, arr as i64);
        a.label("loop");
        a.slli(v, i, 3);
        a.add(v, v, b);
        a.ld(Reg::int(14), v, 0); // strided load (index 5)
        a.addi(i, i, 1);
        a.blt(i, n, "loop"); // biased taken branch
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn detects_stride_and_bias() {
        let p = strided_and_biased_program();
        let d = profile_functional(&p, 1_000_000);
        // Find the load.
        let load_idx = p.insts().iter().position(|i| i.is_load()).unwrap();
        assert!(
            d.stride_ratio(load_idx) > 0.9,
            "ratio={}",
            d.stride_ratio(load_idx)
        );
        assert!(d.in_loop[load_idx]);
        let br_idx = p.insts().iter().position(|i| i.is_cond_branch()).unwrap();
        assert!(d.bias(br_idx) > 0.99);
        assert!(d.biased_taken(br_idx));
    }

    #[test]
    fn l1_misses_attributed_to_streaming_load() {
        let p = strided_and_biased_program();
        let d = profile_functional(&p, 1_000_000);
        let load_idx = p.insts().iter().position(|i| i.is_load()).unwrap();
        // 4096 words = 512 lines; one miss per 8 accesses.
        assert!(d.l1_miss[load_idx] >= 500, "misses={}", d.l1_miss[load_idx]);
        assert!(d.l1_miss_rate(load_idx) > 0.1);
    }

    #[test]
    fn memory_dependences_observed() {
        let mut a = Asm::new();
        let slot = a.data().words(&[0]);
        let b = Reg::int(10);
        a.li(b, slot as i64);
        a.li(Reg::int(11), 9);
        a.st(Reg::int(11), b, 0); // 2
        a.ld(Reg::int(12), b, 0); // 3
        a.halt();
        let p = a.finish().unwrap();
        let d = profile_functional(&p, 1000);
        assert_eq!(d.mem_deps.get(&3), Some(&vec![2usize]));
    }

    #[test]
    fn timing_profile_marks_slow_instructions() {
        // A pointer chase is slow; an add is not.
        let mut rng = r3dla_stats::Rng::new(5);
        let n = 8192usize;
        let mut a = Asm::new();
        let arr = a.data().alloc_words(n);
        let mut perm: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            let j = rng.range_usize(0, i);
            perm.swap(i, j);
        }
        for (i, &pv) in perm.iter().enumerate() {
            a.data().put_word(arr + (i as u64) * 8, arr + pv * 8);
        }
        let (cur, cnt, lim) = (Reg::int(10), Reg::int(11), Reg::int(12));
        a.li(cur, arr as i64);
        a.li(cnt, 0);
        a.li(lim, 4000);
        a.label("chase");
        a.ld(cur, cur, 0); // 3: slow load
        a.addi(cnt, cnt, 1); // 4: fast add
        a.blt(cnt, lim, "chase");
        a.halt();
        let p = Rc::new(a.finish().unwrap());
        let mut d = profile_functional(&p, 100_000);
        profile_timing(&p, &mut d, 20_000);
        assert!(
            d.avg_d2e[3] > d.avg_d2e[4] + 5.0,
            "load {} vs add {}",
            d.avg_d2e[3],
            d.avg_d2e[4]
        );
    }
}
