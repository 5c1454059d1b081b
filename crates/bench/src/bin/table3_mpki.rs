//! Table III: L1 MPKI split between strided and non-strided accesses for
//! BL, BL+stride(L1), DLA, and DLA+T1.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use r3dla_bench::{
    arg_threads, arg_u64, prepare_all_threads, ExperimentSpec, Prepared, WARMUP, WINDOW,
};
use r3dla_core::{DlaConfig, SingleCoreSim};
use r3dla_cpu::{CommitRecord, CommitSink, CoreConfig};
use r3dla_mem::MemConfig;
use r3dla_workloads::Scale;

#[derive(Default)]
struct SplitSink {
    strided_pcs: HashSet<u64>,
    strided_misses: u64,
    other_misses: u64,
    committed: u64,
    active: bool,
}

impl CommitSink for SplitSink {
    fn on_commit(&mut self, rec: &CommitRecord) {
        if !self.active {
            return;
        }
        self.committed += 1;
        if rec.inst.is_load() && rec.l1_miss {
            if self.strided_pcs.contains(&rec.pc) {
                self.strided_misses += 1;
            } else {
                self.other_misses += 1;
            }
        }
    }
}

fn strided_pcs(p: &Prepared) -> HashSet<u64> {
    (0..p.program.len())
        .filter(|&i| {
            p.program.insts()[i].is_load()
                && p.profile.stride_ratio(i) >= 0.9
                && p.profile.mem_instances[i] >= 64
        })
        .map(|i| p.program.index_to_pc(i))
        .collect()
}

fn mpki(sink: &Rc<RefCell<SplitSink>>) -> (f64, f64) {
    let s = sink.borrow();
    let k = s.committed.max(1) as f64 / 1000.0;
    (s.strided_misses as f64 / k, s.other_misses as f64 / k)
}

fn main() {
    let warm = arg_u64("--warm", WARMUP);
    let win = arg_u64("--window", WINDOW);
    let threads = arg_threads();
    let prepared = prepare_all_threads(Scale::Ref, threads);
    // 4 configs × (strided, other) MPKI, row-major.
    let spec = ExperimentSpec::new(
        "TABLE3",
        &[
            "bl_s", "bl_o", "str_s", "str_o", "dla_s", "dla_o", "t1_s", "t1_o",
        ],
        move |p| {
            let pcs = strided_pcs(p);
            let mut row = Vec::with_capacity(8);
            // BL and BL+stride.
            for l1pf in [None, Some("stride")] {
                let mut sim = SingleCoreSim::build(
                    p.built(),
                    CoreConfig::paper(),
                    MemConfig::paper(),
                    l1pf,
                    Some("bop"),
                );
                let sink = Rc::new(RefCell::new(SplitSink {
                    strided_pcs: pcs.clone(),
                    ..Default::default()
                }));
                sim.set_observer(sink.clone());
                sim.run_until(warm, warm * 60 + 500_000);
                sink.borrow_mut().active = true;
                sim.run_until(win, win * 60 + 500_000);
                let (s, o) = mpki(&sink);
                row.push(s);
                row.push(o);
            }
            // DLA and DLA+T1.
            for t1 in [false, true] {
                let mut cfg = DlaConfig::dla();
                cfg.t1 = t1;
                let mut sys = p.dla_system(cfg);
                let sink = Rc::new(RefCell::new(SplitSink {
                    strided_pcs: pcs.clone(),
                    ..Default::default()
                }));
                sys.set_mt_observer(sink.clone());
                sys.run_until_mt(warm, warm * 60 + 500_000);
                sink.borrow_mut().active = true;
                sys.run_until_mt(win, win * 60 + 500_000);
                let (s, o) = mpki(&sink);
                row.push(s);
                row.push(o);
            }
            row
        },
    );
    let res = spec.execute(&prepared, threads);
    println!("# TABLE III — L1 MPKI by access class (mean / median over benchmarks)\n");
    println!("| config | strided mean | strided median | other mean | other median |");
    println!("|---|---|---|---|---|");
    let names = ["BL", "BL+stride", "DLA", "DLA+T1"];
    let paper = [
        "(paper 12.4/10.0, 7.4/3.9)",
        "(paper 8.4/4.8, 6.9/3.5)",
        "(paper 5.9/4.0, 6.1/2.8)",
        "(paper 2.1/1.1, 4.8/3.2)",
    ];
    for (k, name) in names.iter().enumerate() {
        let strided: Vec<f64> = res.column(2 * k).iter().map(|(_, v)| *v).collect();
        let other: Vec<f64> = res.column(2 * k + 1).iter().map(|(_, v)| *v).collect();
        println!(
            "| {name} {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            paper[k],
            r3dla_stats::mean(&strided),
            r3dla_stats::median(&strided),
            r3dla_stats::mean(&other),
            r3dla_stats::median(&other)
        );
    }
}
