//! Quick per-technique ablation over a handful of kernels: each R3
//! ingredient applied alone on top of baseline DLA.

use r3dla_bench::{arg_threads, prepare_some_threads, CellKind, ExperimentSpec};
use r3dla_core::{DlaConfig, RecycleMode};
use r3dla_workloads::Scale;

fn main() {
    let threads = arg_threads();
    let prepared = prepare_some_threads(
        &["cg_like", "libq_like", "hmmer_like", "pagerank"],
        Scale::Ref,
        threads,
    );
    let (warm, win) = (60_000, 250_000);
    let spec = ExperimentSpec::new(
        "ABLATE",
        &["DLA", "+T1 %", "+VR %", "+FB %", "+RC %", "R3 %"],
        move |p| {
            let run = |cfg: DlaConfig| p.measure(&CellKind::Dla(cfg), warm, win, true).mt_ipc;
            let base = run(DlaConfig::dla());
            let pct = |ipc: f64| (ipc / base - 1.0) * 100.0;
            let t1 = {
                let mut c = DlaConfig::dla();
                c.t1 = true;
                run(c)
            };
            let vr = {
                let mut c = DlaConfig::dla();
                c.value_reuse = true;
                run(c)
            };
            let fb = {
                let mut c = DlaConfig::dla();
                c.mt_core.fetch_buffer = 32;
                run(c)
            };
            let rc = {
                let mut c = DlaConfig::dla();
                c.recycle = RecycleMode::Dynamic;
                run(c)
            };
            let r3 = run(DlaConfig::r3());
            vec![base, pct(t1), pct(vr), pct(fb), pct(rc), pct(r3)]
        },
    );
    let res = spec.execute(&prepared, threads);
    for r in &res.rows {
        println!(
            "{:12} DLA {:.3} | +T1 {:+.1}% +VR {:+.1}% +FB {:+.1}% +RC {:+.1}% | R3 {:+.1}%",
            r.workload,
            r.values[0],
            r.values[1],
            r.values[2],
            r.values[3],
            r.values[4],
            r.values[5]
        );
    }
}
