//! Fig 12: DLA+stride-prefetcher vs DLA+T1 — speedup over baseline DLA
//! and normalized memory traffic.

use r3dla_bench::{
    arg_threads, arg_u64, prepare_all_threads, CellKind, ExperimentSpec, WARMUP, WINDOW,
};
use r3dla_core::DlaConfig;
use r3dla_workloads::Scale;

fn main() {
    let warm = arg_u64("--warm", WARMUP);
    let win = arg_u64("--window", WINDOW);
    let threads = arg_threads();
    let prepared = prepare_all_threads(Scale::Ref, threads);
    let spec = ExperimentSpec::new(
        "FIG12",
        &[
            "speedup DLA+stride",
            "speedup DLA+T1",
            "traffic DLA+stride",
            "traffic DLA+T1",
        ],
        move |p| {
            let run = |cfg: DlaConfig| p.measure(&CellKind::Dla(cfg), warm, win, true);
            let base = run(DlaConfig::dla());
            let stride = {
                let mut c = DlaConfig::dla();
                c.mt_l1_prefetcher = Some("stride");
                run(c)
            };
            let t1 = {
                let mut c = DlaConfig::dla();
                c.t1 = true;
                run(c)
            };
            // A workload without DRAM traffic has no traffic ratio
            // (0/0): NaN prints `n/a` and stays out of the geomeans.
            let traffic = |r: &r3dla_core::WindowReport| match base.dram_traffic {
                0 => f64::NAN,
                b => r.dram_traffic as f64 / b as f64,
            };
            vec![
                stride.mt_ipc / base.mt_ipc.max(1e-9),
                t1.mt_ipc / base.mt_ipc.max(1e-9),
                traffic(&stride),
                traffic(&t1),
            ]
        },
    );
    let res = spec.execute(&prepared, threads);
    println!("# FIG12 — DLA+stride vs DLA+T1 (speedup over DLA; traffic normalized)\n");
    res.print_markdown();
    println!(
        "\n## Geomeans (paper: speedup stride 1.06 vs T1 1.13-1.14; T1 traffic below stride)\n"
    );
    res.print_geomeans();
}
