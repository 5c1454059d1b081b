//! Fig 9-a: overall speedups of BL(noPF)/BL/DLA(noPF)/DLA/R3(noPF)/R3,
//! normalized to BL (baseline with BOP at L2).

use r3dla_bench::{
    arg_threads, arg_u64, prepare_all_threads, CellKind, ExperimentSpec, WARMUP, WINDOW,
};
use r3dla_core::DlaConfig;
use r3dla_cpu::CoreConfig;
use r3dla_workloads::Scale;

fn main() {
    let warm = arg_u64("--warm", WARMUP);
    let win = arg_u64("--window", WINDOW);
    let threads = arg_threads();
    let prepared = prepare_all_threads(Scale::Ref, threads);
    let spec = ExperimentSpec::new(
        "FIG9a",
        &["BL(noPF)", "BL", "DLA(noPF)", "DLA", "R3(noPF)", "R3-DLA"],
        move |p| {
            let ipc = |kind: CellKind| p.measure(&kind, warm, win, true).mt_ipc;
            let bl = ipc(CellKind::bl(CoreConfig::paper()));
            let bl_nopf = ipc(CellKind::Single {
                core: CoreConfig::paper(),
                l1pf: None,
                l2pf: None,
            });
            let dla_nopf = ipc(CellKind::Dla(DlaConfig::dla().without_prefetcher()));
            let dla = ipc(CellKind::Dla(DlaConfig::dla()));
            let r3_nopf = ipc(CellKind::Dla(DlaConfig::r3().without_prefetcher()));
            let r3 = ipc(CellKind::Dla(DlaConfig::r3()));
            [bl_nopf, bl, dla_nopf, dla, r3_nopf, r3]
                .iter()
                .map(|v| v / bl.max(1e-9))
                .collect()
        },
    );
    let res = spec.execute(&prepared, threads);
    println!("# FIG9a — speedup over BL (aggressive OoO + BOP)\n");
    res.print_markdown();
    println!("\n## Suite geometric means (paper Fig 9-a: BL(noPF) 0.79, BL 1.00, DLA(noPF) 1.02, DLA 1.12, R3(noPF) 1.23, R3-DLA 1.40)\n");
    res.print_geomeans();
}
