//! Fig 9-b: comparison with related approaches — B-Fetch, SlipStream,
//! CRE, DLA and R3-DLA, normalized to BL.

use r3dla_baselines::{slipstream_system, BFetchSim, CreSim};
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
        "FIG9b",
        &["B-Fetch", "S-Stream", "CRE", "DLA", "R3-DLA"],
        move |p| {
            let ipc = |kind: CellKind| p.measure(&kind, warm, win, true).mt_ipc;
            let bl = ipc(CellKind::bl(CoreConfig::paper()));
            let bf = BFetchSim::build(p.built()).measure(warm, win).0;
            let ss = slipstream_system(p.built()).measure(warm, win).mt_ipc;
            let cre = CreSim::build(p.built()).measure(warm, win).0;
            let dla = ipc(CellKind::Dla(DlaConfig::dla()));
            let r3 = ipc(CellKind::Dla(DlaConfig::r3()));
            [bf, ss, cre, dla, r3]
                .iter()
                .map(|v| v / bl.max(1e-9))
                .collect()
        },
    );
    let res = spec.execute(&prepared, threads);
    println!("# FIG9b — related approaches, speedup over BL\n");
    res.print_markdown();
    println!("\n## Geometric means (paper: B-Fetch 1.05, S-Stream 1.08, CRE 1.09, DLA 1.12, R3-DLA 1.40)\n");
    res.print_geomeans();
}
