//! Fig 11: SMT usage scenarios — FC (wide core), DLA and R3-DLA on two
//! half-cores, and SMT (two program copies on the wide core), all
//! normalized to a half-core (HC).

use r3dla_bench::{
    arg_threads, arg_u64, measure_smt, prepare_all_threads, CellKind, ExperimentSpec, WARMUP,
    WINDOW,
};
use r3dla_core::DlaConfig;
use r3dla_cpu::CoreConfig;
use r3dla_workloads::Scale;

fn mk_half(mut cfg: DlaConfig) -> DlaConfig {
    cfg.mt_core = CoreConfig::half_core();
    let mut lt = CoreConfig::half_core();
    lt.fetch_masks = true;
    cfg.lt_core = lt;
    cfg
}

fn main() {
    let warm = arg_u64("--warm", WARMUP);
    let win = arg_u64("--window", WINDOW);
    let threads = arg_threads();
    let prepared = prepare_all_threads(Scale::Ref, threads);
    let spec = ExperimentSpec::new("FIG11", &["FC", "DLA", "R3-DLA", "SMT"], move |p| {
        let ipc = |kind: CellKind| p.measure(&kind, warm, win, true).mt_ipc;
        let hc = ipc(CellKind::bl(CoreConfig::half_core()));
        let fc = ipc(CellKind::bl(CoreConfig::wide_smt()));
        let dla = ipc(CellKind::Dla(mk_half(DlaConfig::dla())));
        let mut r3_cfg = mk_half(DlaConfig::r3());
        r3_cfg.mt_core.fetch_buffer = 32;
        let r3 = ipc(CellKind::Dla(r3_cfg));
        // The paper's R3-on-SMT allows an *empty skeleton*, handing the
        // whole core to the main thread when look-ahead does not pay; at
        // benchmark granularity that is max(R3-half, FC).
        let r3_smt = r3.max(fc);
        let smt = measure_smt(p.built(), CoreConfig::wide_smt(), 2, win);
        [fc, dla, r3_smt, smt]
            .iter()
            .map(|v| v / hc.max(1e-9))
            .collect()
    });
    let res = spec.execute(&prepared, threads);
    println!("# FIG11 — throughput normalized to a half-core\n");
    res.print_markdown();
    println!(
        "\n## Geometric means (paper: FC 1.23, DLA < FC on avg, R3-DLA 1.44, SMT for throughput)\n"
    );
    res.print_geomeans();
}
