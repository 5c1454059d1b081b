//! Quick end-to-end sanity check: BL vs DLA vs R3 IPC, reboot counts and
//! LT/MT commit ratio on a handful of kernels.

use r3dla_bench::{arg_threads, prepare_some_threads, CellKind, ExperimentSpec};
use r3dla_core::DlaConfig;
use r3dla_cpu::CoreConfig;
use r3dla_workloads::Scale;

fn main() {
    let threads = arg_threads();
    let prepared = prepare_some_threads(
        &[
            "mcf_like",
            "libq_like",
            "sjeng_like",
            "bfs",
            "cg_like",
            "md5_like",
        ],
        Scale::Ref,
        threads,
    );
    let (warm, win) = (30_000, 80_000);
    let spec = ExperimentSpec::new(
        "SANITY",
        &["BL", "DLA", "R3", "DLA reboots", "R3 reboots", "lt/mt"],
        move |p| {
            let run = |kind: CellKind| p.measure(&kind, warm, win, true);
            let bl = run(CellKind::bl(CoreConfig::paper()));
            let d = run(CellKind::Dla(DlaConfig::dla()));
            let r = run(CellKind::Dla(DlaConfig::r3()));
            vec![
                bl.mt_ipc,
                d.mt_ipc,
                r.mt_ipc,
                d.reboots as f64,
                r.reboots as f64,
                d.lt_committed as f64 / d.mt_committed.max(1) as f64,
            ]
        },
    );
    let res = spec.execute(&prepared, threads);
    for r in &res.rows {
        let (bl, dla, r3) = (r.values[0], r.values[1], r.values[2]);
        println!(
            "{:12} BL {:.3}  DLA {:.3} ({:+.1}%)  R3 {:.3} ({:+.1}%)  reboots {}/{}  lt/mt {:.2}",
            r.workload,
            bl,
            dla,
            (dla / bl - 1.0) * 100.0,
            r3,
            (r3 / bl - 1.0) * 100.0,
            r.values[3] as u64,
            r.values[4] as u64,
            r.values[5],
        );
    }
}
