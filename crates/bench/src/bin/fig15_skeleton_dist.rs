//! Fig 15: the distribution of skeleton versions chosen during on-line
//! recycling, per benchmark (committed-instruction weighted).

use r3dla_bench::{arg_threads, arg_u64, prepare_all_threads, ExperimentSpec, WARMUP, WINDOW};
use r3dla_core::DlaConfig;
use r3dla_workloads::Scale;

fn main() {
    let warm = arg_u64("--warm", WARMUP);
    let win = arg_u64("--window", 2 * WINDOW);
    let threads = arg_threads();
    let prepared = prepare_all_threads(Scale::Ref, threads);
    let spec = ExperimentSpec::new(
        "FIG15",
        &["default", "lean", "vr", "t1back", "biased", "max"],
        move |p| {
            let mut sys = p.dla_system(DlaConfig::r3());
            sys.run_until_mt(warm + win, (warm + win) * 60 + 1_000_000);
            let usage = &sys.active_skeleton().usage;
            let total: u64 = usage.iter().sum::<u64>().max(1);
            usage.iter().map(|&u| u as f64 / total as f64).collect()
        },
    );
    let res = spec.execute(&prepared, threads);
    println!("# FIG15 — skeleton-version usage under dynamic recycling\n");
    res.print_markdown();
    println!("\n(paper Fig 15: most windows mix several versions; no single version dominates everywhere)");
}
