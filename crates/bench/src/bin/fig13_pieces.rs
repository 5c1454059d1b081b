//! Fig 13: (a) fetch buffer over BL vs over DLA; (b) dynamic vs static
//! recycling; (c) synergy — each technique applied first vs last.

use r3dla_bench::{
    arg_threads, arg_u64, prepare_all_threads, CellKind, ExperimentSpec, Prepared, WARMUP, WINDOW,
};
use r3dla_core::{DlaConfig, RecycleMode};
use r3dla_cpu::CoreConfig;
use r3dla_workloads::Scale;

fn fb(cfg: &mut DlaConfig) {
    cfg.mt_core.fetch_buffer = 32;
}

fn static_tuned_ipc(p: &Prepared, warm: u64, win: u64) -> f64 {
    // Off-line per-loop tuning (paper §III-E2): run every version over a
    // training window, attribute per-loop IPC, build the static map, then
    // measure the tuned system.
    let base = p.dla_system(DlaConfig::dla());
    let mut tuned = r3dla_core::build_static_tuned(&base, DlaConfig::dla(), (win / 2).max(20_000));
    tuned.measure(warm, win).mt_ipc
}

fn main() {
    let warm = arg_u64("--warm", WARMUP);
    let win = arg_u64("--window", WINDOW);
    let threads = arg_threads();
    let prepared = prepare_all_threads(Scale::Ref, threads);
    // One row extractor computes all three sub-figures so the shared DLA
    // baseline is measured once per workload.
    let spec = ExperimentSpec::new(
        "FIG13",
        &[
            "FB/BL",
            "FB/DLA",
            "RC dyn",
            "RC static",
            "AS/RC first",
            "VR first",
            "FB first",
            "AS/RC last",
            "VR last",
            "FB last",
        ],
        move |p| {
            let ipc = |kind: CellKind| p.measure(&kind, warm, win, true).mt_ipc;
            let dla_ipc = |cfg: DlaConfig| ipc(CellKind::Dla(cfg));
            // ---- (a) fetch buffer ------------------------------------
            let bl8 = ipc(CellKind::bl(CoreConfig::paper()));
            let bl32 = {
                let mut c = CoreConfig::paper();
                c.fetch_buffer = 32;
                ipc(CellKind::bl(c))
            };
            let dla = dla_ipc(DlaConfig::dla());
            let dla_fb = {
                let mut c = DlaConfig::dla();
                fb(&mut c);
                dla_ipc(c)
            };
            // ---- (b) recycle: dynamic vs static ----------------------
            let dynamic = {
                let mut c = DlaConfig::dla();
                c.recycle = RecycleMode::Dynamic;
                dla_ipc(c)
            };
            let static_ipc = static_tuned_ipc(p, warm, win);
            // ---- (c) synergy: first vs last --------------------------
            let r3 = dla_ipc(DlaConfig::r3());
            let mut firsts = Vec::new();
            let mut lasts = Vec::new();
            // Apply techniques: 0 = AS/RC (adaptive skeleton), 1 = VR,
            // 2 = FB.
            for k in 0..3 {
                let mut only = DlaConfig::dla();
                let mut without = DlaConfig::r3();
                match k {
                    0 => {
                        only.recycle = RecycleMode::Dynamic;
                        without.recycle = RecycleMode::Off;
                    }
                    1 => {
                        only.value_reuse = true;
                        without.value_reuse = false;
                    }
                    _ => {
                        fb(&mut only);
                        without.mt_core.fetch_buffer = 8;
                    }
                }
                let only_ipc = dla_ipc(only);
                let without_ipc = dla_ipc(without);
                firsts.push(only_ipc / dla.max(1e-9));
                lasts.push(r3 / without_ipc.max(1e-9));
            }
            let mut row = vec![
                bl32 / bl8.max(1e-9),
                dla_fb / dla.max(1e-9),
                dynamic / dla.max(1e-9),
                static_ipc / dla.max(1e-9),
            ];
            row.extend(firsts);
            row.extend(lasts);
            row
        },
    );
    let res = spec.execute(&prepared, threads);
    println!("# FIG13a — fetch-buffer speedup (paper: BL +4% avg, DLA +8%)\n");
    println!("- FB over BL:  {:.3}", res.geomean(0));
    println!("- FB over DLA: {:.3}", res.geomean(1));
    println!("\n# FIG13b — recycle tuning (paper: dynamic 1.08, static 1.10)\n");
    println!("- dynamic: {:.3}", res.geomean(2));
    println!("- static:  {:.3}", res.geomean(3));
    println!(
        "\n# FIG13c — synergy: technique applied first vs last (paper: 2-5% first, 6-8% last)\n"
    );
    println!("| technique | first | last |");
    println!("|---|---|---|");
    for (k, name) in ["AS/RC", "VR", "FB"].iter().enumerate() {
        println!(
            "| {name} | {:.3} | {:.3} |",
            res.geomean(4 + k),
            res.geomean(7 + k)
        );
    }
}
