//! The parallel experiment runner CLI: measures a (workload ×
//! configuration) grid on a worker pool and writes machine-readable JSON.
//!
//! ```text
//! runner [--scale tiny|train|ref] [--threads N] [--warm N] [--window N]
//!        [--workloads a,b,c] [--configs bl,dla,r3,...] [--out FILE]
//!        [--timing] [--timing-out FILE] [--no-skip]
//!        [--filter W[/C]] [--list] [--progress]
//!        [--sample k:U:W] [--check-against FILE] [--check-tolerance T]
//! --warm/--window default to 40000/150000 at train and ref scale, and to
//! 0/1000000000 (each program whole, to Halt) at tiny scale.
//! ```
//!
//! `--help` (or `-h`) prints that usage block and exits.
//!
//! Telemetry (stderr/sidecar only, never the report): `--progress`
//! prints a live done/total line; `R3DLA_TRACE=path` records a Chrome
//! trace; `R3DLA_TELEMETRY=1` writes a `*.telemetry.json` sidecar next
//! to `--out` (see `docs/OBSERVABILITY.md`).
//!
//! The default JSON is byte-identical across `--threads` settings and
//! across `--no-skip` (which disables the behavior-preserving
//! event-driven cycle skipping — CI diffs the two paths); `--timing`
//! adds wall-clock and simulated-MIPS fields, and `--timing-out FILE`
//! writes that timed variant alongside the deterministic one from the
//! same run. Exits non-zero when any cell commits zero instructions.
//!
//! A whole-window grid (no `--sample`) exits 2 before preparing
//! anything when `--warm` alone reaches the end of a workload at the
//! chosen scale: such a cell could only commit zero instructions.
//!
//! `--filter W[/C]` narrows the grid to workloads containing `W` and
//! configs containing `C` (rerun one cell without the whole suite);
//! `--list` prints the available names and exits.
//!
//! `--sample k:U:W` switches to checkpoint-based interval sampling: each
//! workload is split into `k` intervals of `U` detailed instructions
//! warmed per `W` (`none`, `functional[:N]`, `detailed[:N]`), and rows
//! carry `ipc_mean`/`ipc_ci95` (and `speedup_*` when `bl` is in the
//! grid). `--check-against FILE` then validates every sampled mean
//! against a full-run `r3dla-bench-grid-v1` reference: the full-run IPC
//! must fall inside each cell's reported 95% CI widened by the
//! `--check-tolerance` relative bias budget (default 0.25 — the CI only
//! covers sampling variance; see `check_against_reference`).

use r3dla_bench::runner::{default_warm_window, run_grid, scale_by_name, ConfigSpec, GridSpec};
use r3dla_bench::sampled::{check_against_reference, run_grid_sampled};
use r3dla_bench::{arg_f64, arg_flag, arg_str, arg_threads, arg_u64, FaultPlan};
use r3dla_core::dynamic_length;
use r3dla_sample::SampleSpec;
use r3dla_workloads::{by_name, suite, Scale, Workload};

/// The usage block of the module doc, printed by `--help`.
const USAGE: &str = "\
runner [--scale tiny|train|ref] [--threads N] [--warm N] [--window N]
       [--workloads a,b,c] [--configs bl,dla,r3,...] [--out FILE]
       [--timing] [--timing-out FILE] [--no-skip]
       [--filter W[/C]] [--list] [--progress]
       [--sample k:U:W] [--check-against FILE] [--check-tolerance T]
--warm/--window default to 40000/150000 at train and ref scale, and to
0/1000000000 (each program whole, to Halt) at tiny scale.";

fn main() {
    if arg_flag("--help") || arg_flag("-h") {
        println!("{USAGE}");
        return;
    }
    if arg_flag("--list") {
        println!("workloads:");
        for w in suite() {
            println!("  {} ({})", w.name, w.suite);
        }
        println!("configs:");
        for c in ConfigSpec::known_names() {
            println!("  {c}");
        }
        return;
    }
    let scale = match arg_str("--scale") {
        Some(s) => scale_by_name(&s).unwrap_or_else(|| {
            eprintln!("unknown scale '{s}' (expected tiny|train|ref)");
            std::process::exit(2);
        }),
        None => Scale::Ref,
    };
    let threads = arg_threads();
    let (warm, win) = default_warm_window(scale);
    let (warm, win) = (arg_u64("--warm", warm), arg_u64("--window", win));
    let mut workloads: Vec<Workload> = match arg_str("--workloads") {
        Some(list) => list
            .split(',')
            .map(|n| {
                by_name(n.trim()).unwrap_or_else(|| {
                    eprintln!("unknown workload '{n}'");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => suite(),
    };
    let mut configs: Vec<ConfigSpec> = match arg_str("--configs") {
        Some(list) => list
            .split(',')
            .map(|n| {
                ConfigSpec::by_name(n.trim()).unwrap_or_else(|| {
                    eprintln!(
                        "unknown config '{n}' (known: {})",
                        ConfigSpec::known_names().join(", ")
                    );
                    std::process::exit(2);
                })
            })
            .collect(),
        None => ["bl", "dla", "r3"]
            .iter()
            .map(|n| ConfigSpec::by_name(n).unwrap())
            .collect(),
    };
    if let Some(filter) = arg_str("--filter") {
        let (wf, cf) = match filter.split_once('/') {
            Some((w, c)) => (w.to_string(), c.to_string()),
            None => (filter.clone(), String::new()),
        };
        workloads.retain(|w| w.name.contains(&wf));
        configs.retain(|c| c.label.contains(&cf));
        if workloads.is_empty() || configs.is_empty() {
            eprintln!("--filter '{filter}' matched no cells (try --list)");
            std::process::exit(2);
        }
    }
    let sample = arg_str("--sample").map(|s| {
        SampleSpec::parse(&s).unwrap_or_else(|| {
            eprintln!(
                "invalid --sample '{s}' (expected k:U:none|functional[:N]|detailed[:N], k >= 2)"
            );
            std::process::exit(2);
        })
    });

    let spec = GridSpec {
        scale,
        workloads,
        configs,
        warm,
        win,
        fast_forward: !arg_flag("--no-skip"),
    };
    // Output paths are read before the campaign runs, so a flag with a
    // missing value fails at once rather than after the whole grid.
    let out = arg_str("--out");
    let timing_out = arg_str("--timing-out");
    let check_against = arg_str("--check-against");
    let tolerance = arg_f64("--check-tolerance", 0.25);
    if sample.is_none() {
        for w in &spec.workloads {
            let len = dynamic_length(&w.build(scale).program, warm + 1);
            if len <= warm {
                eprintln!(
                    "workload '{}' ends after {len} instructions, within --warm {warm}; \
                     lower --warm or use --sample",
                    w.name
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "runner: {} workloads x {} configs on {} threads{}{}",
        spec.workloads.len(),
        spec.configs.len(),
        threads,
        match &sample {
            Some(s) => format!(" (sampled {})", s.label()),
            None => String::new(),
        },
        if spec.fast_forward {
            ""
        } else {
            " (cycle skipping off)"
        }
    );

    let write_out = |json: &str| match &out {
        Some(path) => {
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("runner: wrote {path}");
        }
        None => print!("{json}"),
    };
    let session = r3dla_obs::Session::from_env();
    let finalize = |mips: Option<f64>| {
        if let Err(e) = session.finalize(out.as_deref().map(std::path::Path::new), mips) {
            eprintln!("runner: telemetry write failed: {e}");
        }
    };

    if let Some(sample) = sample {
        if arg_flag("--progress") {
            // Upper bound: short workloads may plan fewer than k intervals.
            let cells = spec.workloads.len() * spec.configs.len() * sample.k;
            r3dla_obs::progress::start("sampled", cells);
        }
        let result = run_grid_sampled(&spec, &sample, threads);
        write_out(&result.to_json(arg_flag("--timing")));
        finalize(Some(result.sim_mips()));
        if let Some(path) = &timing_out {
            std::fs::write(path, result.to_json(true)).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("runner: wrote {path} (timing variant)");
        }
        eprintln!(
            "runner: prepared in {} ms, planned {} checkpoints in {} ms, \
             measured {} interval cells ({} rows) in {} ms",
            result.prep_ms,
            result.planned_checkpoints,
            result.plan_ms,
            result.measured_intervals,
            result.cells.len(),
            result.measure_ms,
        );
        let mut failed = false;
        if let Some(path) = &check_against {
            let reference = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let failures = check_against_reference(&result, &reference, tolerance);
            for f in &failures {
                eprintln!("runner: CHECK FAIL {f}");
            }
            if failures.is_empty() {
                eprintln!(
                    "runner: all {} sampled means contain their full-run reference IPC",
                    result.cells.len()
                );
            }
            failed |= !failures.is_empty();
        }
        for c in result.empty_cells() {
            eprintln!(
                "runner: FAIL cell ({}, {}) committed zero instructions",
                c.workload, c.config
            );
            failed = true;
        }
        for c in result.failed_cells() {
            eprintln!(
                "runner: cell ({}, {}) failed after {} attempt(s): {} ({})",
                c.workload,
                c.config,
                c.attempts,
                c.status.label(),
                c.error.as_deref().unwrap_or("")
            );
            // Status rows are the expected product of a chaos run; a
            // failure without an active fault plan is real.
            failed |= !FaultPlan::from_env().active();
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    if arg_flag("--progress") {
        r3dla_obs::progress::start("grid", spec.workloads.len() * spec.configs.len());
    }
    let result = run_grid(&spec, threads);
    write_out(&result.to_json(arg_flag("--timing")));
    if let Some(path) = &timing_out {
        std::fs::write(path, result.to_json(true)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("runner: wrote {path} (timing variant)");
    }
    finalize(Some(result.sim_mips()));
    eprintln!(
        "runner: prepared in {} ms, measured {} cells in {} ms ({:.2} simulated MIPS)",
        result.prep_ms,
        result.cells.len(),
        result.measure_ms,
        result.sim_mips()
    );
    let mut failed = false;
    for c in result.empty_cells() {
        eprintln!(
            "runner: FAIL cell ({}, {}) committed zero instructions",
            c.workload, c.config
        );
        failed = true;
    }
    for c in result.failed_cells() {
        eprintln!(
            "runner: cell ({}, {}) failed after {} attempt(s): {} ({})",
            c.workload,
            c.config,
            c.attempts,
            c.status.label(),
            c.error.as_deref().unwrap_or("")
        );
        failed |= !FaultPlan::from_env().active();
    }
    if failed {
        std::process::exit(1);
    }
}
