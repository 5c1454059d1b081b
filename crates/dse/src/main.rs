//! The `r3dla-dse` CLI: budget-aware design-space exploration with a
//! resumable on-disk result cache.
//!
//! ```text
//! r3dla-dse [--scale tiny|train|ref] [--threads N]
//!           [--workloads a,b,c] [--sample k:U:W]
//!           [--space quick|full] [--strategy exhaustive|random|halving]
//!           [--budget N] [--seed S]
//!           [--cache DIR] [--no-cache] [--out FILE] [--no-skip]
//!           [--progress] [--list]
//! ```
//!
//! Telemetry (stderr/sidecar only, never the report): `--progress`
//! prints a live done/total line with the cache hit rate;
//! `R3DLA_TRACE=path` records a Chrome trace; `R3DLA_TELEMETRY=1`
//! writes a `*.telemetry.json` sidecar next to `--out` (see
//! `docs/OBSERVABILITY.md`).
//!
//! Writes the deterministic `r3dla-dse-v1` report JSON to `--out` (or
//! stdout) and a human summary to stderr. Every measured cell lands in
//! the cache directory (default `DSE_CACHE/`), so a killed search
//! resumes where it stopped and a finished search re-runs for free —
//! both reproduce the fresh report byte-for-byte. Exits non-zero when
//! any measured interval commits zero instructions (the runner's sick-
//! simulation gate).

use r3dla_bench::runner::scale_by_name;
use r3dla_bench::{arg_flag, arg_str, arg_threads, arg_u64, arg_usize, FaultPlan};
use r3dla_dse::{candidates, run_dse, DseSpec, ResultCache, SearchSpace, Strategy};
use r3dla_sample::SampleSpec;
use r3dla_workloads::{by_name, suite, Scale, Workload};

fn main() {
    if arg_flag("--list") {
        println!("workloads:");
        for w in suite() {
            println!("  {} ({})", w.name, w.suite);
        }
        println!("spaces:");
        println!("  quick (16 points: t1 x value_reuse x recycle x fetch_buffer)");
        println!(
            "  full  ({} points: every searched knob)",
            SearchSpace::full().size()
        );
        println!("strategies:");
        println!("  exhaustive | random | halving  (with --budget N, --seed S)");
        return;
    }
    let scale = match arg_str("--scale") {
        Some(s) => scale_by_name(&s).unwrap_or_else(|| {
            eprintln!("unknown scale '{s}' (expected tiny|train|ref)");
            std::process::exit(2);
        }),
        None => Scale::Tiny,
    };
    let threads = arg_threads();
    let workloads: Vec<Workload> = match arg_str("--workloads") {
        Some(list) => list
            .split(',')
            .map(|n| {
                by_name(n.trim()).unwrap_or_else(|| {
                    eprintln!("unknown workload '{n}' (try --list)");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => suite(),
    };
    let space_name = arg_str("--space").unwrap_or_else(|| "full".to_string());
    let space = SearchSpace::by_name(&space_name).unwrap_or_else(|| {
        eprintln!("unknown space '{space_name}' (expected quick|full)");
        std::process::exit(2);
    });
    let strategy_name = arg_str("--strategy").unwrap_or_else(|| "random".to_string());
    let budget = arg_usize("--budget", 12);
    let seed = arg_u64("--seed", 1);
    let strategy = Strategy::parse(&strategy_name, seed, budget).unwrap_or_else(|| {
        eprintln!("unknown strategy '{strategy_name}' (expected exhaustive|random|halving)");
        std::process::exit(2);
    });
    let sample_str = arg_str("--sample").unwrap_or_else(|| "3:3000:functional".to_string());
    let sample = SampleSpec::parse(&sample_str).unwrap_or_else(|| {
        eprintln!(
            "invalid --sample '{sample_str}' (expected k:U:none|functional[:N]|detailed[:N], \
             k >= 2)"
        );
        std::process::exit(2);
    });
    let cache = if arg_flag("--no-cache") {
        ResultCache::disabled()
    } else {
        let dir = arg_str("--cache").unwrap_or_else(|| "DSE_CACHE".to_string());
        ResultCache::at(&dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache directory {dir}: {e}");
            std::process::exit(2);
        })
    };

    let spec = DseSpec {
        scale,
        workloads,
        space,
        strategy,
        sample,
        fast_forward: !arg_flag("--no-skip"),
    };
    let n_candidates = candidates(&spec.space, &spec.strategy).len();
    eprintln!(
        "r3dla-dse: {} workloads x {} candidates (of {} points) on {} threads, sample {}",
        spec.workloads.len(),
        n_candidates,
        spec.space.size(),
        threads,
        spec.sample.label()
    );

    let out = arg_str("--out");
    let session = r3dla_obs::Session::from_env();
    if arg_flag("--progress") {
        // Planned cell count: every candidate plus the bl baseline, k
        // intervals each. Halving may finish early (eliminations skip
        // cells), so this is an upper bound for the meter.
        let cells = spec.workloads.len() * (n_candidates + 1) * spec.sample.k;
        r3dla_obs::progress::start("dse", cells);
    }
    let result = run_dse(&spec, &cache, threads);
    let json = r3dla_dse::to_json(&result);
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("r3dla-dse: wrote {path}");
        }
        None => print!("{json}"),
    }
    if let Err(e) = session.finalize(out.as_deref().map(std::path::Path::new), None) {
        eprintln!("r3dla-dse: telemetry write failed: {e}");
    }
    let stats = cache.stats();
    eprintln!(
        "r3dla-dse: prepared {} ms, planned {} ms, measured {} ms \
         ({} cache hits, {} misses)",
        result.prep_ms, result.plan_ms, result.measure_ms, stats.hits, stats.misses
    );
    let health = cache.health();
    if health != r3dla_dse::CacheHealth::default() {
        eprintln!(
            "r3dla-dse: cache health: {} corrupt entr(ies) quarantined, \
             {} store error(s), {} orphan(s) swept on open",
            health.corrupt, health.store_errors, health.swept_orphans
        );
    }
    eprint!("{}", r3dla_dse::summary_markdown(&result));

    let mut failed = false;
    for w in &result.workloads {
        for t in w.empty_trials() {
            eprintln!(
                "r3dla-dse: FAIL ({}, {}) has an interval with zero committed instructions",
                w.workload, t.label
            );
            failed = true;
        }
        for t in w.failed_trials() {
            eprintln!(
                "r3dla-dse: trial ({}, {}) has a failed interval after {} attempt(s): {} ({})",
                w.workload,
                t.label,
                t.attempts,
                t.status.label(),
                t.error.as_deref().unwrap_or("")
            );
            // Failed trials are the expected product of a chaos run;
            // without an active fault plan they are real failures.
            failed |= !FaultPlan::from_env().active();
        }
    }
    if failed {
        std::process::exit(1);
    }
}
