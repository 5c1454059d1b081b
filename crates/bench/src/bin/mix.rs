//! Multi-tenant mix runner: pairs of workloads co-scheduled on one
//! shared LLC/DRAM through one [`Cluster`], one grid row per tenant.
//!
//! ```text
//! mix [--scale tiny|train|ref] [--threads N] [--warm N] [--window N]
//!     [--config dla|r3|...] [--pairs a+b,c+d] [--out FILE] [--progress]
//! ```
//!
//! Telemetry (stderr/sidecar only, never the report): `--progress`
//! prints a live done/total line; `R3DLA_TRACE=path` records a Chrome
//! trace; `R3DLA_TELEMETRY=1` writes a `*.telemetry.json` sidecar next
//! to `--out` (see `docs/OBSERVABILITY.md`).
//!
//! Each pair assembles two DLA systems over the *same* [`SharedLlc`]
//! handle and interleaves them, earliest local clock first, under one
//! global clock; the per-tenant window reports are captured the moment
//! each tenant finishes its window. The JSON
//! (`r3dla-bench-mix-v1`) is byte-identical across `--threads`
//! settings — CI runs it twice and `cmp`s. Exits non-zero when any
//! tenant commits zero instructions.

use std::cell::RefCell;
use std::rc::Rc;

use r3dla_bench::runner::{
    parallel_map, scale_by_name, scale_name, CellKind, CellResult, ConfigSpec,
};
use r3dla_bench::supervise::CellStatus;
use r3dla_bench::{arg_flag, arg_str, arg_threads, arg_u64, Prepared, Supervisor, WARMUP, WINDOW};
use r3dla_core::{Cluster, DlaConfig};
use r3dla_mem::SharedLlc;
use r3dla_workloads::{by_name, Scale, Workload};

const DEFAULT_PAIRS: &str = "libq_like+mcf_like,xalan_like+cg_like";

fn main() {
    let scale = match arg_str("--scale") {
        Some(s) => scale_by_name(&s).unwrap_or_else(|| {
            eprintln!("unknown scale '{s}' (expected tiny|train|ref)");
            std::process::exit(2);
        }),
        None => Scale::Ref,
    };
    let threads = arg_threads();
    let out_path = arg_str("--out");
    let warm = arg_u64("--warm", WARMUP);
    let win = arg_u64("--window", WINDOW);
    let config_name = arg_str("--config").unwrap_or_else(|| "r3".to_string());
    let spec = ConfigSpec::by_name(&config_name).unwrap_or_else(|| {
        eprintln!(
            "unknown config '{config_name}' (known: {})",
            ConfigSpec::known_names().join(", ")
        );
        std::process::exit(2);
    });
    let cfg: DlaConfig = match &spec.kind {
        CellKind::Dla(cfg) => cfg.clone(),
        CellKind::Single { .. } => {
            eprintln!(
                "config '{config_name}' is single-core; mix needs a DLA config (dla, r3, ...)"
            );
            std::process::exit(2);
        }
    };

    let pairs_arg = arg_str("--pairs").unwrap_or_else(|| DEFAULT_PAIRS.to_string());
    let pairs: Vec<(Workload, Workload)> = pairs_arg
        .split(',')
        .map(|p| {
            let (a, b) = p.trim().split_once('+').unwrap_or_else(|| {
                eprintln!("bad pair '{p}' (expected a+b)");
                std::process::exit(2);
            });
            let lookup = |n: &str| {
                by_name(n.trim()).unwrap_or_else(|| {
                    eprintln!("unknown workload '{n}'");
                    std::process::exit(2);
                })
            };
            (lookup(a), lookup(b))
        })
        .collect();

    // Prepare each distinct workload once; pairs then share the analysis.
    let mut names: Vec<String> = pairs
        .iter()
        .flat_map(|(a, b)| [a.name.to_string(), b.name.to_string()])
        .collect();
    names.sort();
    names.dedup();
    eprintln!(
        "mix: {} pairs over {} workloads ({config_name}) on {threads} threads",
        pairs.len(),
        names.len()
    );
    let prepared = parallel_map(&names, threads, |n| {
        Prepared::new(&by_name(n).unwrap(), scale)
    });
    let find = |name: &str| &prepared[names.iter().position(|n| n.as_str() == name).unwrap()];

    // Each pair gets its own shared memory side and its own cluster; the
    // pairs themselves are independent, so they fan out across workers
    // without affecting the (deterministic) per-pair interleaving. The
    // supervisor contains a panicking/runaway pair to a pair of status
    // rows instead of killing the whole mix.
    let sup = Supervisor::from_env();
    let scale_label = scale_name(scale);
    let session = r3dla_obs::Session::from_env();
    if arg_flag("--progress") {
        r3dla_obs::progress::start("mix", pairs.len());
    }
    let t_measure = std::time::Instant::now();
    let outcomes = sup.map(
        &pairs,
        threads,
        |(a, b)| {
            format!(
                "mix|{scale_label}|{warm}|{win}|{config_name}|{}+{}",
                a.name, b.name
            )
        },
        |(a, b)| {
            let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg.mem)));
            let mut cluster = Cluster::with_shared(shared.clone());
            for p in [find(a.name), find(b.name)] {
                cluster.push(p.dla_system_shared(cfg.clone(), shared.clone()));
            }
            let t0 = std::time::Instant::now();
            let reports = cluster.measure_each(warm, win);
            Ok((reports, t0.elapsed().as_millis() as u64))
        },
    );
    let measure_ms = t_measure.elapsed().as_millis() as u64;
    let rows: Vec<Vec<CellResult>> = pairs
        .iter()
        .zip(outcomes)
        .map(|((a, b), o)| {
            let (reports, wall_ms) = o
                .value
                .unwrap_or_else(|| (vec![Default::default(), Default::default()], 0));
            [a, b]
                .iter()
                .zip(reports)
                .map(|(w, report)| CellResult {
                    workload: w.name.to_string(),
                    suite: w.suite,
                    config: config_name.clone(),
                    report,
                    wall_ms,
                    status: o.status,
                    attempts: o.attempts,
                    error: o.error.clone(),
                })
                .collect()
        })
        .collect();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"r3dla-bench-mix-v1\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(scale)));
    out.push_str(&format!("  \"warm\": {warm},\n"));
    out.push_str(&format!("  \"window\": {win},\n"));
    out.push_str("  \"rows\": [\n");
    let total = rows.iter().map(|r| r.len()).sum::<usize>();
    let mut emitted = 0usize;
    let mut failed = false;
    for (pi, pair_rows) in rows.iter().enumerate() {
        let pair_label = format!("{}+{}", pairs[pi].0.name, pairs[pi].1.name);
        for (ti, cell) in pair_rows.iter().enumerate() {
            if cell.status != CellStatus::Ok {
                eprintln!(
                    "mix: tenant {ti} of ({pair_label}) failed: {} ({})",
                    cell.status.label(),
                    cell.error.as_deref().unwrap_or("")
                );
                // Expected casualties under an active fault plan; fatal
                // otherwise.
                failed |= !sup.plan().active();
            } else if cell.report.mt_committed == 0 {
                eprintln!("mix: FAIL tenant {ti} of ({pair_label}) committed zero instructions");
                failed = true;
            }
            emitted += 1;
            out.push_str(&format!(
                "    {{\"pair\": \"{pair_label}\", \"tenant\": {ti}, {}}}{}\n",
                cell.stat_fields(),
                if emitted < total { "," } else { "" }
            ));
        }
    }
    out.push_str("  ]\n}\n");

    match &out_path {
        Some(path) => {
            std::fs::write(path, &out).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("mix: wrote {path}");
        }
        None => print!("{out}"),
    }
    let committed: u64 = rows
        .iter()
        .flatten()
        .map(|c| c.report.mt_committed + c.report.lt_committed)
        .sum();
    let mips = (measure_ms > 0).then(|| committed as f64 / (measure_ms as f64 * 1e3));
    if let Err(e) = session.finalize(out_path.as_deref().map(std::path::Path::new), mips) {
        eprintln!("mix: telemetry write failed: {e}");
    }
    if failed {
        std::process::exit(1);
    }
}
