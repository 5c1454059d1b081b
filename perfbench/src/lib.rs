//! The repository benchmark for the R3-DLA simulator.
//!
//! `perfbench --workload <grid-whole|sampled|serve-dse> --seed N
//! --seconds S --trace 0|1` runs one workload in this process with one
//! simulation worker thread. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it drives the same campaigns through each
//! layer's public calls and prints the per-layer split. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` for the workloads and the map
//! from layer metrics to end-to-end metrics.

pub mod batch;
pub mod calib;
pub mod layers;
pub mod mix;
pub mod model;
pub mod output;
pub mod served;
pub mod stats;
pub mod tally;

use std::path::Path;
use std::time::{Duration, Instant};

use batch::{Batch, BatchRun};
use calib::{Sampler, Speed, Timed};
use layers::{secs, Layers};
use model::{accounted_insts, config_model, speedup, Row};
use output::{fnv1a, peak_rss_mb, Metric};
use stats::{median, tail};
use tally::Tally;

/// Set-up passes per run that `setup_s` takes the median of.
pub const SETUP_REPS: usize = 3;

/// Full passes of the `serve-dse` mix per run, at least.
pub const SERVE_LOOPS: usize = 20;

/// A workload the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A batch campaign (`grid-whole` or `sampled`).
    Batch(Batch),
    /// The closed-loop campaign service mix.
    ServeDse,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Batch(Batch::GridWhole),
        Workload::Batch(Batch::Sampled),
        Workload::ServeDse,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch(b) => b.name(),
            Workload::ServeDse => "serve-dse",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed (only `serve-dse` generates inputs from it).
    pub seed: u64,
    /// Minimum measured seconds; runs never stop before their minimum
    /// campaign count either.
    pub seconds: f64,
    /// Whether to run the traced per-layer split.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload grid-whole|sampled|serve-dse --seed N --seconds S --trace 0|1";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all
    /// required. Unknown flags and malformed values are errors.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let bad = || format!("invalid value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s >= 0.0)
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let missing = |f: &str| format!("missing {f}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// What one benchmark run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// Runs one workload. `work` is a scratch directory inside the checkout
/// for span traces and DSE caches; it is removed again before returning.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let out = match (args.workload, args.trace) {
        (Workload::Batch(b), false) => batch_untraced(b, args.seconds, work),
        (Workload::Batch(b), true) => batch_traced(b, work),
        (Workload::ServeDse, false) => serve_untraced(args.seed, args.seconds, work),
        (Workload::ServeDse, true) => serve_traced(args.seed, work),
    };
    let _ = std::fs::remove_dir_all(work);
    out
}

/// The samples the end-to-end metrics summarize, one per campaign or
/// pass.
struct Samples {
    walls: Vec<Timed>,
    setups: Vec<Timed>,
    /// The time the MIPS rate divides by.
    sims: Vec<Timed>,
    /// Instructions (MT + LT) the reports account for, in the order of
    /// `sims`.
    insts: Vec<u64>,
    rows: Vec<Row>,
    /// The calibration bursts the reference times rest on.
    speed: Speed,
}

/// `host` seconds spent over `[start, start + host]`, at reference speed.
fn timed(speed: &Speed, host: f64, start: Instant) -> Result<Timed, String> {
    let end = start + Duration::from_secs_f64(host.max(0.0));
    speed
        .scale(host, start, end)
        .ok_or_else(|| "the calibration sampler recorded no burst".to_string())
}

/// Builds the end-to-end metrics; a metric that cannot be computed is
/// itself a failed operation. Host times are reported at reference
/// speed (see [`calib`]); the raw host times are printed beside them.
fn end_to_end(s: &Samples, tally: &mut Tally, lines: &mut Vec<String>) -> Vec<Metric> {
    let mut need = |name: &str, v: Option<f64>| {
        tally.check(v.is_some(), || format!("{name} could not be computed"));
        v.unwrap_or(0.0)
    };
    let host = |v: &[Timed]| v.iter().map(|t| t.host).collect::<Vec<_>>();
    let reference = |v: &[Timed]| v.iter().map(|t| t.reference).collect::<Vec<_>>();
    let list = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    lines.push(format!(
        "host samples: wall_s [{}] setup_s [{}]",
        list(host(&s.walls)),
        list(host(&s.setups))
    ));
    lines.push(format!(
        "reference samples: wall_s [{}] setup_s [{}]",
        list(reference(&s.walls)),
        list(reference(&s.setups))
    ));
    lines.push(format!(
        "host speed: {} calibration bursts, median {:.4} ms (reference {} ms); \
         host medians wall_s {:?} s, setup_s {:?} s",
        s.speed.len(),
        s.speed.median_burst().unwrap_or(0.0) * 1e3,
        calib::REF_BURST_S * 1e3,
        median(&host(&s.walls)).unwrap_or(0.0),
        median(&host(&s.setups)).unwrap_or(0.0),
    ));
    let mips: Vec<f64> = s
        .sims
        .iter()
        .zip(&s.insts)
        .map(|(t, n)| *n as f64 / t.reference / 1e6)
        .collect();
    let mut m = vec![
        Metric::new("wall_s", "s", need("wall_s", median(&reference(&s.walls)))),
        Metric::new(
            "setup_s",
            "s",
            need("setup_s", median(&reference(&s.setups))),
        ),
        Metric::new("sim_mips", "MIPS", need("sim_mips", median(&mips))),
        Metric::new("peak_rss_mb", "MB", need("peak_rss_mb", peak_rss_mb())),
    ];
    let dla = need("dla_speedup", speedup(&s.rows, "dla", "bl"));
    let r3 = need("r3_speedup", speedup(&s.rows, "r3", "bl"));
    m.push(Metric::new("ok_ratio", "ratio", tally.ok_ratio()));
    m.push(Metric::new("dla_speedup", "ratio", dla));
    m.push(Metric::new("r3_speedup", "ratio", r3));
    m
}

/// The campaign latency lines of `serve-dse`: the median and the
/// highest percentile with ten samples beyond it, each with its sample
/// count. They are printed, not part of the JSON result: the batch
/// workloads run one to three campaigns, too few for either.
fn latency_lines(latencies: &[f64]) -> Vec<String> {
    let mut out = vec![format!(
        "campaign_p50_s = {:?} s (median of n={} campaigns)",
        median(latencies).unwrap_or(0.0),
        latencies.len()
    )];
    out.push(match tail(latencies) {
        Some(t) => format!(
            "campaign_tail_s = {:?} s (p{:.1} of n={} campaigns, {} beyond it)",
            t.value,
            t.percentile,
            t.n,
            stats::TAIL_BEYOND
        ),
        None => format!(
            "campaign_tail_s = n/a (n={} campaigns, fewer than {} beyond any rank)",
            latencies.len(),
            stats::TAIL_BEYOND
        ),
    });
    out
}

/// The `model.*` metrics of a campaign's rows.
fn model_metrics(rows: &[Row], densities: &[f64], tally: &mut Tally) -> Vec<Metric> {
    let mut m = Vec::new();
    for cfg in ["bl", "dla", "r3"] {
        let c = config_model(rows, cfg);
        tally.check(c.is_some(), || {
            format!("no `{cfg}` rows for the model metrics")
        });
        let c = c.unwrap_or_default();
        m.push(Metric::new(format!("model.{cfg}.ipc"), "inst/cycle", c.ipc));
        m.push(Metric::new(
            format!("model.{cfg}.l1d_mpki"),
            "miss/kinst",
            c.l1d_mpki,
        ));
        m.push(Metric::new(
            format!("model.{cfg}.dram_pki"),
            "line/kinst",
            c.dram_pki,
        ));
        if cfg != "bl" {
            m.push(Metric::new(
                format!("model.{cfg}.lt_per_mt"),
                "ratio",
                c.lt_per_mt,
            ));
            m.push(Metric::new(
                format!("model.{cfg}.reboots_pmi"),
                "reboot/Minst",
                c.reboots_pmi,
            ));
        }
    }
    // Summed in sorted order: `serve-dse` prepares its pool in a
    // seed-dependent order, and the mean must repeat exactly.
    let mut sorted = densities.to_vec();
    sorted.sort_by(f64::total_cmp);
    let density = sorted.iter().sum::<f64>() / sorted.len().max(1) as f64;
    m.push(Metric::new("model.skeleton_density", "ratio", density));
    m
}

/// Per-layer metrics in `BENCHMARK.json` order.
fn per_layer(layers: &Layers, rows: &[Row], overhead: f64, tally: &mut Tally) -> Vec<Metric> {
    let mut m = layers.common_metrics();
    m.extend(model_metrics(rows, &layers.densities, tally));
    m.push(Metric::new("trace_overhead_ratio", "ratio", overhead));
    m
}

fn digest_line(workload: &str, reports: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let mut bytes = Vec::new();
    for r in reports {
        bytes.extend_from_slice(r.as_ref().as_bytes());
    }
    format!(
        "report digest {workload}: fnv1a64 {:016x} over {} bytes",
        fnv1a(&bytes),
        bytes.len()
    )
}

fn count_cells(tally: &mut Tally, run: &BatchRun) {
    for (label, ok, mt) in &run.cells {
        tally.cell(label, *ok, *mt);
    }
}

fn batch_untraced(b: Batch, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let sampler = Sampler::start();
    let start = Instant::now();
    let mut runs: Vec<Vec<BatchRun>> = Vec::new();
    while runs.len() < b.min_campaigns() || secs(start) < seconds {
        runs.push(b.run_parts(work)?);
    }
    let mut setup_only = Vec::new();
    while runs.len() + setup_only.len() < SETUP_REPS {
        setup_only.push(b.setup_only(work)?);
    }
    let speed = sampler.stop();
    let report =
        |parts: &[BatchRun]| -> String { parts.iter().map(|p| p.report.as_str()).collect() };
    let first = report(&runs[0]);
    let mut tally = Tally::default();
    for (i, parts) in runs.iter().enumerate() {
        for p in parts {
            count_cells(&mut tally, p);
        }
        if i > 0 {
            tally.check(report(parts) == first, || {
                format!("campaign {i}: report bytes differ from campaign 0")
            });
        }
    }
    // Each call is scaled over its own interval; set-up comes first in
    // it.
    let sum = |parts: &[BatchRun], f: fn(&BatchRun) -> (f64, Instant)| {
        parts.iter().try_fold(Timed::default(), |mut acc, p| {
            let (host, from) = f(p);
            acc += timed(&speed, host, from)?;
            Ok::<_, String>(acc)
        })
    };
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut sims = Vec::new();
    for parts in &runs {
        walls.push(sum(parts, |p| (p.wall_s, p.start))?);
        setups.push(sum(parts, |p| (p.setup_s, p.start))?);
        sims.push(sum(parts, |p| {
            let after_setup = p.start + Duration::from_secs_f64(p.setup_s);
            (p.wall_s - p.setup_s, after_setup)
        })?);
    }
    for pass in &setup_only {
        let mut t = Timed::default();
        for &(from, host) in pass {
            t += timed(&speed, host, from)?;
        }
        setups.push(t);
    }
    let rows: Vec<Row> = runs[0].iter().flat_map(|p| p.rows.clone()).collect();
    let samples = Samples {
        walls,
        setups,
        sims,
        insts: vec![accounted_insts(&rows); runs.len()],
        rows,
        speed,
    };
    let mut lines = vec![
        digest_line(b.name(), [&first]),
        format!(
            "campaign_p50_s, campaign_tail_s = n/a on {}: a run holds {} campaign(s)",
            b.name(),
            runs.len()
        ),
    ];
    let metrics = end_to_end(&samples, &mut tally, &mut lines);
    Ok(Outcome {
        metrics,
        lines,
        tally,
    })
}

fn batch_traced(b: Batch, work: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let untraced = b.run(work)?;
    count_cells(&mut tally, &untraced);
    let traced = b.traced(&mut tally);
    tally.check(traced.report == untraced.report, || {
        "traced report bytes differ from the untraced run".to_string()
    });
    let overhead = traced.wall_s / untraced.wall_s - 1.0;
    let mut lines = vec![
        digest_line(b.name(), [&traced.report]),
        format!(
            "traced wall {:?} s vs untraced {:?} s",
            traced.wall_s, untraced.wall_s
        ),
    ];
    lines.extend(traced.layers.specific_lines(b.name()));
    lines.push(format!(
        "serve.* = n/a on {}: it does not go through the campaign service",
        b.name()
    ));
    let metrics = per_layer(&traced.layers, &traced.rows, overhead, &mut tally);
    Ok(Outcome {
        metrics,
        lines,
        tally,
    })
}

/// Checks one pass: every streamed cell Ok, every served report equal
/// to the batch plan's report for the same campaign.
fn check_served(
    tally: &mut Tally,
    run: &served::LoopRun,
    mix: &[Vec<mix::Template>; 2],
    replay: &served::Replay,
) {
    for (c, campaigns) in run.campaigns.iter().enumerate() {
        for (s, template) in campaigns.iter().zip(&mix[c]) {
            for st in &s.statuses {
                tally.check(*st == r3dla_bench::CellStatus::Ok, || {
                    format!(
                        "`{template:?}` for client {c}: a served cell is {}",
                        st.label()
                    )
                });
            }
            let batch = replay.reports.get(template).map(|(r, _)| r);
            tally.check(batch == Some(&s.report), || {
                format!(
                    "`{template:?}` for client {c}: served report differs from the batch plan's"
                )
            });
        }
    }
}

/// Instructions (MT + LT) the reports of one pass account for.
fn pass_insts(mix: &[Vec<mix::Template>; 2], replay: &served::Replay) -> u64 {
    mix.iter()
        .flatten()
        .map(|t| replay.reports.get(t).map_or(0, |(_, n)| *n))
        .sum()
}

fn serve_digest(replay: &served::Replay) -> String {
    digest_line(
        "serve-dse",
        replay.order.iter().map(|t| &replay.reports[t].0),
    )
}

fn serve_lines(run: &served::LoopRun) -> Vec<String> {
    let s = run.stats;
    let cells = s.fresh + s.shared + s.cache_hits;
    let firsts: Vec<f64> = run
        .campaigns
        .iter()
        .flatten()
        .map(|c| c.first_cell_s)
        .collect();
    vec![
        format!("serve.submit_s = {:?} s", run.setup_s()),
        format!(
            "serve.first_cell_s = {:?} s (median of n={})",
            median(&firsts).unwrap_or(0.0),
            firsts.len()
        ),
        format!(
            "serve.dedup_ratio = {:?} ratio ({} of {cells} cells served without simulating)",
            (s.shared + s.cache_hits) as f64 / cells.max(1) as f64,
            s.shared + s.cache_hits
        ),
    ]
}

fn serve_untraced(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let sampler = Sampler::start();
    let start = Instant::now();
    let (mut mixes, mut loops) = (Vec::new(), Vec::new());
    while loops.len() < SERVE_LOOPS || secs(start) < seconds {
        let pass = loops.len();
        let mix = mix::serve_mix(seed, pass as u64);
        loops.push(served::run_loop(&mix, &work.join(format!("serve-{pass}")))?);
        mixes.push(mix);
    }
    let speed = sampler.stop();
    let mut tally = Tally::default();
    let replay = served::replay(&mixes, &work.join("replay"), &mut tally)?;
    for (run, mix) in loops.iter().zip(&mixes) {
        check_served(&mut tally, run, mix, &replay);
    }
    // The clients' time in `submit_spec` is scaled as the pass it falls
    // in.
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    for l in &loops {
        let wall = timed(&speed, l.wall_s, l.start)?;
        walls.push(wall);
        setups.push(Timed {
            host: l.setup_s(),
            reference: l.setup_s() * wall.reference / wall.host,
        });
    }
    let samples = Samples {
        sims: walls.clone(),
        walls,
        setups,
        insts: mixes.iter().map(|mix| pass_insts(mix, &replay)).collect(),
        rows: replay.grid_rows.clone(),
        speed,
    };
    let latencies: Vec<f64> = loops
        .iter()
        .flat_map(|l| l.campaigns.iter().flatten().map(|c| c.latency_s))
        .collect();
    let mut lines = vec![serve_digest(&replay)];
    lines.extend(latency_lines(&latencies));
    lines.extend(serve_lines(&loops[0]));
    let metrics = end_to_end(&samples, &mut tally, &mut lines);
    Ok(Outcome {
        metrics,
        lines,
        tally,
    })
}

fn serve_traced(seed: u64, work: &Path) -> Result<Outcome, String> {
    let mix = mix::serve_mix(seed, 0);
    let mut tally = Tally::default();
    let run = served::run_loop(&mix, &work.join("serve"))?;
    let replay = served::replay(std::slice::from_ref(&mix), &work.join("replay"), &mut tally)?;
    check_served(&mut tally, &run, &mix, &replay);
    let overhead = replay.wall_s / run.wall_s - 1.0;
    let mut lines = vec![
        serve_digest(&replay),
        format!(
            "traced replay wall {:?} s vs served loop {:?} s (the replay runs the campaigns \
             one at a time, so the ratio also holds the service's scheduling)",
            replay.wall_s, run.wall_s
        ),
    ];
    lines.extend(serve_lines(&run));
    lines.extend(replay.layers.specific_lines("serve-dse"));
    let metrics = per_layer(&replay.layers, &replay.grid_rows, overhead, &mut tally);
    Ok(Outcome {
        metrics,
        lines,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let a = Args::parse(&argv(
            "--workload serve-dse --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeDse);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sampled --seed 1 --seconds 1 --trace 2",
            "--workload sampled --seed 1 --seconds 1",
            "--workload sampled --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload sampled --seed x --seconds 1 --trace 0",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
