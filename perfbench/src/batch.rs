//! The two batch workloads, `grid-whole` and `sampled`: one campaign
//! over the whole tiny suite under `bl`, `dla` and `r3` on one worker
//! thread, through the entry point `runner` uses (`run_grid_supervised`
//! or `run_grid_sampled_supervised`). Untraced, a campaign calls it once
//! per suite workload, so that each call is scaled to reference speed
//! over its own interval (see [`crate::calib`]); the traced run's
//! reference calls it once for the whole suite. Set-up time comes from the program's own
//! telemetry spans (`prepare`, `plan`), recorded during each call.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use r3dla_bench::sampled::run_grid_sampled_supervised;
use r3dla_bench::{
    run_grid_supervised, ConfigSpec, GridPlan, GridSpec, Prepared, SampledPlan, SuperviseConfig,
    Supervisor,
};
use r3dla_obs::trace;
use r3dla_sample::SampleSpec;
use r3dla_workloads::{suite, Scale};

use crate::layers::{secs, Layers};
use crate::model::{grid_cells_ok, grid_rows, sampled_cells_ok, sampled_rows, Row};
use crate::tally::Tally;

/// The sampling spec of the `sampled` workload (`runner --sample`).
pub const SAMPLE: &str = "4:5000:functional";

/// Telemetry categories of set-up work: `Prepared::new` and
/// `plan_intervals`.
const SETUP_SPANS: [&str; 2] = ["prepare", "plan"];

/// Which batch campaign to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Every workload to halt (`runner --warm 0 --window 1000000000`).
    GridWhole,
    /// The same grid under `runner --sample 4:5000:functional`.
    Sampled,
}

/// One entry-point call.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// When the entry-point call began; its set-up comes first.
    pub start: Instant,
    /// Host seconds of the entry-point call, set-up included.
    pub wall_s: f64,
    /// Host seconds in the call's `prepare` and `plan` spans.
    pub setup_s: f64,
    /// Report rows.
    pub rows: Vec<Row>,
    /// Per-cell `(label, status ok, MT committed)`.
    pub cells: Vec<(String, bool, u64)>,
    /// The deterministic report bytes (`runner --out` without
    /// `--timing`).
    pub report: String,
}

/// One traced campaign.
#[derive(Debug)]
pub struct BatchTrace {
    /// Host seconds, minus the split-stage calls that repeat work.
    pub wall_s: f64,
    /// The assembled report bytes.
    pub report: String,
    /// Report rows.
    pub rows: Vec<Row>,
    /// Per-layer spans.
    pub layers: Layers,
}

/// `(category, host seconds)` of every complete span in a Chrome trace
/// written by `r3dla_obs::trace::write_chrome_trace`.
pub fn parse_spans(chrome_trace: &str) -> Vec<(String, f64)> {
    chrome_trace
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("{\"ph\":\"X\",")?;
            let dur = rest.split("\"dur\":").nth(1)?;
            let dur: u64 = dur[..dur.find(',')?].parse().ok()?;
            let cat = rest.split("\"cat\":\"").nth(1)?;
            let cat = &cat[..cat.find('"')?];
            Some((cat.to_string(), dur as f64 / 1e6))
        })
        .collect()
}

/// Runs `f` with the program's telemetry spans armed and returns its
/// result with the spans recorded meanwhile. The trace passes through a
/// file in `dir`, which is removed again.
fn with_spans<R>(dir: &Path, f: impl FnOnce() -> R) -> Result<(R, Vec<(String, f64)>), String> {
    trace::reset();
    trace::set_recording(true);
    let r = f();
    trace::set_recording(false);
    let path = dir.join("spans.json");
    let io = |e: std::io::Error| format!("span trace {}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    trace::write_chrome_trace(&path).map_err(io)?;
    let text = std::fs::read_to_string(&path).map_err(io)?;
    std::fs::remove_file(&path).map_err(io)?;
    trace::reset();
    Ok((r, parse_spans(&text)))
}

fn span_sum(spans: &[(String, f64)], cats: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|(c, _)| cats.contains(&c.as_str()))
        .map(|(_, s)| s)
        .sum()
}

impl Batch {
    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Batch::GridWhole => "grid-whole",
            Batch::Sampled => "sampled",
        }
    }

    fn spec(self) -> GridSpec {
        let configs = ["bl", "dla", "r3"]
            .iter()
            .map(|n| ConfigSpec::by_name(n).expect("built-in config"))
            .collect();
        match self {
            Batch::GridWhole => GridSpec {
                scale: Scale::Tiny,
                workloads: suite(),
                configs,
                warm: 0,
                win: 1_000_000_000,
                fast_forward: true,
            },
            Batch::Sampled => GridSpec {
                configs,
                ..GridSpec::standard(Scale::Tiny)
            },
        }
    }

    fn sample(self) -> Option<SampleSpec> {
        match self {
            Batch::GridWhole => None,
            Batch::Sampled => Some(SampleSpec::parse(SAMPLE).expect("valid sample spec")),
        }
    }

    /// Minimum campaigns per run: `grid-whole` is long enough alone;
    /// `sampled` takes the median of four or more.
    pub fn min_campaigns(self) -> usize {
        match self {
            Batch::GridWhole => 1,
            Batch::Sampled => 4,
        }
    }

    /// Single-workload campaigns, one per suite workload, in suite
    /// order.
    pub fn parts(self) -> Vec<GridSpec> {
        let spec = self.spec();
        spec.workloads
            .iter()
            .map(|w| GridSpec {
                workloads: vec![*w],
                ..spec.clone()
            })
            .collect()
    }

    /// Runs the whole campaign once, untraced, in one entry-point call on
    /// one worker thread. `dir` is scratch space for the span trace.
    pub fn run(self, dir: &Path) -> Result<BatchRun, String> {
        self.call(&self.spec(), dir)
    }

    /// Runs the campaign once, untraced, as one entry-point call per
    /// workload ([`Batch::parts`]).
    pub fn run_parts(self, dir: &Path) -> Result<Vec<BatchRun>, String> {
        self.parts()
            .iter()
            .map(|spec| self.call(spec, dir))
            .collect()
    }

    /// Calls the entry point once for `spec` on one worker thread.
    fn call(self, spec: &GridSpec, dir: &Path) -> Result<BatchRun, String> {
        let sup = Supervisor::new(SuperviseConfig::default());
        let ((start, wall_s, rows, cells, report), spans) = with_spans(dir, || {
            let t0 = Instant::now();
            match self.sample() {
                None => {
                    let result = run_grid_supervised(spec, 1, &sup);
                    let wall_s = secs(t0);
                    let cells = grid_cells_ok(&result).collect();
                    (t0, wall_s, grid_rows(&result), cells, result.to_json(false))
                }
                Some(sample) => {
                    let result = run_grid_sampled_supervised(spec, &sample, 1, &sup);
                    let wall_s = secs(t0);
                    let cells = sampled_cells_ok(&result);
                    (
                        t0,
                        wall_s,
                        sampled_rows(&result),
                        cells,
                        result.to_json(false),
                    )
                }
            }
        })?;
        Ok(BatchRun {
            start,
            wall_s,
            setup_s: span_sum(&spans, &SETUP_SPANS),
            rows,
            cells,
            report,
        })
    }

    /// Repeats only the campaign's set-up (`GridPlan::build` or
    /// `SampledPlan::build` on one worker), one workload at a time, and
    /// returns when each workload's set-up began and the host seconds of
    /// its `prepare` and `plan` spans.
    pub fn setup_only(self, dir: &Path) -> Result<Vec<(Instant, f64)>, String> {
        let sample = self.sample();
        self.parts()
            .iter()
            .map(|spec| {
                let ((start, plans), spans) = with_spans(dir, || {
                    let t0 = Instant::now();
                    let plans = match &sample {
                        None => (Some(GridPlan::build(spec, 1)), None),
                        Some(s) => (None, Some(SampledPlan::build(spec, s, 1))),
                    };
                    (t0, plans)
                })?;
                drop(plans);
                Ok((start, span_sum(&spans, &SETUP_SPANS)))
            })
            .collect()
    }

    /// Runs the campaign once through the traced layer calls.
    pub fn traced(self, tally: &mut Tally) -> BatchTrace {
        let spec = self.spec();
        let sup = Supervisor::new(SuperviseConfig::default());
        let mut layers = Layers::default();
        let mut memo = HashMap::new();
        let t0 = Instant::now();
        let prepared: Vec<Arc<Prepared>> = spec
            .workloads
            .iter()
            .map(|w| layers.prepare(w, spec.scale, tally))
            .collect();
        let (report, rows) = match self.sample() {
            None => {
                let plan = GridPlan::from_prepared(&spec, prepared.clone());
                let outcomes = layers.grid(&plan, &prepared, &sup, &mut memo);
                let result = plan.assemble(&outcomes);
                (result.to_json(false), grid_rows(&result))
            }
            Some(sample) => {
                let plans: Vec<_> = prepared.iter().map(|p| layers.plan(p, &sample)).collect();
                let plan = SampledPlan::from_parts(&spec, &sample, prepared.clone(), plans.clone());
                let outcomes = layers.sampled(&plan, &prepared, &plans, &sample, &sup, &mut memo);
                let result = plan.assemble(&outcomes);
                (result.to_json(false), sampled_rows(&result))
            }
        };
        BatchTrace {
            wall_s: secs(t0) - layers.extra_s,
            report,
            rows,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_parse_from_the_chrome_trace() {
        let text = "[\n\
            {\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"w\"}},\n\
            {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5,\"dur\":1500000,\"cat\":\"prepare\",\"name\":\"mcf_like\"},\n\
            {\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":9,\"s\":\"t\",\"cat\":\"supervisor\",\"name\":\"x\"},\n\
            {\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":7,\"dur\":250,\"cat\":\"cell\",\"name\":\"grid|tiny\"}\n\
            ]\n";
        let spans = parse_spans(text);
        assert_eq!(
            spans,
            vec![("prepare".to_string(), 1.5), ("cell".to_string(), 0.00025)]
        );
        assert_eq!(span_sum(&spans, &SETUP_SPANS), 1.5);
    }
}
