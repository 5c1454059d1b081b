//! The `serve-dse` workload: two closed-loop clients drive the seeded
//! campaign mix through an in-process `ServeHandle` with one service
//! worker and a fresh DSE cache directory, each client sending its next
//! campaign only once the previous report has arrived.
//!
//! The check replays the same campaigns through the batch plan types
//! (`GridPlan`, `SampledPlan`, `DsePlan`) and compares report bytes; the
//! traced run is that replay with its layer spans kept.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use r3dla_bench::{CellStatus, GridPlan, Prepared, SampledPlan, SuperviseConfig, Supervisor};
use r3dla_dse::{DsePlan, ResultCache};
use r3dla_sample::IntervalCheckpoint;
use r3dla_serve::{CampaignSpec, Request, ServeConfig, ServeEvent, ServeHandle, ServeStats};

use crate::layers::{secs, Layers};
use crate::mix::Template;
use crate::model::{grid_cells_ok, grid_rows, sampled_cells_ok, sampled_rows, Row};
use crate::tally::Tally;

/// One campaign as a client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Host seconds inside `submit_spec`.
    pub submit_s: f64,
    /// Submit to the first `Cell` event.
    pub first_cell_s: f64,
    /// Submit to the `Report` event.
    pub latency_s: f64,
    /// The report bytes.
    pub report: String,
    /// Status of every streamed cell.
    pub statuses: Vec<CellStatus>,
}

/// One pass of both clients over the mix.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// When the clients started.
    pub start: Instant,
    /// Host seconds from the first submit to the last report.
    pub wall_s: f64,
    /// Each client's campaigns, in send order.
    pub campaigns: [Vec<Served>; 2],
    /// The service's tallies after the pass.
    pub stats: ServeStats,
}

impl LoopRun {
    /// Host seconds inside `submit_spec`, summed over both clients.
    pub fn setup_s(&self) -> f64 {
        self.campaigns.iter().flatten().map(|c| c.submit_s).sum()
    }
}

fn parse(mix: &[Vec<Template>; 2]) -> [Vec<CampaignSpec>; 2] {
    [0, 1].map(|c| {
        mix[c]
            .iter()
            .map(|t| CampaignSpec::parse(&t.render(c)).expect("generated specs parse"))
            .collect()
    })
}

/// One closed-loop client: it sends each campaign once the previous
/// one's report has arrived.
fn client(handle: &ServeHandle, specs: &[CampaignSpec]) -> Result<Vec<Served>, String> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let submitted = handle.submit_spec(spec);
        let submit_s = secs(t);
        let campaign = submitted?;
        let mut first_cell_s = None;
        let mut latency_s = None;
        let mut report = None;
        let mut statuses = Vec::new();
        while let Some(ev) = campaign.recv() {
            match ev {
                ServeEvent::Cell { status, .. } => {
                    first_cell_s.get_or_insert_with(|| secs(t));
                    statuses.push(status);
                }
                ServeEvent::Report { json } => {
                    latency_s = Some(secs(t));
                    report = Some(json);
                }
                ServeEvent::Accepted { .. } | ServeEvent::Done { .. } => {}
            }
        }
        let (Some(latency_s), Some(report)) = (latency_s, report) else {
            return Err(format!(
                "campaign of {} ended without a report",
                spec.client
            ));
        };
        out.push(Served {
            submit_s,
            first_cell_s: first_cell_s.unwrap_or(latency_s),
            latency_s,
            report,
            statuses,
        });
    }
    Ok(out)
}

/// Runs both clients over `mix` against a fresh service whose DSE cache
/// lives in `dir` (created fresh, removed afterwards).
pub fn run_loop(mix: &[Vec<Template>; 2], dir: &Path) -> Result<LoopRun, String> {
    let specs = parse(mix);
    let _ = std::fs::remove_dir_all(dir);
    let handle = ServeHandle::start(ServeConfig {
        threads: 1,
        cache_dir: Some(dir.to_path_buf()),
        supervise: SuperviseConfig::default(),
    })?;
    let t0 = Instant::now();
    let results: Vec<Result<Vec<Served>, String>> = std::thread::scope(|s| {
        let clients: Vec<_> = specs
            .iter()
            .map(|list| {
                let handle = &handle;
                s.spawn(move || client(handle, list))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = secs(t0);
    let stats = handle.stats();
    handle.shutdown();
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    let mut it = results.into_iter();
    let (a, b) = (
        it.next().expect("two clients")?,
        it.next().expect("two clients")?,
    );
    Ok(LoopRun {
        start: t0,
        wall_s,
        campaigns: [a, b],
        stats,
    })
}

/// Keeps one row per `(campaign, workload, config)` for the model
/// metrics.
fn keep_row(
    rows: &mut BTreeMap<(&'static str, String, String), Row>,
    template: Template,
    mut r: Row,
) {
    r.campaign = template.label();
    rows.insert((r.campaign, r.workload.clone(), r.config.clone()), r);
}

/// The passes' campaigns replayed through the batch plan types.
#[derive(Debug)]
pub struct Replay {
    /// Host seconds of the replay, minus split-stage calls.
    pub wall_s: f64,
    /// Report bytes and the instructions (MT + LT) the report accounts
    /// for, per distinct campaign.
    pub reports: HashMap<Template, (String, u64)>,
    /// Distinct campaigns in the order first replayed.
    pub order: Vec<Template>,
    /// Rows of the distinct grid and sampled campaigns, each row's
    /// `campaign` set to its template's label.
    pub grid_rows: Vec<Row>,
    /// Per-layer spans.
    pub layers: Layers,
}

/// Replays every campaign of `mixes` one at a time, pass by pass and
/// alternating clients, through the batch plans: prepared workloads and
/// interval plans are pooled, grid and sampled cells are memoized by
/// supervision key, and searches share one result cache in `dir` — the
/// service's dedup, done by the benchmark. Every replayed cell counts in
/// `tally`, and so does a campaign whose bytes differ from an earlier
/// replay of it.
pub fn replay(
    mixes: &[[Vec<Template>; 2]],
    dir: &Path,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::at(dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let sup = Supervisor::new(SuperviseConfig::default());
    let mut layers = Layers::default();
    let mut prepared: HashMap<&'static str, Arc<Prepared>> = HashMap::new();
    let mut plans: HashMap<(&'static str, String), Arc<Vec<IntervalCheckpoint>>> = HashMap::new();
    let mut memo = HashMap::new();
    let mut rows: BTreeMap<(&'static str, String, String), Row> = BTreeMap::new();
    let mut reports: HashMap<Template, (String, u64)> = HashMap::new();
    let mut first_seen = Vec::new();
    let order = mixes.iter().flat_map(|mix| {
        (0..mix[0].len().max(mix[1].len()))
            .flat_map(move |i| (0..2).filter_map(move |c| Some((c, *mix[c].get(i)?))))
    });

    let t0 = Instant::now();
    for (c, template) in order {
        let text = template.render(c);
        let spec = CampaignSpec::parse(&text).map_err(|e| format!("{e}: {text}"))?;
        let mut insts = 0u64;
        let report = match spec.to_request()? {
            Request::Grid(spec) => {
                let ps: Vec<_> = spec
                    .workloads
                    .iter()
                    .map(|w| {
                        Arc::clone(
                            prepared
                                .entry(w.name)
                                .or_insert_with(|| layers.prepare(w, spec.scale, tally)),
                        )
                    })
                    .collect();
                let plan = GridPlan::from_prepared(&spec, ps.clone());
                let outcomes = layers.grid(&plan, &ps, &sup, &mut memo);
                let result = plan.assemble(&outcomes);
                for (label, ok, mt) in grid_cells_ok(&result) {
                    tally.cell(&label, ok, mt);
                }
                for r in grid_rows(&result) {
                    insts += r.mt + r.lt;
                    keep_row(&mut rows, template, r);
                }
                result.to_json(false)
            }
            Request::Sample(spec, sample) => {
                let mut ps = Vec::new();
                let mut ivs = Vec::new();
                for w in &spec.workloads {
                    let p = Arc::clone(
                        prepared
                            .entry(w.name)
                            .or_insert_with(|| layers.prepare(w, spec.scale, tally)),
                    );
                    let iv = plans
                        .entry((w.name, sample.label()))
                        .or_insert_with(|| layers.plan(&p, &sample));
                    ivs.push(Arc::clone(iv));
                    ps.push(p);
                }
                let plan = SampledPlan::from_parts(&spec, &sample, ps.clone(), ivs.clone());
                let outcomes = layers.sampled(&plan, &ps, &ivs, &sample, &sup, &mut memo);
                let result = plan.assemble(&outcomes);
                for (label, ok, mt) in sampled_cells_ok(&result) {
                    tally.cell(&label, ok, mt);
                }
                for r in sampled_rows(&result) {
                    insts += r.mt + r.lt;
                    keep_row(&mut rows, template, r);
                }
                result.to_json(false)
            }
            Request::Dse(spec) => {
                let mut parts = Vec::new();
                for w in &spec.workloads {
                    let p = Arc::clone(
                        prepared
                            .entry(w.name)
                            .or_insert_with(|| layers.prepare(w, spec.scale, tally)),
                    );
                    let iv = plans
                        .entry((w.name, spec.sample.label()))
                        .or_insert_with(|| layers.plan(&p, &spec.sample));
                    parts.push((p, Arc::clone(iv)));
                }
                let t = Instant::now();
                let plan = DsePlan::from_parts(&spec, parts, 1);
                layers.skeletons_s += secs(t);
                let outcomes = layers.dse(&plan, &cache, &sup);
                for (cell, o) in plan.cells().iter().zip(&outcomes) {
                    let mt = o.value.as_ref().map_or(0, |v| v.report.mt_committed);
                    insts += o
                        .value
                        .as_ref()
                        .map_or(0, |v| v.report.mt_committed + v.report.lt_committed);
                    tally.cell(&plan.cell_key(*cell).descr, o.status == CellStatus::Ok, mt);
                }
                r3dla_dse::to_json(&plan.assemble(&outcomes))
            }
        };
        match reports.get(&template) {
            Some((earlier, _)) => tally.check(*earlier == report, || {
                format!("replaying `{template:?}` again gave different report bytes")
            }),
            None => {
                first_seen.push(template);
                reports.insert(template, (report, insts));
            }
        }
    }
    let wall_s = secs(t0) - layers.extra_s;
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(Replay {
        wall_s,
        reports,
        order: first_seen,
        grid_rows: rows.into_values().collect(),
        layers,
    })
}
