//! The campaign service core: an in-process engine that admits parsed
//! campaign specs, schedules their cells across a worker pool with
//! weighted fairness and budgets, dedupes identical cells across
//! clients, and assembles the same byte-deterministic reports the batch
//! binaries write.
//!
//! # Byte-determinism by construction
//!
//! The service does not reimplement any measurement or report code. A
//! campaign resolves to the exact plan type the batch drivers use
//! ([`GridPlan`], [`SampledPlan`], [`DsePlan`]); each cell runs through
//! [`Supervisor::map`] under the same supervision key the batch path
//! uses; and the final report is the plan's pure `assemble` over the
//! per-cell [`CellOutcome`]s, serialized without timing fields. Fault
//! injection is a pure function of `(plan seed, fault kind, attempt,
//! key)` and quarantine replays record failures verbatim, so the
//! outcome of every cell — success or failure — is independent of which
//! client triggered it, which worker ran it, and whether it was served
//! from memo, disk cache, or a fresh simulation.
//!
//! # Dedup
//!
//! Grid and sampled cells memoize their full [`CellOutcome`] under the
//! supervision key for the life of the service; a second campaign
//! touching the same cell is served from memo (or waits on the in-flight
//! execution) without simulating. DSE cells already have a disk-backed
//! [`ResultCache`]; the service only adds an in-flight table so
//! concurrent clients do not race to simulate the same cell — the
//! waiter re-runs the supervised lookup and hits the cache the first
//! execution stored. `serve.dedup` counts every cell served without a
//! fresh simulation; `dse.cache.hits` keeps counting disk hits.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use r3dla_bench::{
    CellOutcome, CellStatus, GridCell, GridPlan, Prepared, SampledCell, SampledPlan,
    SuperviseConfig, Supervisor,
};
use r3dla_core::WindowReport;
use r3dla_dse::{fxhash_str, CacheHealth, DseCell, DsePlan, IntervalResult, ResultCache};
use r3dla_obs::counters;
use r3dla_sample::IntervalCheckpoint;
use r3dla_workloads::Scale;

use crate::sched::{Reorder, Scheduler};
use crate::spec::{CampaignSpec, Request};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing cells (≥ 1).
    pub threads: usize,
    /// DSE result-cache directory; `None` disables the disk cache
    /// (grid/sample memoization still applies).
    pub cache_dir: Option<PathBuf>,
    /// Supervision policy (retries, quarantine, fault plan). The fault
    /// plan also drives the cache's store-fault injection, mirroring
    /// the batch CLIs.
    pub supervise: SuperviseConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 2,
            cache_dir: None,
            supervise: SuperviseConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Default configuration plus the environment knobs the batch
    /// binaries honor (`R3DLA_FAULT_PLAN`, `R3DLA_CELL_DEADLINE_MS`,
    /// `R3DLA_CELL_CYCLE_BUDGET`).
    pub fn from_env() -> Self {
        ServeConfig {
            supervise: SuperviseConfig::from_env(),
            ..ServeConfig::default()
        }
    }
}

/// How a cell was satisfied for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Simulated fresh by this campaign.
    Fresh,
    /// Served from the service memo or an in-flight execution.
    Shared,
    /// Served from the DSE disk cache without waiting.
    CacheHit,
}

/// Per-campaign dedup tallies, reported on the `done` stream line.
/// `fresh + shared + cache_hits` equals the campaign's cell count.
/// Unlike the cell lines and the report, the split between the three
/// buckets depends on scheduling (who got to a shared cell first), so
/// it is diagnostics, not part of the determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Cells this campaign simulated fresh.
    pub fresh: u64,
    /// Cells served from memo or an in-flight execution.
    pub shared: u64,
    /// Cells served from the DSE disk cache.
    pub cache_hits: u64,
}

/// Service-level tallies across all campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Campaigns accepted.
    pub campaigns: u64,
    /// Campaigns rejected (parse, resolve or budget).
    pub rejected: u64,
    /// Cells simulated fresh.
    pub fresh: u64,
    /// Cells served from memo or in-flight executions.
    pub shared: u64,
    /// Cells served from the DSE disk cache.
    pub cache_hits: u64,
    /// Cells admitted but not yet dispatched.
    pub queue_depth: usize,
}

/// One event in a campaign's result stream, in emission order:
/// `Accepted`, then one `Cell` per cell in cell-index order (the
/// reorder buffer restores this regardless of completion order), then
/// `Report`, then `Done`.
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// The campaign was admitted with this many cells.
    Accepted {
        /// Total cells the campaign will run.
        cells: usize,
    },
    /// One cell completed.
    Cell {
        /// Cell index, `0..total`.
        index: usize,
        /// Total cells in the campaign.
        total: usize,
        /// FxHash of the cell's supervision key (the stable identity
        /// dedup, fault injection and quarantine agree on).
        key_hash: u64,
        /// Supervised outcome classification.
        status: CellStatus,
        /// Attempts the supervisor consumed.
        attempts: u32,
    },
    /// The assembled report (identical bytes to the batch binary's
    /// `--out` file for the same spec).
    Report {
        /// Full report JSON.
        json: String,
    },
    /// Stream end.
    Done {
        /// Dedup tallies for this campaign.
        stats: CampaignStats,
    },
}

impl ServeEvent {
    /// Renders the event as its protocol line(s), newline-terminated.
    /// This is the exact encoding both front ends write.
    pub fn render(&self) -> String {
        match self {
            ServeEvent::Accepted { cells } => format!("accepted cells={cells}\n"),
            ServeEvent::Cell {
                index,
                total,
                key_hash,
                status,
                attempts,
            } => format!(
                "cell {}/{} {:016x} {} attempts={}\n",
                index + 1,
                total,
                key_hash,
                status.label(),
                attempts
            ),
            ServeEvent::Report { json } => {
                format!("report bytes={}\n{json}", json.len())
            }
            ServeEvent::Done { stats } => format!(
                "done fresh={} shared={} cache_hits={}\n",
                stats.fresh, stats.shared, stats.cache_hits
            ),
        }
    }
}

/// A cell's value, unifying the three plan types' results so one
/// outcome store serves every campaign kind.
#[derive(Debug, Clone)]
enum CellValue {
    /// A grid or sampled measurement window (with its wall time, which
    /// never reaches a served report).
    Window(WindowReport, u64),
    /// A DSE interval measurement.
    Interval(IntervalResult),
}

fn to_window(o: &CellOutcome<CellValue>) -> CellOutcome<(WindowReport, u64)> {
    CellOutcome {
        value: o.value.as_ref().map(|v| match v {
            CellValue::Window(r, ms) => (r.clone(), *ms),
            CellValue::Interval(_) => unreachable!("grid campaign holds an interval value"),
        }),
        status: o.status,
        attempts: o.attempts,
        error: o.error.clone(),
    }
}

fn to_interval(o: &CellOutcome<CellValue>) -> CellOutcome<IntervalResult> {
    CellOutcome {
        value: o.value.as_ref().map(|v| match v {
            CellValue::Interval(r) => r.clone(),
            CellValue::Window(..) => unreachable!("dse campaign holds a window value"),
        }),
        status: o.status,
        attempts: o.attempts,
        error: o.error.clone(),
    }
}

/// A campaign's resolved plan plus its pre-enumerated cells.
enum CampaignPlan {
    Grid {
        plan: Arc<GridPlan>,
        cells: Vec<GridCell>,
    },
    Sample {
        plan: Arc<SampledPlan>,
        cells: Vec<SampledCell>,
    },
    Dse {
        plan: Arc<DsePlan>,
        cells: Vec<DseCell>,
    },
}

/// One dispatched cell, detached from the service state so workers can
/// execute outside the lock.
enum Job {
    Grid(Arc<GridPlan>, GridCell),
    Sample(Arc<SampledPlan>, SampledCell),
    Dse(Arc<DsePlan>, DseCell),
}

impl CampaignPlan {
    fn n_cells(&self) -> usize {
        match self {
            CampaignPlan::Grid { cells, .. } => cells.len(),
            CampaignPlan::Sample { cells, .. } => cells.len(),
            CampaignPlan::Dse { cells, .. } => cells.len(),
        }
    }

    fn job(&self, idx: usize) -> Job {
        match self {
            CampaignPlan::Grid { plan, cells } => Job::Grid(Arc::clone(plan), cells[idx]),
            CampaignPlan::Sample { plan, cells } => Job::Sample(Arc::clone(plan), cells[idx]),
            CampaignPlan::Dse { plan, cells } => Job::Dse(Arc::clone(plan), cells[idx]),
        }
    }

    /// The cell's supervision key — the identity shared with the batch
    /// path (and hashed onto the `cell` stream line).
    fn sup_key(&self, idx: usize) -> String {
        match self {
            CampaignPlan::Grid { plan, cells } => plan.cell_key(cells[idx]),
            CampaignPlan::Sample { plan, cells } => plan.cell_key(cells[idx]),
            CampaignPlan::Dse { plan, cells } => plan.cell_key(cells[idx]).descr,
        }
    }

    /// Pure assembly into the batch report JSON (no timing fields, so
    /// the bytes match the batch binary run without `--timing`).
    fn assemble(&self, outcomes: &[CellOutcome<CellValue>]) -> String {
        match self {
            CampaignPlan::Grid { plan, .. } => {
                let converted: Vec<_> = outcomes.iter().map(to_window).collect();
                plan.assemble(&converted).to_json(false)
            }
            CampaignPlan::Sample { plan, .. } => {
                let converted: Vec<_> = outcomes.iter().map(to_window).collect();
                plan.assemble(&converted).to_json(false)
            }
            CampaignPlan::Dse { plan, .. } => {
                let converted: Vec<_> = outcomes.iter().map(to_interval).collect();
                r3dla_dse::to_json(&plan.assemble(&converted))
            }
        }
    }
}

/// One admitted campaign's in-flight state.
struct CampaignState {
    client: String,
    plan: CampaignPlan,
    total: usize,
    completed: usize,
    outcomes: Vec<Option<CellOutcome<CellValue>>>,
    reorder: Reorder<(u64, CellStatus, u32)>,
    stats: CampaignStats,
    events: mpsc::Sender<ServeEvent>,
}

/// State behind the service mutex: the scheduler plus every live
/// campaign.
struct State {
    scheduler: Scheduler,
    campaigns: HashMap<u64, CampaignState>,
    shutdown: bool,
}

/// Cross-client dedup state: the grid/sample outcome memo and the
/// in-flight table (shared by all kinds; grid keys and DSE key
/// descriptors live in disjoint namespaces).
#[derive(Default)]
struct DedupState {
    memo: HashMap<String, CellOutcome<CellValue>>,
    inflight: HashMap<String, Arc<(Mutex<bool>, Condvar)>>,
}

/// Pools of prepared workloads and interval plans, shared across
/// campaigns so a warm service admits repeat specs without re-profiling.
/// Each entry is built once: a client asking for an entry another
/// client is still building waits for that build instead of starting a
/// duplicate, so the work a set of campaigns costs does not depend on
/// how their submissions overlap.
#[derive(Default)]
struct Pools {
    prepared: HashMap<(&'static str, Scale), Slot<Prepared>>,
    intervals: HashMap<(&'static str, Scale, String), Slot<Vec<IntervalCheckpoint>>>,
}

/// A pool entry, filled by the first client that asks for it.
type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// The value in `map`'s slot for `key`, built by `build` unless another
/// caller built it (or is building it: then this waits). The pool lock
/// is held only to find the slot, never while building.
fn pooled<K: std::hash::Hash + Eq, T>(
    pools: &Mutex<Pools>,
    map: impl FnOnce(&mut Pools) -> &mut HashMap<K, Slot<T>>,
    key: K,
    build: impl FnOnce() -> T,
) -> Arc<T> {
    let slot = {
        let mut pools = pools.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map(&mut pools).entry(key).or_default())
    };
    Arc::clone(slot.get_or_init(|| Arc::new(build())))
}

struct Inner {
    cfg: ServeConfig,
    sup: Supervisor,
    cache: ResultCache,
    state: Mutex<State>,
    work_cv: Condvar,
    idle_cv: Condvar,
    dedup: Mutex<DedupState>,
    pools: Mutex<Pools>,
    next_id: AtomicU64,
    campaigns_total: AtomicU64,
    rejected_total: AtomicU64,
    fresh_total: AtomicU64,
    shared_total: AtomicU64,
    cache_hit_total: AtomicU64,
}

/// A running service plus its worker threads. Dropping the handle shuts
/// the service down (draining already-admitted campaigns first).
pub struct ServeHandle {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// A submitted campaign's result stream, as held by an in-process
/// client (the integration-test harness, or a front end relaying the
/// events over its transport).
pub struct Campaign {
    /// Service-assigned campaign id.
    pub id: u64,
    rx: mpsc::Receiver<ServeEvent>,
}

/// A fully drained campaign: the report plus the stream it arrived on.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The report JSON (batch-identical bytes).
    pub report: String,
    /// Final dedup tallies.
    pub stats: CampaignStats,
    /// Every stream line, rendered exactly as a front end would write
    /// it (includes the report bytes).
    pub lines: Vec<String>,
}

impl Campaign {
    /// Receives the next event; `None` once the stream is complete and
    /// drained.
    pub fn recv(&self) -> Option<ServeEvent> {
        self.rx.recv().ok()
    }

    /// Drains the stream to completion and collects the result. Errors
    /// if the stream ends without a report (service shut down early).
    pub fn wait(self) -> Result<CampaignResult, String> {
        let mut report = None;
        let mut stats = CampaignStats::default();
        let mut lines = Vec::new();
        while let Some(ev) = self.recv() {
            lines.push(ev.render());
            match ev {
                ServeEvent::Report { json } => report = Some(json),
                ServeEvent::Done { stats: s } => stats = s,
                _ => {}
            }
        }
        match report {
            Some(report) => Ok(CampaignResult {
                report,
                stats,
                lines,
            }),
            None => Err("campaign stream ended without a report".to_string()),
        }
    }
}

impl ServeHandle {
    /// Starts the service: opens the cache and spawns the worker pool.
    pub fn start(cfg: ServeConfig) -> Result<ServeHandle, String> {
        let cache = match &cfg.cache_dir {
            Some(dir) => ResultCache::at_with_plan(dir, cfg.supervise.plan)
                .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))?,
            None => ResultCache::disabled(),
        };
        let threads = cfg.threads.max(1);
        let inner = Arc::new(Inner {
            sup: Supervisor::new(cfg.supervise.clone()),
            cache,
            cfg,
            state: Mutex::new(State {
                scheduler: Scheduler::new(),
                campaigns: HashMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            dedup: Mutex::new(DedupState::default()),
            pools: Mutex::new(Pools::default()),
            next_id: AtomicU64::new(1),
            campaigns_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            fresh_total: AtomicU64::new(0),
            shared_total: AtomicU64::new(0),
            cache_hit_total: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(ServeHandle { inner, workers })
    }

    /// Parses and submits one campaign spec text.
    pub fn submit(&self, text: &str) -> Result<Campaign, String> {
        let spec = CampaignSpec::parse(text).map_err(|e| self.reject(e))?;
        self.submit_spec(&spec)
    }

    /// Submits an already-parsed campaign: resolves it, builds its plan
    /// (pooling preparation across campaigns), and admits it to the
    /// scheduler, charging the budget against the exact cell count.
    pub fn submit_spec(&self, spec: &CampaignSpec) -> Result<Campaign, String> {
        let _sp = r3dla_obs::span!("serve.submit", "{} {}", spec.client, spec.kind.name());
        let req = spec.to_request().map_err(|e| self.reject(e))?;
        let plan = self.inner.build_plan(&req);
        let total = plan.n_cells();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();

        if total == 0 {
            // Nothing to schedule: assemble the (empty) report inline.
            let _ = tx.send(ServeEvent::Accepted { cells: 0 });
            let _ = tx.send(ServeEvent::Report {
                json: plan.assemble(&[]),
            });
            let _ = tx.send(ServeEvent::Done {
                stats: CampaignStats::default(),
            });
            self.accept();
            return Ok(Campaign { id, rx });
        }

        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.shutdown {
                return Err(self.reject("service is shutting down".to_string()));
            }
            st.scheduler
                .admit(id, spec.priority, total, spec.budget)
                .map_err(|e| self.reject(e))?;
            let _ = tx.send(ServeEvent::Accepted { cells: total });
            st.campaigns.insert(
                id,
                CampaignState {
                    client: spec.client.clone(),
                    total,
                    completed: 0,
                    outcomes: vec![None; plan.n_cells()],
                    plan,
                    reorder: Reorder::new(),
                    stats: CampaignStats::default(),
                    events: tx,
                },
            );
            counters::set("serve.queue.depth", st.scheduler.depth() as u64);
        }
        self.accept();
        self.inner.work_cv.notify_all();
        Ok(Campaign { id, rx })
    }

    fn accept(&self) {
        self.inner.campaigns_total.fetch_add(1, Ordering::Relaxed);
        counters::add("serve.campaigns", 1);
    }

    fn reject(&self, reason: String) -> String {
        self.inner.rejected_total.fetch_add(1, Ordering::Relaxed);
        counters::add("serve.rejected", 1);
        reason
    }

    /// Blocks until every admitted campaign has completed.
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        while !(st.scheduler.is_empty() && st.campaigns.is_empty()) {
            st = self
                .inner
                .idle_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Current service-level tallies.
    pub fn stats(&self) -> ServeStats {
        let depth = {
            let st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.scheduler.depth()
        };
        ServeStats {
            campaigns: self.inner.campaigns_total.load(Ordering::Relaxed),
            rejected: self.inner.rejected_total.load(Ordering::Relaxed),
            fresh: self.inner.fresh_total.load(Ordering::Relaxed),
            shared: self.inner.shared_total.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hit_total.load(Ordering::Relaxed),
            queue_depth: depth,
        }
    }

    /// The DSE disk cache's health counters (for consistency checks
    /// after fault injection).
    pub fn cache_health(&self) -> CacheHealth {
        self.inner.cache.health()
    }

    /// Drains admitted campaigns, stops the workers and joins them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop();
        }
    }
}

impl Inner {
    /// Resolves a request into a plan, reusing pooled preparation.
    fn build_plan(&self, req: &Request) -> CampaignPlan {
        match req {
            Request::Grid(spec) => {
                let prepared = self.pooled_prepared(&spec.workloads, spec.scale);
                let plan = Arc::new(GridPlan::from_prepared(spec, prepared));
                let cells = plan.cells();
                CampaignPlan::Grid { plan, cells }
            }
            Request::Sample(spec, sample) => {
                let prepared = self.pooled_prepared(&spec.workloads, spec.scale);
                let plans = self.pooled_intervals(&spec.workloads, spec.scale, sample, &prepared);
                let plan = Arc::new(SampledPlan::from_parts(spec, sample, prepared, plans));
                let cells = plan.cells();
                CampaignPlan::Sample { plan, cells }
            }
            Request::Dse(spec) => {
                let prepared = self.pooled_prepared(&spec.workloads, spec.scale);
                let plans =
                    self.pooled_intervals(&spec.workloads, spec.scale, &spec.sample, &prepared);
                let parts = prepared.into_iter().zip(plans).collect();
                let plan = Arc::new(DsePlan::from_parts(spec, parts, self.cfg.threads));
                let cells = plan.cells();
                CampaignPlan::Dse { plan, cells }
            }
        }
    }

    fn pooled_prepared(
        &self,
        workloads: &[r3dla_workloads::Workload],
        scale: Scale,
    ) -> Vec<Arc<Prepared>> {
        workloads
            .iter()
            .map(|w| {
                pooled(
                    &self.pools,
                    |pools| &mut pools.prepared,
                    (w.name, scale),
                    || Prepared::new(w, scale),
                )
            })
            .collect()
    }

    fn pooled_intervals(
        &self,
        workloads: &[r3dla_workloads::Workload],
        scale: Scale,
        sample: &r3dla_sample::SampleSpec,
        prepared: &[Arc<Prepared>],
    ) -> Vec<Arc<Vec<IntervalCheckpoint>>> {
        workloads
            .iter()
            .zip(prepared)
            .map(|(w, p)| {
                pooled(
                    &self.pools,
                    |pools| &mut pools.intervals,
                    (w.name, scale, sample.label()),
                    || r3dla_sample::plan_intervals(&p.program, sample),
                )
            })
            .collect()
    }

    /// Runs one cell with cross-client dedup. Returns the outcome and
    /// how it was satisfied.
    fn execute(&self, job: &Job) -> (CellOutcome<CellValue>, Class) {
        match job {
            Job::Grid(plan, cell) => self.dedup_window(&plan.cell_key(*cell), || {
                self.supervise_one(plan.cell_key(*cell), || plan.evaluate(*cell))
            }),
            Job::Sample(plan, cell) => self.dedup_window(&plan.cell_key(*cell), || {
                self.supervise_one(plan.cell_key(*cell), || plan.evaluate(*cell))
            }),
            Job::Dse(plan, cell) => {
                let key = plan.cell_key(*cell).descr;
                let waited = self.wait_inflight(&key);
                let disk_hit = AtomicBool::new(false);
                let outcomes = self.sup.map(
                    &[*cell],
                    1,
                    |_| key.clone(),
                    |&c| {
                        let (result, hit) = plan.evaluate(c, &self.cache);
                        if hit {
                            disk_hit.store(true, Ordering::Relaxed);
                        }
                        Ok(result)
                    },
                );
                self.finish_inflight(&key);
                let o = outcomes.into_iter().next().expect("one outcome per cell");
                let outcome = CellOutcome {
                    value: o.value.map(CellValue::Interval),
                    status: o.status,
                    attempts: o.attempts,
                    error: o.error,
                };
                let class = if waited {
                    Class::Shared
                } else if disk_hit.load(Ordering::Relaxed) {
                    Class::CacheHit
                } else {
                    Class::Fresh
                };
                (outcome, class)
            }
        }
    }

    /// Supervised execution of a single window-producing cell under its
    /// batch supervision key.
    fn supervise_one<F>(&self, key: String, eval: F) -> CellOutcome<CellValue>
    where
        F: Fn() -> (WindowReport, u64) + Sync,
    {
        let o = self
            .sup
            .map(&[()], 1, |_| key.clone(), |_| Ok(eval()))
            .into_iter()
            .next()
            .expect("one outcome per cell");
        CellOutcome {
            value: o.value.map(|(r, ms)| CellValue::Window(r, ms)),
            status: o.status,
            attempts: o.attempts,
            error: o.error,
        }
    }

    /// Memoizing dedup for grid/sample cells: memo hit → shared;
    /// in-flight → wait, then memo hit; otherwise execute and publish.
    fn dedup_window<F>(&self, key: &str, exec: F) -> (CellOutcome<CellValue>, Class)
    where
        F: FnOnce() -> CellOutcome<CellValue>,
    {
        loop {
            let waiter = {
                let mut d = self.dedup.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(hit) = d.memo.get(key) {
                    return (hit.clone(), Class::Shared);
                }
                match d.inflight.get(key) {
                    Some(w) => Arc::clone(w),
                    None => {
                        d.inflight.insert(
                            key.to_string(),
                            Arc::new((Mutex::new(false), Condvar::new())),
                        );
                        break;
                    }
                }
            };
            wait_done(&waiter);
        }
        let outcome = exec();
        {
            let mut d = self.dedup.lock().unwrap_or_else(|e| e.into_inner());
            d.memo.insert(key.to_string(), outcome.clone());
        }
        self.finish_inflight(key);
        (outcome, Class::Fresh)
    }

    /// DSE in-flight gate: if another worker is executing `key`, wait
    /// for it (the subsequent lookup hits the disk cache it stored),
    /// then register as the next executor. Returns whether it waited.
    fn wait_inflight(&self, key: &str) -> bool {
        let mut waited = false;
        loop {
            let waiter = {
                let mut d = self.dedup.lock().unwrap_or_else(|e| e.into_inner());
                match d.inflight.get(key) {
                    Some(w) => Arc::clone(w),
                    None => {
                        d.inflight.insert(
                            key.to_string(),
                            Arc::new((Mutex::new(false), Condvar::new())),
                        );
                        return waited;
                    }
                }
            };
            waited = true;
            wait_done(&waiter);
        }
    }

    /// Removes the in-flight marker for `key` and wakes its waiters.
    fn finish_inflight(&self, key: &str) {
        let waiter = {
            let mut d = self.dedup.lock().unwrap_or_else(|e| e.into_inner());
            d.inflight.remove(key)
        };
        if let Some(w) = waiter {
            let (lock, cv) = &*w;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cv.notify_all();
        }
    }

    fn count(&self, class: Class) {
        match class {
            Class::Fresh => {
                self.fresh_total.fetch_add(1, Ordering::Relaxed);
                counters::add("serve.cells", 1);
            }
            Class::Shared => {
                self.shared_total.fetch_add(1, Ordering::Relaxed);
                counters::add("serve.dedup", 1);
            }
            Class::CacheHit => {
                self.cache_hit_total.fetch_add(1, Ordering::Relaxed);
                counters::add("serve.dedup", 1);
            }
        }
    }
}

/// Blocks on an in-flight marker until its executor finishes.
fn wait_done(waiter: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cv) = &**waiter;
    let mut done = lock.lock().unwrap_or_else(|e| e.into_inner());
    while !*done {
        done = cv.wait(done).unwrap_or_else(|e| e.into_inner());
    }
}

/// Worker thread body: pull `(campaign, cell)` dispatches, execute with
/// dedup, record results and finish campaigns.
fn worker_loop(inner: &Inner) {
    loop {
        let dispatched = {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some((cid, idx)) = st.scheduler.dispatch() {
                    let c = st
                        .campaigns
                        .get(&cid)
                        .expect("scheduled campaigns stay registered until complete");
                    counters::set("serve.queue.depth", st.scheduler.depth() as u64);
                    break Some((cid, idx, c.plan.job(idx)));
                }
                if st.shutdown {
                    break None;
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((cid, idx, job)) = dispatched else {
            return;
        };

        let (outcome, class) = inner.execute(&job);
        inner.count(class);
        r3dla_obs::progress::tick(1);

        let finished = {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            let c = st
                .campaigns
                .get_mut(&cid)
                .expect("campaign completes only after all its cells record");
            let (status, attempts) = (outcome.status, outcome.attempts);
            c.outcomes[idx] = Some(outcome);
            c.completed += 1;
            match class {
                Class::Fresh => c.stats.fresh += 1,
                Class::Shared => c.stats.shared += 1,
                Class::CacheHit => c.stats.cache_hits += 1,
            }
            let key_hash = fxhash_str(&c.plan.sup_key(idx));
            let total = c.total;
            for (i, (hash, status, attempts)) in c.reorder.push(idx, (key_hash, status, attempts)) {
                let _ = c.events.send(ServeEvent::Cell {
                    index: i,
                    total,
                    key_hash: hash,
                    status,
                    attempts,
                });
            }
            if c.completed == c.total {
                st.campaigns.remove(&cid)
            } else {
                None
            }
        };

        if let Some(c) = finished {
            let _sp = r3dla_obs::span!("serve.assemble", "{} {} cells", c.client, c.total);
            let outcomes: Vec<CellOutcome<CellValue>> = c
                .outcomes
                .into_iter()
                .map(|o| o.expect("completed campaign has every outcome"))
                .collect();
            let json = c.plan.assemble(&outcomes);
            let _ = c.events.send(ServeEvent::Report { json });
            let _ = c.events.send(ServeEvent::Done { stats: c.stats });
            inner.idle_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn a_pool_entry_being_built_is_waited_for_not_rebuilt() {
        let pools = Mutex::new(Pools::default());
        let builds = AtomicUsize::new(0);
        let building = Barrier::new(2);
        let key = || ("md5_like", Scale::Tiny, "2:800:none".to_string());
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| {
                pooled(
                    &pools,
                    |p| &mut p.intervals,
                    key(),
                    || {
                        building.wait();
                        builds.fetch_add(1, Ordering::SeqCst);
                        Vec::new()
                    },
                )
            });
            // The first build is under way: this request must wait for
            // it rather than build its own entry.
            building.wait();
            let second = pooled(
                &pools,
                |p| &mut p.intervals,
                key(),
                || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                },
            );
            (first.join().expect("first request"), second)
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&first, &second));
    }
}
