//! The parallel experiment runner: fans a (workload × configuration)
//! grid out across scoped worker threads.
//!
//! Every cell constructs its own thread-confined
//! [`DlaSystem`](r3dla_core::DlaSystem) (or
//! [`SingleCoreSim`](r3dla_core::SingleCoreSim)) from a shared,
//! immutable [`Prepared`] workload, so
//! the simulator's `Rc`/`RefCell` internals never cross a thread
//! boundary — only `Send + Sync` specs go in and plain-data reports come
//! out. Results keep deterministic (grid) order no matter which worker
//! ran them, so `--threads 1` and `--threads N` produce byte-identical
//! JSON.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use r3dla_core::{DlaConfig, WindowReport};
use r3dla_cpu::CoreConfig;
use r3dla_workloads::{suite, Scale, Suite, Workload};

use crate::supervise::{push_status_fields, CellOutcome, CellStatus, Supervisor};
use crate::{Prepared, WARMUP, WINDOW};

/// Maps `f` over `items` on `threads` scoped workers pulling cell indices
/// from a shared queue. Results are returned in input order regardless of
/// which worker computed them; with `threads <= 1` the map runs inline on
/// the calling thread.
///
/// A panicking item does not bring the whole scope down with a
/// misleading secondary panic: the first real payload (and the index of
/// the item that raised it) is captured, the work queue is poisoned so
/// idle workers stop picking up cells, and the payload is re-raised on
/// the calling thread once in-flight cells finish. Campaigns that need
/// to *survive* the panic instead run through
/// [`Supervisor::map`](crate::supervise::Supervisor::map).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    type Panic = (usize, Box<dyn std::any::Any + Send>);
    let panicked: Mutex<Option<Panic>> = Mutex::new(None);
    let wseq = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                if r3dla_obs::trace::enabled() {
                    let w = wseq.fetch_add(1, Ordering::Relaxed);
                    r3dla_obs::trace::name_thread(format!("map-worker-{w}"));
                }
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => *slots[i].lock().unwrap() = Some(r),
                        Err(payload) => {
                            let mut first = panicked.lock().unwrap();
                            if first.is_none() {
                                *first = Some((i, payload));
                            }
                            next.store(items.len(), Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });
    if let Some((i, payload)) = panicked.into_inner().unwrap() {
        r3dla_obs::diag!("parallel_map: worker panicked on item {i}");
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// What one grid cell simulates.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a handful of specs per grid
pub enum CellKind {
    /// A two-core DLA/R3 system.
    Dla(DlaConfig),
    /// A conventional single core with optional L1/L2 prefetchers.
    Single {
        /// Core parameters.
        core: CoreConfig,
        /// L1 prefetcher name (per `r3dla_prefetch::by_name`).
        l1pf: Option<&'static str>,
        /// L2 prefetcher name.
        l2pf: Option<&'static str>,
    },
}

impl CellKind {
    /// The paper's baseline single core: no L1 prefetcher, BOP at L2.
    pub fn bl(core: CoreConfig) -> Self {
        CellKind::Single {
            core,
            l1pf: None,
            l2pf: Some("bop"),
        }
    }
}

/// A named configuration column of the grid.
#[derive(Debug, Clone)]
pub struct ConfigSpec {
    /// Stable label used in output and `--configs` selection.
    pub label: String,
    /// What to simulate.
    pub kind: CellKind,
}

impl ConfigSpec {
    /// A DLA-system column.
    pub fn dla(label: &str, cfg: DlaConfig) -> Self {
        Self {
            label: label.to_string(),
            kind: CellKind::Dla(cfg),
        }
    }

    /// Names accepted by [`ConfigSpec::by_name`] / the runner's
    /// `--configs` flag.
    pub fn known_names() -> &'static [&'static str] {
        &[
            "bl",
            "bl_nopf",
            "dla",
            "dla_nopf",
            "dla_t1",
            "dla_vr",
            "dla_fb",
            "dla_rc",
            "dla_stride",
            "r3",
            "r3_nopf",
        ]
    }

    /// Resolves a standard configuration by name.
    pub fn by_name(name: &str) -> Option<Self> {
        let spec = match name {
            "bl" => Self {
                label: "bl".to_string(),
                kind: CellKind::bl(CoreConfig::paper()),
            },
            "bl_nopf" => Self {
                label: "bl_nopf".to_string(),
                kind: CellKind::Single {
                    core: CoreConfig::paper(),
                    l1pf: None,
                    l2pf: None,
                },
            },
            "dla" => Self::dla("dla", DlaConfig::dla()),
            "dla_nopf" => Self::dla("dla_nopf", DlaConfig::dla().without_prefetcher()),
            "dla_t1" => {
                let mut c = DlaConfig::dla();
                c.t1 = true;
                Self::dla("dla_t1", c)
            }
            "dla_vr" => {
                let mut c = DlaConfig::dla();
                c.value_reuse = true;
                Self::dla("dla_vr", c)
            }
            "dla_fb" => {
                let mut c = DlaConfig::dla();
                c.mt_core.fetch_buffer = 32;
                Self::dla("dla_fb", c)
            }
            "dla_rc" => {
                let mut c = DlaConfig::dla();
                c.recycle = r3dla_core::RecycleMode::Dynamic;
                Self::dla("dla_rc", c)
            }
            "dla_stride" => {
                let mut c = DlaConfig::dla();
                c.mt_l1_prefetcher = Some("stride");
                Self::dla("dla_stride", c)
            }
            "r3" => Self::dla("r3", DlaConfig::r3()),
            "r3_nopf" => Self::dla("r3_nopf", DlaConfig::r3().without_prefetcher()),
            _ => return None,
        };
        Some(spec)
    }
}

/// A (workload × configuration) grid to run.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Input scale.
    pub scale: Scale,
    /// Grid rows.
    pub workloads: Vec<Workload>,
    /// Grid columns.
    pub configs: Vec<ConfigSpec>,
    /// Warmup committed instructions per cell.
    pub warm: u64,
    /// Measured committed instructions per cell.
    pub win: u64,
    /// Event-driven cycle skipping (on by default; the reports are
    /// byte-identical either way — the off position exists for
    /// equivalence checks and the runner's `--no-skip` flag).
    pub fast_forward: bool,
}

impl GridSpec {
    /// The standard grid: the whole suite under `bl` / `dla` / `r3` with
    /// the default window sizing.
    pub fn standard(scale: Scale) -> Self {
        Self {
            scale,
            workloads: suite(),
            configs: ["bl", "dla", "r3"]
                .iter()
                .map(|n| ConfigSpec::by_name(n).unwrap())
                .collect(),
            warm: WARMUP,
            win: WINDOW,
            fast_forward: true,
        }
    }
}

/// One finished grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Workload name.
    pub workload: String,
    /// Workload suite.
    pub suite: Suite,
    /// Configuration label.
    pub config: String,
    /// The measured window.
    pub report: WindowReport,
    /// Wall-clock the cell took (excluded from deterministic JSON).
    pub wall_ms: u64,
    /// Supervised outcome ([`CellStatus::Ok`] for an unsupervised run).
    pub status: CellStatus,
    /// Attempts the supervisor spent on the cell (1 when unsupervised).
    pub attempts: u32,
    /// Failure detail for non-`Ok` cells.
    pub error: Option<String>,
}

impl CellResult {
    /// Whether this row needs no supervision fields in its JSON: a
    /// first-try success. Clean rows serialize exactly as they did
    /// before supervision existed, keeping faults-off bytes unchanged.
    pub fn is_clean(&self) -> bool {
        self.status == CellStatus::Ok && self.attempts <= 1
    }

    /// The deterministic JSON fields of this cell's row — everything
    /// except the timing-only additions. Shared by
    /// [`GridResult::to_json`] and the skip-equivalence suite so the
    /// compared format cannot drift from the real schema.
    pub fn stat_fields(&self) -> String {
        let r = &self.report;
        let mut out = format!(
            "\"workload\": \"{}\", \"suite\": \"{}\", \"config\": \"{}\", \
             \"mt_ipc\": {:.6}, \"cycles\": {}, \"mt_committed\": {}, \
             \"lt_committed\": {}, \"dram_traffic\": {}, \"mt_l1d_misses\": {}, \
             \"mt_l1d_accesses\": {}, \"reboots\": {}",
            self.workload,
            self.suite,
            self.config,
            r.mt_ipc,
            r.cycles,
            r.mt_committed,
            r.lt_committed,
            r.dram_traffic,
            r.mt_l1d_misses,
            r.mt_l1d_accesses,
            r.reboots,
        );
        if !self.is_clean() {
            push_status_fields(&mut out, self.status, self.attempts, self.error.as_deref());
        }
        out
    }

    /// Simulated throughput in MIPS: committed instructions (MT + LT,
    /// measured window only, so warmup makes this a mild underestimate)
    /// per host second of the whole cell.
    pub fn sim_mips(&self) -> f64 {
        if self.wall_ms == 0 {
            return 0.0;
        }
        (self.report.mt_committed + self.report.lt_committed) as f64
            / (self.wall_ms as f64 * 1000.0)
    }
}

/// All results of a grid run.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Scale the grid ran at.
    pub scale: Scale,
    /// Warmup instructions per cell.
    pub warm: u64,
    /// Window instructions per cell.
    pub win: u64,
    /// Cells in deterministic grid order (workload-major).
    pub cells: Vec<CellResult>,
    /// Wall-clock of the preparation phase.
    pub prep_ms: u64,
    /// Wall-clock of the measurement phase.
    pub measure_ms: u64,
}

/// The canonical lowercase name of a scale, as emitted in JSON headers.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Train => "train",
        Scale::Ref => "ref",
    }
}

/// A window longer than any suite program at `Scale::Tiny`: a cell
/// measured over it runs to `Halt`.
pub const WHOLE_PROGRAM: u64 = 1_000_000_000;

/// The runner's default `(warm, window)` at `scale`. Train and Ref warm
/// over [`WARMUP`] and measure [`WINDOW`] instructions. Tiny programs can end inside that warmup
/// (`gobmk_like` runs 26,232 instructions), so Tiny runs each one whole:
/// no warmup, and a window that ends at `Halt`.
pub fn default_warm_window(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Tiny => (0, WHOLE_PROGRAM),
        Scale::Train | Scale::Ref => (WARMUP, WINDOW),
    }
}

/// Parses a scale name accepted by the runner CLI.
pub fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "tiny" => Some(Scale::Tiny),
        "train" => Some(Scale::Train),
        "ref" => Some(Scale::Ref),
        _ => None,
    }
}

/// Prepares the grid's workloads and measures every cell under a
/// supervisor configured from the environment (`R3DLA_FAULT_PLAN`,
/// `R3DLA_CELL_DEADLINE_MS`, `R3DLA_CELL_CYCLE_BUDGET`), both phases on
/// the same `threads`-wide worker pool.
pub fn run_grid(spec: &GridSpec, threads: usize) -> GridResult {
    run_grid_supervised(spec, threads, &Supervisor::from_env())
}

/// The stable identity of a grid cell — the key fault injection and
/// quarantine decisions hash, so it must name the cell's inputs and
/// nothing about scheduling.
pub fn grid_cell_key(spec: &GridSpec, workload: &str, config: &str) -> String {
    format!(
        "grid|{}|{}|{}|{}|{}",
        scale_name(spec.scale),
        spec.warm,
        spec.win,
        workload,
        config
    )
}

/// One `(workload, config)` cell of a grid, addressed by indices into
/// the owning [`GridPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Index into the spec's workload list.
    pub workload: usize,
    /// Index into the spec's config list.
    pub config: usize,
}

/// The pre-enumerated cell set of one grid: the spec plus its prepared
/// workloads, exposing the primitive the batch runner and the campaign
/// service share — enumerate cells, key them, evaluate them, and
/// assemble the outcomes into a [`GridResult`]. Prepared workloads are
/// `Arc`-shared so a long-running service pools them across campaigns.
pub struct GridPlan {
    spec: GridSpec,
    prepared: Vec<Arc<Prepared>>,
}

impl GridPlan {
    /// Prepares every workload of the spec on `threads` workers.
    pub fn build(spec: &GridSpec, threads: usize) -> Self {
        let prepared = parallel_map(&spec.workloads, threads, |w| Prepared::new(w, spec.scale))
            .into_iter()
            .map(Arc::new)
            .collect();
        Self::from_prepared(spec, prepared)
    }

    /// Builds the plan from already-prepared workloads, one per spec
    /// workload in order.
    ///
    /// # Panics
    ///
    /// When `prepared` does not line up 1:1 with `spec.workloads`.
    pub fn from_prepared(spec: &GridSpec, prepared: Vec<Arc<Prepared>>) -> Self {
        assert_eq!(
            prepared.len(),
            spec.workloads.len(),
            "one prepared workload per spec workload"
        );
        GridPlan {
            spec: spec.clone(),
            prepared,
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Every cell in canonical (workload-major) order — the order
    /// [`GridPlan::assemble`] expects its outcomes in.
    pub fn cells(&self) -> Vec<GridCell> {
        (0..self.prepared.len())
            .flat_map(|wi| {
                (0..self.spec.configs.len()).map(move |ci| GridCell {
                    workload: wi,
                    config: ci,
                })
            })
            .collect()
    }

    /// Total cell count — a pure function of the spec (admission
    /// budgets rely on this).
    pub fn n_cells(&self) -> usize {
        self.prepared.len() * self.spec.configs.len()
    }

    /// The cell's stable supervision key (see [`grid_cell_key`]).
    pub fn cell_key(&self, cell: GridCell) -> String {
        grid_cell_key(
            &self.spec,
            &self.prepared[cell.workload].name,
            &self.spec.configs[cell.config].label,
        )
    }

    /// Measures one cell, returning the report and the cell's host
    /// wall-clock in milliseconds (the latter never reaches the
    /// deterministic JSON).
    pub fn evaluate(&self, cell: GridCell) -> (WindowReport, u64) {
        let c0 = Instant::now();
        let report = self.prepared[cell.workload].measure(
            &self.spec.configs[cell.config].kind,
            self.spec.warm,
            self.spec.win,
            self.spec.fast_forward,
        );
        (report, c0.elapsed().as_millis() as u64)
    }

    /// Assembles per-cell outcomes (in [`GridPlan::cells`] order) into
    /// the final result, exactly as the batch runner does, so the
    /// deterministic JSON is byte-identical. Wall-clock fields are zero
    /// (they only appear in `--timing` output).
    ///
    /// # Panics
    ///
    /// When `outcomes` does not line up 1:1 with [`GridPlan::cells`].
    pub fn assemble(&self, outcomes: &[CellOutcome<(WindowReport, u64)>]) -> GridResult {
        assert_eq!(
            outcomes.len(),
            self.n_cells(),
            "one outcome per planned cell"
        );
        let results = self
            .cells()
            .iter()
            .zip(outcomes)
            .map(|(&cell, o)| {
                let (report, wall_ms) = o.value.clone().unwrap_or_default();
                CellResult {
                    workload: self.prepared[cell.workload].name.clone(),
                    suite: self.prepared[cell.workload].suite,
                    config: self.spec.configs[cell.config].label.clone(),
                    report,
                    wall_ms,
                    status: o.status,
                    attempts: o.attempts,
                    error: o.error.clone(),
                }
            })
            .collect();
        GridResult {
            scale: self.spec.scale,
            warm: self.spec.warm,
            win: self.spec.win,
            cells: results,
            prep_ms: 0,
            measure_ms: 0,
        }
    }
}

/// [`run_grid`] under an explicit [`Supervisor`]: each cell runs inside
/// `catch_unwind` with retry/quarantine policy; a failed cell degrades
/// to a status row (default-zero report) instead of killing the grid.
pub fn run_grid_supervised(spec: &GridSpec, threads: usize, sup: &Supervisor) -> GridResult {
    let t0 = Instant::now();
    let plan = GridPlan::build(spec, threads);
    let prep_ms = t0.elapsed().as_millis() as u64;

    let cells = plan.cells();
    let t1 = Instant::now();
    let outcomes = sup.map(
        &cells,
        threads,
        |&cell| plan.cell_key(cell),
        |&cell| Ok(plan.evaluate(cell)),
    );
    let mut result = plan.assemble(&outcomes);
    result.prep_ms = prep_ms;
    result.measure_ms = t1.elapsed().as_millis() as u64;
    result
}

impl GridResult {
    /// Serializes the results as JSON (`BENCH_*.json` schema). The output
    /// is a pure function of the grid spec — wall-clock and throughput
    /// fields (`host_ms`, `sim_mips`, per-cell `wall_ms`) are emitted
    /// only when `timing` is set, so the default serialization is
    /// byte-identical across `--threads` settings and across the
    /// cycle-skipping on/off paths.
    pub fn to_json(&self, timing: bool) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 220);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"r3dla-bench-grid-v1\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(self.scale)));
        out.push_str(&format!("  \"warm\": {},\n", self.warm));
        out.push_str(&format!("  \"window\": {},\n", self.win));
        if timing {
            out.push_str(&format!("  \"prep_ms\": {},\n", self.prep_ms));
            out.push_str(&format!("  \"measure_ms\": {},\n", self.measure_ms));
            out.push_str(&format!("  \"host_ms\": {},\n", self.host_ms()));
            out.push_str(&format!("  \"sim_mips\": {:.3},\n", self.sim_mips()));
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!("    {{{}", c.stat_fields()));
            if timing {
                out.push_str(&format!(
                    ", \"wall_ms\": {}, \"sim_mips\": {:.3}",
                    c.wall_ms,
                    c.sim_mips()
                ));
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Total host wall-clock: preparation plus measurement.
    pub fn host_ms(&self) -> u64 {
        self.prep_ms + self.measure_ms
    }

    /// Aggregate simulated throughput in MIPS over the measurement
    /// phase: all cells' committed instructions (MT + LT, measured
    /// windows only) per host second of grid measurement. With a worker
    /// pool this exceeds any single cell's rate — it is the grid's
    /// effective simulation speed.
    pub fn sim_mips(&self) -> f64 {
        if self.measure_ms == 0 {
            return 0.0;
        }
        let insts: u64 = self
            .cells
            .iter()
            .map(|c| c.report.mt_committed + c.report.lt_committed)
            .sum();
        insts as f64 / (self.measure_ms as f64 * 1000.0)
    }

    /// Cells that ran to completion yet committed zero MT instructions —
    /// a sick simulation the CI gate fails on. Failed cells are excluded
    /// (their reports are zeroed by construction; see
    /// [`GridResult::failed_cells`]).
    pub fn empty_cells(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Ok && c.report.mt_committed == 0)
            .collect()
    }

    /// Cells the supervisor gave up on (status rows in the JSON).
    pub fn failed_cells(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.status != CellStatus::Ok)
            .collect()
    }
}

/// Per-workload row output of one [`ExperimentSpec`] metric extraction.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Workload name.
    pub workload: String,
    /// Workload suite.
    pub suite: Suite,
    /// One value per spec column.
    pub values: Vec<f64>,
}

/// A figure/table experiment: named metric columns extracted per
/// workload. The shared descriptor the per-figure binaries build instead
/// of hand-rolled prepare/measure/print loops; rows fan out across the
/// runner's worker pool.
pub struct ExperimentSpec {
    /// Experiment name (heading).
    pub name: String,
    /// Column labels (match `run`'s output ordering).
    pub columns: Vec<String>,
    /// Extracts all column values for one prepared workload.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(&Prepared) -> Vec<f64> + Send + Sync>,
}

impl ExperimentSpec {
    /// Builds a spec from a name, column labels and a row extractor.
    pub fn new<F>(name: &str, columns: &[&str], run: F) -> Self
    where
        F: Fn(&Prepared) -> Vec<f64> + Send + Sync + 'static,
    {
        Self {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            run: Box::new(run),
        }
    }

    /// Runs the extractor over every prepared workload on `threads`
    /// workers; rows come back in workload order.
    pub fn execute(&self, prepared: &[Prepared], threads: usize) -> ExperimentResult {
        let rows = parallel_map(prepared, threads, |p| {
            let values = (self.run)(p);
            debug_assert_eq!(values.len(), self.columns.len());
            ExperimentRow {
                workload: p.name.clone(),
                suite: p.suite,
                values,
            }
        });
        ExperimentResult {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows,
        }
    }
}

/// A markdown table cell: three decimals, or `n/a` for an undefined
/// (NaN) value.
fn cell(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v:.3}")
    }
}

/// Executed experiment: per-workload rows plus aggregation helpers.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment name.
    pub name: String,
    /// Column labels.
    pub columns: Vec<String>,
    /// Per-workload rows in workload order.
    pub rows: Vec<ExperimentRow>,
}

impl ExperimentResult {
    /// The `(suite, value)` pairs of column `k` (for
    /// [`crate::suite_summary`]).
    pub fn column(&self, k: usize) -> Vec<(Suite, f64)> {
        self.rows.iter().map(|r| (r.suite, r.values[k])).collect()
    }

    /// Overall geometric mean of column `k`.
    pub fn geomean(&self, k: usize) -> f64 {
        let vals: Vec<f64> = self.rows.iter().map(|r| r.values[k]).collect();
        r3dla_stats::geomean(&vals)
    }

    /// Prints the per-workload markdown table.
    pub fn print_markdown(&self) {
        println!("| bench | {} |", self.columns.join(" | "));
        println!("|---{}|", "|---".repeat(self.columns.len()));
        for r in &self.rows {
            let cells: Vec<String> = r.values.iter().map(|&v| cell(v)).collect();
            println!("| {} | {} |", r.workload, cells.join(" | "));
        }
    }

    /// Prints the per-suite + overall geometric-mean summary table.
    pub fn print_geomeans(&self) {
        println!("| group | {} |", self.columns.join(" | "));
        println!("|---{}|", "|---".repeat(self.columns.len()));
        let summaries: Vec<Vec<(String, f64)>> = (0..self.columns.len())
            .map(|k| crate::suite_summary(&self.column(k)))
            .collect();
        for g in 0..summaries[0].len() {
            let cells: Vec<String> = summaries.iter().map(|s| cell(s[g].1)).collect();
            println!("| {} | {} |", summaries[0][g].0, cells.join(" | "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_workloads::by_name;

    /// The Tiny defaults fit every suite workload: nothing ends inside
    /// the warmup, and every program halts inside the window.
    #[test]
    fn tiny_defaults_fit_every_workload() {
        let (warm, win) = default_warm_window(Scale::Tiny);
        for w in r3dla_workloads::suite() {
            let len = r3dla_core::dynamic_length(&w.build(Scale::Tiny).program, win);
            assert!(len > warm && len < win, "{}: {len} instructions", w.name);
        }
    }

    #[test]
    fn parallel_map_keeps_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let serial = parallel_map(&items, 1, |&x| x * 3 + 1);
        let parallel = parallel_map(&items, 8, |&x| x * 3 + 1);
        assert_eq!(serial, parallel);
        assert_eq!(serial[41], 124);
    }

    #[test]
    fn parallel_map_uses_worker_pool() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        parallel_map(&items, 4, |&x| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        assert!(
            seen.lock().unwrap().len() > 1,
            "work must fan out across more than one worker thread"
        );
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscription() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        let two = vec![7u32, 9];
        assert_eq!(parallel_map(&two, 64, |&x| x + 1), vec![8, 10]);
    }

    #[test]
    fn parallel_map_propagates_the_real_panic_payload() {
        let items: Vec<u32> = (0..32).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&x| {
                if x == 13 {
                    panic!("cell exploded: {x}");
                }
                x
            })
        }))
        .expect_err("the worker panic must propagate to the caller");
        let msg = crate::supervise::panic_message(caught.as_ref());
        assert!(
            msg.contains("cell exploded: 13"),
            "expected the original payload, got `{msg}`"
        );
    }

    fn tiny_grid() -> GridSpec {
        GridSpec {
            scale: Scale::Tiny,
            workloads: ["libq_like", "md5_like"]
                .iter()
                .map(|n| by_name(n).unwrap())
                .collect(),
            configs: ["bl", "dla"]
                .iter()
                .map(|n| ConfigSpec::by_name(n).unwrap())
                .collect(),
            warm: 1_000,
            win: 4_000,
            fast_forward: true,
        }
    }

    #[test]
    fn parallel_and_serial_grids_are_byte_identical() {
        let spec = tiny_grid();
        let serial = run_grid(&spec, 1);
        let parallel = run_grid(&spec, 4);
        assert_eq!(serial.cells.len(), 4);
        assert_eq!(serial.to_json(false), parallel.to_json(false));
        for c in &serial.cells {
            assert!(c.report.mt_committed > 0, "empty cell {c:?}");
        }
        assert!(serial.empty_cells().is_empty());
    }

    #[test]
    fn grid_json_shape() {
        let spec = tiny_grid();
        let res = run_grid(&spec, 2);
        let json = res.to_json(false);
        assert!(json.contains("\"schema\": \"r3dla-bench-grid-v1\""));
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"workload\": \"libq_like\""));
        assert!(json.contains("\"config\": \"dla\""));
        assert!(!json.contains("wall_ms"), "default JSON is deterministic");
        assert!(!json.contains("sim_mips"), "throughput is timing-only");
        let timed = res.to_json(true);
        assert!(timed.contains("wall_ms"));
        assert!(timed.contains("\"sim_mips\""));
        assert!(timed.contains("\"host_ms\""));
    }

    #[test]
    fn grid_skip_on_and_off_are_byte_identical() {
        let mut spec = tiny_grid();
        let fast = run_grid(&spec, 2);
        spec.fast_forward = false;
        let slow = run_grid(&spec, 2);
        assert_eq!(
            fast.to_json(false),
            slow.to_json(false),
            "cycle skipping must not change any reported statistic"
        );
    }

    #[test]
    fn experiment_spec_rows_follow_workload_order() {
        let prepared = crate::prepare_some_threads(&["libq_like", "md5_like"], Scale::Tiny, 2);
        let spec = ExperimentSpec::new("t", &["len"], |p| vec![p.name.len() as f64]);
        let res = spec.execute(&prepared, 4);
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.rows[0].workload, prepared[0].name);
        assert_eq!(res.rows[1].workload, prepared[1].name);
        assert_eq!(res.rows[0].values[0], prepared[0].name.len() as f64);
        assert!(res.geomean(0) > 0.0);
    }

    #[test]
    fn chaos_grid_is_byte_identical_across_threads_and_runs() {
        use crate::supervise::{FaultPlan, SuperviseConfig};
        let spec = tiny_grid();
        let run = |threads: usize| {
            let sup = Supervisor::new(SuperviseConfig {
                backoff_ms: 0,
                plan: FaultPlan::parse("seed=11:panic=0.4:io=0.4").unwrap(),
                ..SuperviseConfig::default()
            });
            run_grid_supervised(&spec, threads, &sup)
        };
        let a = run(1);
        let b = run(4);
        let c = run(4);
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_eq!(b.to_json(false), c.to_json(false));
        // At these rates something failed or retried, and the report
        // carries it as a status row rather than dying.
        assert!(a.to_json(false).contains("\"status\""));
        assert!(a.empty_cells().is_empty(), "failed cells are not 'empty'");
    }

    #[test]
    fn unsupervised_and_clean_supervised_grids_match() {
        let spec = tiny_grid();
        let plain = run_grid(&spec, 2);
        let sup = run_grid_supervised(&spec, 2, &Supervisor::new(Default::default()));
        assert_eq!(plain.to_json(false), sup.to_json(false));
        assert!(
            !sup.to_json(false).contains("\"status\""),
            "clean rows must not grow status fields"
        );
        assert!(sup.failed_cells().is_empty());
    }

    #[test]
    fn config_registry_resolves_all_known_names() {
        for name in ConfigSpec::known_names() {
            let spec = ConfigSpec::by_name(name).expect(name);
            assert_eq!(&spec.label, name);
        }
        assert!(ConfigSpec::by_name("bogus").is_none());
    }
}
