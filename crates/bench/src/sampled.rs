//! Sampled-grid execution: the `r3dla-sample` systematic sampler fanned
//! over the experiment runner's worker pool.
//!
//! A sampled grid splits every workload into k checkpointed intervals
//! (one functional fast-forward pass per workload) and measures each
//! independent (checkpoint × configuration) cell as its own detailed
//! simulation through [`parallel_map`]. Per-interval IPC aggregates into
//! mean ± 95% CI rows; like the plain grid, the deterministic JSON is a
//! pure function of the spec and byte-identical at any `--threads`.

use r3dla_core::{SingleCoreSim, WindowReport};
use r3dla_mem::MemConfig;
use r3dla_sample::{
    ipc_estimate, plan_intervals, warm_and_measure, IntervalCheckpoint, SampleSpec,
};
use r3dla_stats::{mean_ci95, MeanCi};
use r3dla_workloads::Suite;

use std::sync::Arc;

use crate::runner::{parallel_map, scale_name, CellKind, ConfigSpec, GridSpec};
use crate::supervise::{push_status_fields, CellOutcome, CellStatus, Supervisor};
use crate::Prepared;

/// Measures one sampled cell: restore the interval checkpoint into the
/// configured system, warm it per the spec, run the detailed window.
pub fn run_sampled_cell(
    p: &Prepared,
    spec: &ConfigSpec,
    sample: &SampleSpec,
    iv: &IntervalCheckpoint,
    fast_forward: bool,
) -> WindowReport {
    match &spec.kind {
        CellKind::Dla(cfg) => {
            let mut sys = p.dla_system_from_checkpoint(cfg.clone(), &iv.ckpt);
            sys.set_fast_forward(fast_forward);
            warm_and_measure(&mut sys, sample, iv)
        }
        CellKind::Single { core, l1pf, l2pf } => {
            let mut sim = SingleCoreSim::restore_from_checkpoint(
                p.built(),
                core.clone(),
                MemConfig::paper(),
                *l1pf,
                *l2pf,
                &iv.ckpt,
            );
            sim.set_fast_forward(fast_forward);
            warm_and_measure(&mut sim, sample, iv)
        }
    }
}

/// One finished sampled cell: a workload × configuration with its
/// per-interval reports and aggregates.
#[derive(Debug, Clone)]
pub struct SampledCellResult {
    /// Workload name.
    pub workload: String,
    /// Workload suite.
    pub suite: Suite,
    /// Configuration label.
    pub config: String,
    /// Per-interval window reports, in interval order.
    pub reports: Vec<WindowReport>,
    /// Mean ± 95% CI of per-interval MT IPC.
    pub ipc: MeanCi,
    /// Mean ± 95% CI of per-interval speedup over the grid's `bl`
    /// column (paired by interval); absent for the `bl` column itself or
    /// when the grid has no `bl`.
    pub speedup: Option<MeanCi>,
    /// Host wall-clock summed over the cell's intervals (excluded from
    /// deterministic JSON).
    pub wall_ms: u64,
    /// Worst interval outcome across the cell ([`CellStatus::Ok`] when
    /// every interval measured).
    pub status: CellStatus,
    /// Supervisor attempts summed over the cell's intervals.
    pub attempts: u32,
    /// First interval failure's detail.
    pub error: Option<String>,
    /// Which intervals measured successfully (parallel to `reports`;
    /// failed slots hold a default-zero report).
    pub interval_ok: Vec<bool>,
}

impl SampledCellResult {
    /// Total MT instructions committed across the intervals.
    pub fn mt_committed(&self) -> u64 {
        self.reports.iter().map(|r| r.mt_committed).sum()
    }

    /// Whether every interval measured on its first attempt — the rows
    /// whose JSON is unchanged from before supervision existed.
    pub fn is_clean(&self) -> bool {
        self.status == CellStatus::Ok && self.attempts as usize <= self.reports.len()
    }

    /// The deterministic JSON fields of this cell's row.
    pub fn stat_fields(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "\"workload\": \"{}\", \"suite\": \"{}\", \"config\": \"{}\", \
             \"intervals\": {}, \"ipc_mean\": {:.6}, \"ipc_ci95\": {:.6}",
            self.workload,
            self.suite,
            self.config,
            self.reports.len(),
            self.ipc.mean,
            self.ipc.half,
        );
        if let Some(sp) = &self.speedup {
            let _ = write!(
                s,
                ", \"speedup_mean\": {:.6}, \"speedup_ci95\": {:.6}",
                sp.mean, sp.half
            );
        }
        let sums = |f: fn(&WindowReport) -> u64| -> u64 { self.reports.iter().map(f).sum() };
        let _ = write!(
            s,
            ", \"mt_committed\": {}, \"cycles\": {}, \"dram_traffic\": {}, \"reboots\": {}",
            sums(|r| r.mt_committed),
            sums(|r| r.cycles),
            sums(|r| r.dram_traffic),
            sums(|r| r.reboots),
        );
        let ipcs: Vec<String> = self
            .reports
            .iter()
            .map(|r| format!("{:.6}", r.mt_ipc))
            .collect();
        let _ = write!(s, ", \"ipc\": [{}]", ipcs.join(", "));
        if !self.is_clean() {
            push_status_fields(&mut s, self.status, self.attempts, self.error.as_deref());
        }
        s
    }
}

/// All results of a sampled grid run.
#[derive(Debug, Clone)]
pub struct SampledGridResult {
    /// Scale the grid ran at.
    pub scale: r3dla_workloads::Scale,
    /// The sampling request.
    pub spec: SampleSpec,
    /// Cells in deterministic grid order (workload-major).
    pub cells: Vec<SampledCellResult>,
    /// Checkpoints the planner captured (across all workloads — each is
    /// shared by every config column).
    pub planned_checkpoints: usize,
    /// Interval cells measured (checkpoints × configs).
    pub measured_intervals: usize,
    /// Wall-clock of workload preparation.
    pub prep_ms: u64,
    /// Wall-clock of fast-forward interval planning.
    pub plan_ms: u64,
    /// Wall-clock of the detailed measurement phase.
    pub measure_ms: u64,
}

impl SampledGridResult {
    /// Serializes as JSON (`r3dla-bench-sample-v1` schema). Deterministic
    /// unless `timing` adds wall-clock fields.
    pub fn to_json(&self, timing: bool) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 300);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"r3dla-bench-sample-v1\",\n");
        out.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            match self.scale {
                r3dla_workloads::Scale::Tiny => "tiny",
                r3dla_workloads::Scale::Train => "train",
                r3dla_workloads::Scale::Ref => "ref",
            }
        ));
        out.push_str(&format!("  \"k\": {},\n", self.spec.k));
        out.push_str(&format!("  \"detailed\": {},\n", self.spec.detailed));
        out.push_str(&format!("  \"warmup\": \"{}\",\n", self.spec.warmup));
        if timing {
            out.push_str(&format!("  \"prep_ms\": {},\n", self.prep_ms));
            out.push_str(&format!("  \"plan_ms\": {},\n", self.plan_ms));
            out.push_str(&format!("  \"measure_ms\": {},\n", self.measure_ms));
            out.push_str(&format!("  \"host_ms\": {},\n", self.host_ms()));
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!("    {{{}", c.stat_fields()));
            if timing {
                out.push_str(&format!(", \"wall_ms\": {}", c.wall_ms));
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

    /// Total host wall-clock across all phases.
    pub fn host_ms(&self) -> u64 {
        self.prep_ms + self.plan_ms + self.measure_ms
    }

    /// Aggregate simulated throughput in MIPS over the measurement
    /// phase: every interval's committed instructions (MT + LT, measured
    /// windows only) per host second of detailed measurement, as
    /// [`GridResult::sim_mips`](crate::GridResult::sim_mips) counts a
    /// plain grid.
    pub fn sim_mips(&self) -> f64 {
        if self.measure_ms == 0 {
            return 0.0;
        }
        let insts: u64 = self
            .cells
            .iter()
            .flat_map(|c| &c.reports)
            .map(|r| r.mt_committed + r.lt_committed)
            .sum();
        insts as f64 / (self.measure_ms as f64 * 1000.0)
    }

    /// Cells with no intervals at all, or with any *successfully
    /// measured* interval that committed zero MT instructions — a sick
    /// simulation the CI gate fails on (one wedged interval would
    /// otherwise silently drag the cell's `ipc_mean` toward zero while
    /// the run exits clean). Failed intervals are the supervisor's
    /// business, not this gate's: see
    /// [`SampledGridResult::failed_cells`].
    pub fn empty_cells(&self) -> Vec<&SampledCellResult> {
        self.cells
            .iter()
            .filter(|c| {
                c.reports.is_empty()
                    || c.reports
                        .iter()
                        .zip(&c.interval_ok)
                        .any(|(r, &ok)| ok && r.mt_committed == 0)
            })
            .collect()
    }

    /// Cells with at least one interval the supervisor gave up on.
    pub fn failed_cells(&self) -> Vec<&SampledCellResult> {
        self.cells
            .iter()
            .filter(|c| c.status != CellStatus::Ok)
            .collect()
    }
}

/// Prepares the grid's workloads, plans k checkpoints per workload with
/// the functional emulator, measures every (checkpoint × configuration)
/// cell on the worker pool, and aggregates per-cell confidence
/// intervals. `spec.warm`/`spec.win` are ignored — `sample` sizes the
/// windows.
pub fn run_grid_sampled(spec: &GridSpec, sample: &SampleSpec, threads: usize) -> SampledGridResult {
    run_grid_sampled_supervised(spec, sample, threads, &Supervisor::from_env())
}

/// One `(workload, config, interval)` cell of a sampled grid, addressed
/// by indices into the owning [`SampledPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledCell {
    /// Index into the spec's workload list.
    pub workload: usize,
    /// Index into the spec's config list.
    pub config: usize,
    /// Interval index within the workload's sampling plan.
    pub interval: usize,
}

/// The pre-enumerated cell set of one sampled grid: the spec, its
/// prepared workloads, and their interval plans, exposing the primitive
/// the batch runner and the campaign service share — enumerate cells,
/// key them, evaluate them, and assemble the outcomes into a
/// [`SampledGridResult`]. Prepared workloads and interval plans are
/// `Arc`-shared so a long-running service pools them across campaigns.
pub struct SampledPlan {
    spec: GridSpec,
    sample: SampleSpec,
    prepared: Vec<Arc<Prepared>>,
    plans: Vec<Arc<Vec<IntervalCheckpoint>>>,
}

impl SampledPlan {
    /// Prepares every workload and plans its intervals on `threads`
    /// workers.
    pub fn build(spec: &GridSpec, sample: &SampleSpec, threads: usize) -> Self {
        let prepared: Vec<Arc<Prepared>> =
            parallel_map(&spec.workloads, threads, |w| Prepared::new(w, spec.scale))
                .into_iter()
                .map(Arc::new)
                .collect();
        let plans = parallel_map(&prepared, threads, |p| plan_intervals(&p.program, sample))
            .into_iter()
            .map(Arc::new)
            .collect();
        Self::from_parts(spec, sample, prepared, plans)
    }

    /// Builds the plan from already-prepared workloads and interval
    /// plans, one of each per spec workload in order.
    ///
    /// # Panics
    ///
    /// When `prepared`/`plans` do not line up 1:1 with `spec.workloads`.
    pub fn from_parts(
        spec: &GridSpec,
        sample: &SampleSpec,
        prepared: Vec<Arc<Prepared>>,
        plans: Vec<Arc<Vec<IntervalCheckpoint>>>,
    ) -> Self {
        assert_eq!(
            prepared.len(),
            spec.workloads.len(),
            "one prepared workload per spec workload"
        );
        assert_eq!(
            plans.len(),
            spec.workloads.len(),
            "one interval plan per spec workload"
        );
        SampledPlan {
            spec: spec.clone(),
            sample: *sample,
            prepared,
            plans,
        }
    }

    /// The grid spec this plan was built from.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Every cell in canonical order (workload-major, then config, then
    /// interval) — the order [`SampledPlan::assemble`] expects its
    /// outcomes in.
    pub fn cells(&self) -> Vec<SampledCell> {
        let mut cells = Vec::with_capacity(self.n_cells());
        for (wi, plan) in self.plans.iter().enumerate() {
            for ci in 0..self.spec.configs.len() {
                for ii in 0..plan.len() {
                    cells.push(SampledCell {
                        workload: wi,
                        config: ci,
                        interval: ii,
                    });
                }
            }
        }
        cells
    }

    /// Total cell count — a pure function of the spec (admission
    /// budgets rely on this).
    pub fn n_cells(&self) -> usize {
        self.plans.iter().map(|p| p.len()).sum::<usize>() * self.spec.configs.len()
    }

    /// The cell's stable supervision key — the identity fault injection
    /// and quarantine decisions hash, so it names the cell's inputs and
    /// nothing about scheduling.
    pub fn cell_key(&self, cell: SampledCell) -> String {
        format!(
            "sample|{}|{}|{}|{}|iv{}",
            scale_name(self.spec.scale),
            self.sample.label(),
            self.prepared[cell.workload].name,
            self.spec.configs[cell.config].label,
            cell.interval
        )
    }

    /// Measures one interval cell, returning the report and the cell's
    /// host wall-clock in milliseconds (the latter never reaches the
    /// deterministic JSON).
    pub fn evaluate(&self, cell: SampledCell) -> (WindowReport, u64) {
        let c0 = std::time::Instant::now();
        let rep = run_sampled_cell(
            &self.prepared[cell.workload],
            &self.spec.configs[cell.config],
            &self.sample,
            &self.plans[cell.workload][cell.interval],
            self.spec.fast_forward,
        );
        (rep, c0.elapsed().as_millis() as u64)
    }

    /// Assembles per-cell outcomes (in [`SampledPlan::cells`] order)
    /// into the final result, exactly as the batch runner does, so the
    /// deterministic JSON is byte-identical. Wall-clock fields are zero
    /// (they only appear in `--timing` output).
    ///
    /// # Panics
    ///
    /// When `outcomes` does not line up 1:1 with [`SampledPlan::cells`].
    pub fn assemble(&self, outcomes: &[CellOutcome<(WindowReport, u64)>]) -> SampledGridResult {
        assert_eq!(
            outcomes.len(),
            self.n_cells(),
            "one outcome per planned cell"
        );
        // Regroup interval results into per-(workload, config) cells.
        let mut grouped: Vec<SampledCellResult> =
            Vec::with_capacity(self.prepared.len() * self.spec.configs.len());
        let mut cursor = 0;
        for (wi, p) in self.prepared.iter().enumerate() {
            for cfg in &self.spec.configs {
                let n = self.plans[wi].len();
                let slice = &outcomes[cursor..cursor + n];
                cursor += n;
                let mut reports = Vec::with_capacity(n);
                let mut interval_ok = Vec::with_capacity(n);
                let mut wall_ms = 0u64;
                let mut status = CellStatus::Ok;
                let mut attempts = 0u32;
                let mut error = None;
                for o in slice {
                    match &o.value {
                        Some((rep, ms)) => {
                            reports.push(rep.clone());
                            interval_ok.push(true);
                            wall_ms += ms;
                        }
                        None => {
                            reports.push(WindowReport::default());
                            interval_ok.push(false);
                            if status == CellStatus::Ok {
                                status = o.status;
                            }
                            if error.is_none() {
                                error = o.error.clone();
                            }
                        }
                    }
                    attempts += o.attempts;
                }
                // Statistics aggregate over the intervals that measured;
                // zeroed failure slots would poison the mean.
                let ok_reports: Vec<WindowReport> = reports
                    .iter()
                    .zip(&interval_ok)
                    .filter(|(_, &ok)| ok)
                    .map(|(r, _)| r.clone())
                    .collect();
                grouped.push(SampledCellResult {
                    workload: p.name.clone(),
                    suite: p.suite,
                    config: cfg.label.clone(),
                    ipc: ipc_estimate(&ok_reports),
                    speedup: None,
                    wall_ms,
                    status,
                    attempts,
                    error,
                    interval_ok,
                    reports,
                });
            }
        }
        attach_speedups(&mut grouped, &self.spec.configs);
        SampledGridResult {
            scale: self.spec.scale,
            spec: self.sample,
            cells: grouped,
            planned_checkpoints: self.plans.iter().map(|p| p.len()).sum(),
            measured_intervals: self.n_cells(),
            prep_ms: 0,
            plan_ms: 0,
            measure_ms: 0,
        }
    }
}

/// [`run_grid_sampled`] under an explicit [`Supervisor`]: each interval
/// cell runs inside `catch_unwind` with retry/quarantine policy, and a
/// failed interval degrades to a zeroed slot (excluded from the cell's
/// IPC/speedup statistics) with the failure carried on the row.
pub fn run_grid_sampled_supervised(
    spec: &GridSpec,
    sample: &SampleSpec,
    threads: usize,
    sup: &Supervisor,
) -> SampledGridResult {
    let t0 = std::time::Instant::now();
    let prepared: Vec<Arc<Prepared>> =
        parallel_map(&spec.workloads, threads, |w| Prepared::new(w, spec.scale))
            .into_iter()
            .map(Arc::new)
            .collect();
    let prep_ms = t0.elapsed().as_millis() as u64;

    let t1 = std::time::Instant::now();
    let plans = parallel_map(&prepared, threads, |p| plan_intervals(&p.program, sample))
        .into_iter()
        .map(Arc::new)
        .collect();
    let plan = SampledPlan::from_parts(spec, sample, prepared, plans);
    let plan_ms = t1.elapsed().as_millis() as u64;

    let cells = plan.cells();
    let t2 = std::time::Instant::now();
    let measured = sup.map(
        &cells,
        threads,
        |&cell| plan.cell_key(cell),
        |&cell| Ok(plan.evaluate(cell)),
    );
    let mut result = plan.assemble(&measured);
    result.prep_ms = prep_ms;
    result.plan_ms = plan_ms;
    result.measure_ms = t2.elapsed().as_millis() as u64;
    result
}

/// Computes per-interval speedups over the grid's `bl` column (paired by
/// interval index) for every non-`bl` cell. Only intervals where both
/// the cell *and* its `bl` partner measured successfully pair up; a cell
/// with no such pairs keeps `speedup: None`.
fn attach_speedups(cells: &mut [SampledCellResult], configs: &[ConfigSpec]) {
    if !configs.iter().any(|c| c.label == "bl") {
        return;
    }
    let per_workload = configs.len();
    for chunk in cells.chunks_mut(per_workload) {
        let Some(bl_idx) = chunk.iter().position(|c| c.config == "bl") else {
            continue;
        };
        let bl: Vec<(f64, bool)> = chunk[bl_idx]
            .reports
            .iter()
            .zip(&chunk[bl_idx].interval_ok)
            .map(|(r, &ok)| (r.mt_ipc, ok))
            .collect();
        for cell in chunk.iter_mut() {
            if cell.config == "bl" || cell.reports.len() != bl.len() {
                continue;
            }
            let ratios: Vec<f64> = cell
                .reports
                .iter()
                .zip(&cell.interval_ok)
                .zip(&bl)
                .filter(|((_, &ok), &(_, bl_ok))| ok && bl_ok)
                .map(|((r, _), &(b, _))| r.mt_ipc / b.max(1e-9))
                .collect();
            if !ratios.is_empty() {
                cell.speedup = Some(mean_ci95(&ratios));
            }
        }
    }
}

/// Extracts a `"key": "value"` string field from one JSON row line.
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extracts a `"key": number` field from one JSON row line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validates a sampled run against a full-run reference grid JSON
/// (`r3dla-bench-grid-v1`): every sampled cell's IPC mean must contain
/// the reference cell's full-run IPC within its reported 95% CI, widened
/// by a relative `tolerance` budget for non-sampling bias (|mean − full|
/// ≤ ci95 + tolerance·full). The CI only covers sampling variance across
/// intervals; cold-start residue after warmup, window-boundary effects
/// and microarchitectural hysteresis (a continuous run's cache/predictor
/// state depends on its whole past, which no bounded warmup reproduces)
/// are systematic and need an explicit allowance — SMARTS budgets ~2–3%
/// for real workloads; the tiny synthetic kernels here are far more
/// phase-heavy relative to k·U, so CI passes a looser gate.
///
/// Returns human-readable failure lines (empty = pass). Cells missing
/// from the reference are themselves failures, as is an empty
/// intersection — the check must never pass vacuously.
pub fn check_against_reference(
    sampled: &SampledGridResult,
    reference_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let mut reference = std::collections::HashMap::new();
    for line in reference_json.lines() {
        if let (Some(w), Some(c), Some(ipc)) = (
            json_str_field(line, "workload"),
            json_str_field(line, "config"),
            json_num_field(line, "mt_ipc"),
        ) {
            reference.insert((w.to_string(), c.to_string()), ipc);
        }
    }
    let mut failures = Vec::new();
    let mut checked = 0;
    for cell in &sampled.cells {
        let key = (cell.workload.clone(), cell.config.clone());
        match reference.get(&key) {
            Some(&full) => {
                checked += 1;
                let limit = cell.ipc.half + tolerance * full.abs();
                if (full - cell.ipc.mean).abs() > limit {
                    failures.push(format!(
                        "({}, {}): full-run IPC {:.4} outside sampled {} + {:.0}% bias budget",
                        cell.workload,
                        cell.config,
                        full,
                        cell.ipc,
                        tolerance * 100.0
                    ));
                }
            }
            None => failures.push(format!(
                "({}, {}): no reference cell in the full-run JSON",
                cell.workload, cell.config
            )),
        }
    }
    if checked == 0 {
        failures.push("no sampled cell matched the reference grid".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_workloads::{by_name, Scale};

    fn sampled_tiny_grid() -> (GridSpec, SampleSpec) {
        let grid = GridSpec {
            scale: Scale::Tiny,
            workloads: ["libq_like", "md5_like"]
                .iter()
                .map(|n| by_name(n).unwrap())
                .collect(),
            configs: ["bl", "dla"]
                .iter()
                .map(|n| ConfigSpec::by_name(n).unwrap())
                .collect(),
            warm: 0,
            win: 0,
            fast_forward: true,
        };
        (grid, SampleSpec::parse("3:2000:functional:4000").unwrap())
    }

    #[test]
    fn sampled_grid_is_thread_count_invariant() {
        let (grid, sample) = sampled_tiny_grid();
        let serial = run_grid_sampled(&grid, &sample, 1);
        let parallel = run_grid_sampled(&grid, &sample, 4);
        assert_eq!(serial.cells.len(), 4);
        assert_eq!(serial.to_json(false), parallel.to_json(false));
        assert!(serial.empty_cells().is_empty());
        for c in &serial.cells {
            assert_eq!(c.reports.len(), 3, "every interval must report");
            assert!(c.ipc.mean > 0.0, "cell {} has zero IPC", c.workload);
        }
    }

    #[test]
    fn sampled_json_carries_ci_and_speedup_fields() {
        let (grid, sample) = sampled_tiny_grid();
        let res = run_grid_sampled(&grid, &sample, 2);
        let json = res.to_json(false);
        assert!(json.contains("\"schema\": \"r3dla-bench-sample-v1\""));
        assert!(json.contains("\"k\": 3"));
        assert!(json.contains("\"warmup\": \"functional:4000\""));
        assert!(json.contains("\"ipc_mean\""));
        assert!(json.contains("\"ipc_ci95\""));
        assert!(json.contains("\"speedup_mean\""), "dla rows pair with bl");
        assert!(!json.contains("wall_ms"), "default JSON is deterministic");
        let timed = res.to_json(true);
        assert!(timed.contains("\"plan_ms\"") && timed.contains("wall_ms"));
        // bl rows never carry a speedup against themselves.
        for line in json.lines().filter(|l| l.contains("\"config\": \"bl\"")) {
            assert!(!line.contains("speedup_mean"), "{line}");
        }
    }

    #[test]
    fn reference_check_parses_grid_rows() {
        let reference = concat!(
            "{\n  \"cells\": [\n",
            "    {\"workload\": \"a\", \"suite\": \"spec\", \"config\": \"bl\", ",
            "\"mt_ipc\": 1.500000, \"cycles\": 10}\n",
            "  ]\n}\n"
        );
        let cell = |mean: f64, half: f64| SampledCellResult {
            workload: "a".into(),
            suite: Suite::SpecInt,
            config: "bl".into(),
            reports: Vec::new(),
            ipc: MeanCi { mean, half, n: 4 },
            speedup: None,
            wall_ms: 0,
            status: CellStatus::Ok,
            attempts: 0,
            error: None,
            interval_ok: Vec::new(),
        };
        let mut res = SampledGridResult {
            scale: Scale::Tiny,
            spec: SampleSpec::parse("4:100:none").unwrap(),
            cells: vec![cell(1.45, 0.1)],
            planned_checkpoints: 4,
            measured_intervals: 4,
            prep_ms: 0,
            plan_ms: 0,
            measure_ms: 0,
        };
        assert!(check_against_reference(&res, reference, 0.0).is_empty());
        res.cells = vec![cell(1.2, 0.1)];
        let fails = check_against_reference(&res, reference, 0.0);
        assert_eq!(fails.len(), 1, "{fails:?}");
        // The bias budget widens the gate: 1.5 vs 1.2 ± 0.1 is inside
        // CI + 20% · 1.5.
        assert!(check_against_reference(&res, reference, 0.2).is_empty());
        // A cell absent from the reference fails rather than passing
        // silently.
        res.cells[0].workload = "zzz".into();
        assert!(!check_against_reference(&res, reference, 0.0).is_empty());
        // So does an empty reference.
        res.cells[0].workload = "a".into();
        assert!(!check_against_reference(&res, "{}", 0.0).is_empty());
    }

    #[test]
    fn chaos_sampled_grid_is_byte_identical_across_threads() {
        use crate::supervise::{FaultPlan, SuperviseConfig};
        let (grid, sample) = sampled_tiny_grid();
        let run = |threads: usize| {
            let sup = Supervisor::new(SuperviseConfig {
                backoff_ms: 0,
                plan: FaultPlan::parse("seed=3:panic=0.3:io=0.3").unwrap(),
                ..SuperviseConfig::default()
            });
            run_grid_sampled_supervised(&grid, &sample, threads, &sup)
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.to_json(false), b.to_json(false));
        assert!(a.to_json(false).contains("\"status\""));
        // Failed intervals don't trip the zero-commit gate; the IPC of
        // surviving intervals stays positive.
        assert!(a.empty_cells().is_empty());
        for c in &a.cells {
            if c.interval_ok.iter().any(|&ok| ok) {
                assert!(c.ipc.mean > 0.0, "cell {}|{}", c.workload, c.config);
            }
        }
    }

    #[test]
    fn sampled_grid_skip_on_off_equivalent() {
        let (mut grid, sample) = sampled_tiny_grid();
        grid.workloads.truncate(1);
        let fast = run_grid_sampled(&grid, &sample, 2);
        grid.fast_forward = false;
        let slow = run_grid_sampled(&grid, &sample, 2);
        assert_eq!(
            fast.to_json(false),
            slow.to_json(false),
            "cycle skipping must not change sampled statistics"
        );
    }
}
