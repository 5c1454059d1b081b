//! The traced run: the same campaigns driven through each layer's
//! public calls one at a time, with `Instant` spans around every call.
//!
//! Nothing here adds tracing to the simulator. A traced cell makes the
//! calls its plan's `evaluate` would make — assemble or restore, warm,
//! measure — in the same order and with the same arguments, so its
//! report is identical; the benchmark checks that the assembled report
//! bytes match the untraced run's.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use r3dla_bench::{
    CellKind, CellOutcome, ConfigSpec, GridCell, GridPlan, Prepared, SampledCell, SampledPlan,
    Supervisor,
};
use r3dla_core::{
    dynamic_length, generate_skeletons, measure_window, profile_functional, profile_timing,
    Dataflow, DlaConfig, SingleCoreSim, SkeletonOptions, SkeletonSet, WindowReport,
};
use r3dla_dse::{DseCell, DsePlan, IntervalResult, ResultCache};
use r3dla_mem::MemConfig;
use r3dla_sample::{apply_warmup, plan_intervals, IntervalCheckpoint, SampleSpec, FF_CAP};
use r3dla_workloads::{Scale, Workload};

use crate::output::Metric;
use crate::stats::{median, tail};
use crate::tally::Tally;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Host-side rate of one config column: what its cells committed and
/// simulated, and the host time their run loops took.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimRate {
    /// MT + LT instructions the measured windows committed.
    pub insts: u64,
    /// Simulated cycles of the measured windows.
    pub cycles: u64,
    /// Host seconds inside `measure_window`.
    pub secs: f64,
}

/// One traced cell's spans.
#[derive(Debug, Default, Clone)]
struct CellTrace {
    config: String,
    restored: bool,
    build_s: f64,
    warm_s: f64,
    measure_s: f64,
    total_s: f64,
    insts: u64,
    cycles: u64,
}

/// Per-layer accumulators of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// `Prepared::new`.
    pub prepare_s: f64,
    /// `profile_functional`, called next to `Prepared::new`.
    pub profile_functional_s: f64,
    /// `profile_timing`, called next to `Prepared::new`.
    pub profile_timing_s: f64,
    /// `Dataflow::analyze`, called next to `Prepared::new`.
    pub dataflow_s: f64,
    /// `generate_skeletons` (both T1 variants), plus, on `serve-dse`,
    /// the skeleton regeneration inside `DsePlan::from_parts`.
    pub skeletons_s: f64,
    /// Host time of the split-stage calls that repeat work
    /// `Prepared::new` also does; excluded from the traced wall time.
    pub extra_s: f64,
    /// `plan_intervals`.
    pub plan_s: f64,
    /// Functional instructions the planner emulated.
    pub ff_insts: u64,
    /// Checkpoints planned.
    pub checkpoints: u64,
    /// `Prepared::dla_system` / `SingleCoreSim::build`.
    pub assemble_s: f64,
    /// Checkpoint restores.
    pub restore_s: f64,
    /// `apply_warmup`.
    pub warm_s: f64,
    /// `measure_window` after a restore.
    pub measure_s: f64,
    /// Per-config detailed-core rates.
    pub sim: BTreeMap<String, SimRate>,
    /// Host milliseconds per cell.
    pub cell_ms: Vec<f64>,
    /// `Supervisor::map` wall time minus the cells inside it.
    pub supervise_s: f64,
    /// Supervisor attempts summed over cells.
    pub attempts: u64,
    /// `DsePlan::evaluate` milliseconds, cache hits.
    pub eval_hit_ms: Vec<f64>,
    /// `DsePlan::evaluate` milliseconds, cache misses.
    pub eval_miss_ms: Vec<f64>,
    /// Static density of each prepared workload's default skeleton.
    pub densities: Vec<f64>,
}

fn same_skeletons(a: &SkeletonSet, b: &SkeletonSet) -> bool {
    a.versions.len() == b.versions.len()
        && a.versions.iter().zip(&b.versions).all(|(x, y)| {
            x.mask == y.mask && x.sbits == y.sbits && x.prefetch_only == y.prefetch_only
        })
}

impl Layers {
    /// Prepares `w`: the four stages of `Prepared::new` called one by
    /// one and timed, then `Prepared::new` itself. The staged skeletons
    /// must equal the prepared ones.
    pub fn prepare(&mut self, w: &Workload, scale: Scale, tally: &mut Tally) -> Arc<Prepared> {
        let t0 = Instant::now();
        let program = w.build(scale).program;
        let t = Instant::now();
        let df = Dataflow::analyze(&program);
        self.dataflow_s += secs(t);
        let insts = DlaConfig::dla().profile_insts;
        let t = Instant::now();
        let mut prof = profile_functional(&program, insts);
        self.profile_functional_s += secs(t);
        let t = Instant::now();
        profile_timing(
            &Rc::new(program.clone()),
            &mut prof,
            (insts / 4).max(20_000),
        );
        self.profile_timing_s += secs(t);
        let opt = SkeletonOptions::default();
        let t = Instant::now();
        let t1 = generate_skeletons(&program, &df, &prof, &opt, true);
        let plain = generate_skeletons(&program, &df, &prof, &opt, false);
        self.skeletons_s += secs(t);
        self.extra_s += secs(t0);

        let t = Instant::now();
        let p = Prepared::new(w, scale);
        self.prepare_s += secs(t);
        tally.check(
            same_skeletons(&t1, &p.skeletons_t1) && same_skeletons(&plain, &p.skeletons_plain),
            || format!("{}: staged skeletons differ from Prepared::new", w.name),
        );
        if let Some(v) = p.skeletons_plain.versions.first() {
            self.densities.push(v.density());
        }
        Arc::new(p)
    }

    /// Plans `p`'s intervals; the planner's functional instruction count
    /// is the program length (pass 1) plus the last checkpoint's
    /// position (pass 2).
    pub fn plan(&mut self, p: &Prepared, sample: &SampleSpec) -> Arc<Vec<IntervalCheckpoint>> {
        let t = Instant::now();
        let plan = plan_intervals(&p.program, sample);
        self.plan_s += secs(t);
        let t = Instant::now();
        let total = dynamic_length(&p.program, FF_CAP);
        self.extra_s += secs(t);
        self.ff_insts += total + plan.last().map_or(0, |iv| iv.ckpt.icount());
        self.checkpoints += plan.len() as u64;
        Arc::new(plan)
    }

    fn record(&mut self, traces: Vec<CellTrace>, map_s: f64) {
        let mut cells_s = 0.0;
        for t in traces {
            cells_s += t.total_s;
            self.cell_ms.push(t.total_s * 1e3);
            if t.restored {
                self.restore_s += t.build_s;
                self.warm_s += t.warm_s;
                self.measure_s += t.measure_s;
            }
            self.assemble_s += t.build_s;
            let r = self.sim.entry(t.config).or_default();
            r.insts += t.insts;
            r.cycles += t.cycles;
            r.secs += t.measure_s;
        }
        self.supervise_s += map_s - cells_s;
    }

    fn count_attempts<R>(&mut self, outcomes: &[CellOutcome<R>]) {
        self.attempts += outcomes.iter().map(|o| u64::from(o.attempts)).sum::<u64>();
    }

    /// Runs `cells` under `sup` with `eval`, skipping cells whose key is
    /// already in `memo` (the service's cross-campaign dedup), and
    /// returns outcomes in `cells` order.
    fn supervised<C: Copy + Sync>(
        &mut self,
        cells: &[C],
        sup: &Supervisor,
        key: impl Fn(C) -> String + Sync,
        memo: &mut HashMap<String, CellOutcome<(WindowReport, u64)>>,
        eval: impl Fn(C) -> (WindowReport, CellTrace) + Sync,
    ) -> Vec<CellOutcome<(WindowReport, u64)>> {
        let todo: Vec<C> = cells
            .iter()
            .copied()
            .filter(|&c| !memo.contains_key(&key(c)))
            .collect();
        let traces = Mutex::new(Vec::with_capacity(todo.len()));
        let t = Instant::now();
        let outcomes = sup.map(
            &todo,
            1,
            |&c| key(c),
            |&c| {
                let (report, trace) = eval(c);
                let ms = (trace.total_s * 1e3) as u64;
                traces.lock().expect("trace list lock").push(trace);
                Ok((report, ms))
            },
        );
        let map_s = secs(t);
        self.record(traces.into_inner().expect("trace list lock"), map_s);
        self.count_attempts(&outcomes);
        for (&c, o) in todo.iter().zip(outcomes) {
            memo.insert(key(c), o);
        }
        cells.iter().map(|&c| memo[&key(c)].clone()).collect()
    }

    /// The cells of a whole-program grid, each as assemble → measure.
    pub fn grid(
        &mut self,
        plan: &GridPlan,
        prepared: &[Arc<Prepared>],
        sup: &Supervisor,
        memo: &mut HashMap<String, CellOutcome<(WindowReport, u64)>>,
    ) -> Vec<CellOutcome<(WindowReport, u64)>> {
        let spec = plan.spec();
        self.supervised(
            &plan.cells(),
            sup,
            |c: GridCell| plan.cell_key(c),
            memo,
            |c| {
                grid_cell(
                    &prepared[c.workload],
                    &spec.configs[c.config],
                    spec.warm,
                    spec.win,
                    spec.fast_forward,
                )
            },
        )
    }

    /// The cells of a sampled grid, each as restore → warm → measure.
    pub fn sampled(
        &mut self,
        plan: &SampledPlan,
        prepared: &[Arc<Prepared>],
        plans: &[Arc<Vec<IntervalCheckpoint>>],
        sample: &SampleSpec,
        sup: &Supervisor,
        memo: &mut HashMap<String, CellOutcome<(WindowReport, u64)>>,
    ) -> Vec<CellOutcome<(WindowReport, u64)>> {
        let spec = plan.spec();
        self.supervised(
            &plan.cells(),
            sup,
            |c: SampledCell| plan.cell_key(c),
            memo,
            |c| {
                sampled_cell(
                    &prepared[c.workload],
                    &spec.configs[c.config],
                    sample,
                    &plans[c.workload][c.interval],
                    spec.fast_forward,
                )
            },
        )
    }

    /// The cells of a design-space search, each one timed
    /// `DsePlan::evaluate` through the result cache.
    pub fn dse(
        &mut self,
        plan: &DsePlan,
        cache: &ResultCache,
        sup: &Supervisor,
    ) -> Vec<CellOutcome<IntervalResult>> {
        let evals = Mutex::new(Vec::new());
        let t = Instant::now();
        let outcomes = sup.map(
            &plan.cells(),
            1,
            |&c: &DseCell| plan.cell_key(c).descr,
            |&c| {
                let t = Instant::now();
                let (result, hit) = plan.evaluate(c, cache);
                evals.lock().expect("eval list lock").push((secs(t), hit));
                Ok(result)
            },
        );
        let map_s = secs(t);
        let evals = evals.into_inner().expect("eval list lock");
        let cells_s: f64 = evals.iter().map(|e| e.0).sum();
        for (s, hit) in evals {
            self.cell_ms.push(s * 1e3);
            if hit {
                self.eval_hit_ms.push(s * 1e3);
            } else {
                self.eval_miss_ms.push(s * 1e3);
            }
        }
        self.supervise_s += map_s - cells_s;
        self.count_attempts(&outcomes);
        outcomes
    }

    /// Metrics every workload measures, in `BENCHMARK.json` order.
    pub fn common_metrics(&self) -> Vec<Metric> {
        let mut m = vec![
            Metric::new("core.prepare_s", "s", self.prepare_s),
            Metric::new("core.profile_timing_s", "s", self.profile_timing_s),
            Metric::new("core.profile_functional_s", "s", self.profile_functional_s),
            Metric::new("core.dataflow_s", "s", self.dataflow_s),
            Metric::new("core.skeletons_s", "s", self.skeletons_s),
            Metric::new("sim.assemble_s", "s", self.assemble_s),
        ];
        for cfg in ["bl", "dla", "r3"] {
            let r = self.sim.get(cfg).copied().unwrap_or_default();
            let per_s = |x: u64| {
                if r.secs > 0.0 {
                    x as f64 / r.secs / 1e6
                } else {
                    0.0
                }
            };
            m.push(Metric::new(
                format!("sim.{cfg}_mips"),
                "MIPS",
                per_s(r.insts),
            ));
            m.push(Metric::new(
                format!("sim.{cfg}_mcps"),
                "Mcycles/s",
                per_s(r.cycles),
            ));
        }
        let cells = self.cell_ms.len().max(1) as f64;
        m.push(Metric::new(
            "bench.cell_p50_ms",
            "ms",
            median(&self.cell_ms).unwrap_or(0.0),
        ));
        m.push(Metric::new(
            "bench.cell_tail_ms",
            "ms",
            tail(&self.cell_ms).map_or(0.0, |t| t.value),
        ));
        m.push(Metric::new("bench.supervise_s", "s", self.supervise_s));
        m.push(Metric::new(
            "bench.attempts_per_cell",
            "ratio",
            self.attempts as f64 / cells,
        ));
        m
    }

    /// Human-readable lines for the sampler and DSE layers, or why a
    /// workload has none.
    pub fn specific_lines(&self, workload: &str) -> Vec<String> {
        let mut out = Vec::new();
        if self.checkpoints > 0 {
            let ff_mips = self.ff_insts as f64 / self.plan_s.max(1e-9) / 1e6;
            out.push(format!("sample.plan_s = {:?} s", self.plan_s));
            out.push(format!("sample.ff_mips = {ff_mips:?} MIPS"));
            out.push(format!("sample.checkpoints = {} count", self.checkpoints));
            out.push(format!("sample.restore_s = {:?} s", self.restore_s));
            out.push(format!("sample.warm_s = {:?} s", self.warm_s));
            out.push(format!("sample.measure_s = {:?} s", self.measure_s));
        } else {
            out.push(format!(
                "sample.* = n/a on {workload}: it plans no intervals and restores no checkpoints"
            ));
        }
        let lookups = self.eval_hit_ms.len() + self.eval_miss_ms.len();
        if lookups > 0 {
            let p50 = |v: &[f64]| {
                median(v).map_or("n/a (no samples)".to_string(), |x| format!("{x:?} ms"))
            };
            out.push(format!(
                "dse.eval_hit_ms = {} (n={})",
                p50(&self.eval_hit_ms),
                self.eval_hit_ms.len()
            ));
            out.push(format!(
                "dse.eval_miss_ms = {} (n={})",
                p50(&self.eval_miss_ms),
                self.eval_miss_ms.len()
            ));
            out.push(format!(
                "dse.cache_hit_ratio = {:?} ratio",
                self.eval_hit_ms.len() as f64 / lookups as f64
            ));
        } else {
            out.push(format!(
                "dse.* = n/a on {workload}: it runs no design-space search"
            ));
        }
        if let Some(t) = tail(&self.cell_ms) {
            out.push(format!(
                "bench.cell_tail_ms is p{:.1} of n={} cells",
                t.percentile, t.n
            ));
        }
        out
    }
}

/// One grid cell as its plan evaluates it: `run_cell` assembles the
/// system, pins fast-forward and the run loop, then measures.
fn grid_cell(
    p: &Prepared,
    spec: &ConfigSpec,
    warm: u64,
    win: u64,
    fast_forward: bool,
) -> (WindowReport, CellTrace) {
    let t0 = Instant::now();
    let mut trace = CellTrace {
        config: spec.label.clone(),
        ..CellTrace::default()
    };
    let report = match &spec.kind {
        CellKind::Dla(cfg) => {
            let t = Instant::now();
            let mut sys = p.dla_system(cfg.clone());
            sys.set_fast_forward(fast_forward);
            sys.set_event_kernel(r3dla_core::event_kernel_default());
            trace.build_s = secs(t);
            let t = Instant::now();
            let r = measure_window(&mut sys, warm, win);
            trace.measure_s = secs(t);
            r
        }
        CellKind::Single { core, l1pf, l2pf } => {
            let t = Instant::now();
            let mut sim =
                SingleCoreSim::build(p.built(), core.clone(), MemConfig::paper(), *l1pf, *l2pf);
            sim.set_fast_forward(fast_forward);
            sim.set_event_kernel(r3dla_core::event_kernel_default());
            trace.build_s = secs(t);
            let t = Instant::now();
            let r = measure_window(&mut sim, warm, win);
            trace.measure_s = secs(t);
            r
        }
    };
    trace.insts = report.mt_committed + report.lt_committed;
    trace.cycles = report.cycles;
    trace.total_s = secs(t0);
    (report, trace)
}

/// One sampled cell as `run_sampled_cell` evaluates it: restore the
/// checkpoint, apply the warmup, measure the window.
fn sampled_cell(
    p: &Prepared,
    spec: &ConfigSpec,
    sample: &SampleSpec,
    iv: &IntervalCheckpoint,
    fast_forward: bool,
) -> (WindowReport, CellTrace) {
    fn warm_measure<S: r3dla_sample::WarmTarget + r3dla_core::MeasureTarget>(
        sys: &mut S,
        sample: &SampleSpec,
        iv: &IntervalCheckpoint,
        trace: &mut CellTrace,
    ) -> WindowReport {
        let t = Instant::now();
        let settle = apply_warmup(sys, sample, iv);
        trace.warm_s = secs(t);
        let t = Instant::now();
        let r = measure_window(sys, settle, sample.detailed);
        trace.measure_s = secs(t);
        r
    }
    let t0 = Instant::now();
    let mut trace = CellTrace {
        config: spec.label.clone(),
        restored: true,
        ..CellTrace::default()
    };
    let report = match &spec.kind {
        CellKind::Dla(cfg) => {
            let t = Instant::now();
            let mut sys = p.dla_system_from_checkpoint(cfg.clone(), &iv.ckpt);
            sys.set_fast_forward(fast_forward);
            trace.build_s = secs(t);
            warm_measure(&mut sys, sample, iv, &mut trace)
        }
        CellKind::Single { core, l1pf, l2pf } => {
            let t = Instant::now();
            let mut sim = SingleCoreSim::restore_from_checkpoint(
                p.built(),
                core.clone(),
                MemConfig::paper(),
                *l1pf,
                *l2pf,
                &iv.ckpt,
            );
            sim.set_fast_forward(fast_forward);
            trace.build_s = secs(t);
            warm_measure(&mut sim, sample, iv, &mut trace)
        }
    };
    trace.insts = report.mt_committed + report.lt_committed;
    trace.cycles = report.cycles;
    trace.total_s = secs(t0);
    (report, trace)
}
