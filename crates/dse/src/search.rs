//! The search driver: candidate selection per strategy, cached cell
//! evaluation on the shared worker pool, and per-workload aggregation.
//!
//! Every strategy reduces to the same primitive — measure one
//! `(workload, configuration, interval)` cell with the sampled simulator
//! — fanned over [`parallel_map`]. Cells are pure functions of their
//! cache key, so the driver consults the [`ResultCache`] before
//! simulating and the whole search is resumable and byte-reproducible.

use std::sync::Arc;
use std::time::Instant;

use r3dla_bench::{parallel_map, CellOutcome, CellStatus, Prepared, Supervisor};
use r3dla_core::{
    DlaConfig, MeasureTarget, SingleCoreSim, SkeletonOptions, SkeletonSet, WindowReport,
};
use r3dla_cpu::CoreConfig;
use r3dla_energy::{counters_delta, CoreEnergy, DramEnergy, EnergyParams};
use r3dla_mem::{DramStats, MemConfig};
use r3dla_sample::{apply_warmup, plan_intervals, IntervalCheckpoint, SampleSpec, WarmTarget};
use r3dla_stats::{mean_ci95, MeanCi, Rng};
use r3dla_workloads::{Scale, Suite, Workload};

use crate::cache::{program_fingerprint, CacheKey, IntervalResult, ResultCache};
use crate::space::{SearchSpace, TrialPoint};

/// How the search walks the space, under a trial budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Enumerate points in flat-index order until the budget is spent.
    Exhaustive {
        /// Maximum number of configurations to evaluate.
        budget: usize,
    },
    /// Sample distinct points with a seeded deterministic PRNG.
    Random {
        /// PRNG seed (same seed → same candidate set).
        seed: u64,
        /// Maximum number of configurations to evaluate.
        budget: usize,
    },
    /// Successive halving: sample like [`Strategy::Random`], evaluate
    /// everything on a few intervals, keep the better half, double the
    /// fidelity, repeat — reinvesting eliminated trials' budget into
    /// measurement fidelity for the survivors.
    Halving {
        /// PRNG seed for the initial candidate draw.
        seed: u64,
        /// Initial number of candidate configurations.
        budget: usize,
    },
}

impl Strategy {
    /// Parses a strategy name (`exhaustive`, `random`, `halving`) with
    /// its seed/budget parameters.
    pub fn parse(name: &str, seed: u64, budget: usize) -> Option<Self> {
        match name {
            "exhaustive" => Some(Strategy::Exhaustive { budget }),
            "random" => Some(Strategy::Random { seed, budget }),
            "halving" => Some(Strategy::Halving { seed, budget }),
            _ => None,
        }
    }

    /// Canonical label, embedded in the report so two reports are
    /// comparable at a glance.
    pub fn label(&self) -> String {
        match self {
            Strategy::Exhaustive { budget } => format!("exhaustive:budget={budget}"),
            Strategy::Random { seed, budget } => format!("random:seed={seed}:budget={budget}"),
            Strategy::Halving { seed, budget } => format!("halving:seed={seed}:budget={budget}"),
        }
    }
}

/// A full search request.
#[derive(Debug, Clone)]
pub struct DseSpec {
    /// Input scale.
    pub scale: Scale,
    /// Workloads to search (each gets its own best configuration).
    pub workloads: Vec<Workload>,
    /// The knob space.
    pub space: SearchSpace,
    /// The walk strategy and budget.
    pub strategy: Strategy,
    /// The sampled-simulation evaluator spec (`k:U:W`).
    pub sample: SampleSpec,
    /// Event-driven cycle skipping (results identical either way).
    pub fast_forward: bool,
}

/// One candidate configuration instantiated for a specific workload
/// (the skeleton set is workload-specific).
struct Trial {
    /// Stable id: 16 hex digits of the trial key's FxHash.
    id: String,
    /// Human-readable knob listing (or `bl`).
    label: String,
    /// Canonical configuration serialization (cache-key half).
    trial_key: String,
    /// Which incumbent this point is, if any (`"dla"`, `"r3"`).
    incumbent: Option<&'static str>,
    kind: TrialKind,
}

#[allow(clippy::large_enum_variant)] // a handful of trials per search
enum TrialKind {
    /// The single-core `bl` reference the paper normalizes against.
    Baseline,
    /// A DLA-system point of the space.
    Point {
        cfg: DlaConfig,
        skel: Arc<SkeletonSet>,
    },
}

/// Everything per-workload the evaluator needs, shared read-only across
/// workers. `Arc`s let a long-running service pool prepared workloads
/// and interval plans across campaigns instead of rebuilding them per
/// request.
struct WorkloadCtx {
    prepared: Arc<Prepared>,
    plan: Arc<Vec<IntervalCheckpoint>>,
    fingerprint: u64,
}

/// Aggregated result of one trial on one workload.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// Stable trial id (16 hex digits of the configuration key hash).
    pub id: String,
    /// Human-readable knob listing.
    pub label: String,
    /// Which incumbent this point is, if any (`"dla"`, `"r3"`).
    pub incumbent: Option<&'static str>,
    /// Intervals the trial was measured on.
    pub intervals: usize,
    /// Mean ± CI95 of per-interval MT IPC.
    pub ipc: MeanCi,
    /// Modeled energy per committed MT instruction, in nanojoules.
    pub epi_nj: f64,
    /// Paired per-interval speedup over `bl` (full-coverage trials
    /// only), over intervals where both sides measured cleanly.
    pub speedup: Option<MeanCi>,
    /// Whether any clean interval committed zero MT instructions (sick
    /// cell).
    pub any_empty: bool,
    /// First non-[`CellStatus::Ok`] interval status (or `Ok`).
    pub status: CellStatus,
    /// Supervisor attempts summed over the trial's interval cells
    /// (equals `intervals` for an all-clean trial).
    pub attempts: u32,
    /// First failed interval's error detail.
    pub error: Option<String>,
}

impl TrialSummary {
    /// Whether every interval of this trial measured cleanly on the
    /// first attempt — clean rows omit the status fields so a faults-off
    /// report is byte-identical to one from an unsupervised build.
    pub fn is_clean(&self) -> bool {
        self.status == CellStatus::Ok && self.attempts as usize <= self.intervals
    }
}

/// One workload's search outcome.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Workload name.
    pub workload: String,
    /// Workload suite.
    pub suite: Suite,
    /// The single-core `bl` reference row.
    pub bl: TrialSummary,
    /// Fully measured trials, best IPC first (ties broken by id).
    pub trials: Vec<TrialSummary>,
    /// Trials eliminated by successive halving before full coverage.
    pub eliminated: Vec<TrialSummary>,
    /// Interval simulations the search scheduled for this workload
    /// (a pure function of the spec — cache hits count too).
    pub interval_sims: usize,
}

impl WorkloadOutcome {
    /// The best fully measured trial (always exists: incumbents are
    /// always evaluated in full).
    pub fn best(&self) -> &TrialSummary {
        &self.trials[0]
    }

    /// The `r3` incumbent's row, when the space contains the point.
    pub fn r3(&self) -> Option<&TrialSummary> {
        self.trials.iter().find(|t| t.incumbent == Some("r3"))
    }

    /// Rows with a sick (zero-commit) interval, bl included.
    pub fn empty_trials(&self) -> Vec<&TrialSummary> {
        std::iter::once(&self.bl)
            .chain(self.trials.iter())
            .chain(self.eliminated.iter())
            .filter(|t| t.any_empty)
            .collect()
    }

    /// Rows with a failed (panicked / timed-out / I/O-error) interval,
    /// bl included.
    pub fn failed_trials(&self) -> Vec<&TrialSummary> {
        std::iter::once(&self.bl)
            .chain(self.trials.iter())
            .chain(self.eliminated.iter())
            .filter(|t| t.status != CellStatus::Ok)
            .collect()
    }
}

/// The whole search result, ready for [`crate::report`].
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Scale the search ran at.
    pub scale: Scale,
    /// The evaluator sample spec.
    pub sample: SampleSpec,
    /// Canonical strategy label.
    pub strategy: String,
    /// Total points in the searched space.
    pub space_points: u64,
    /// Per-workload outcomes, in workload order.
    pub workloads: Vec<WorkloadOutcome>,
    /// Wall-clock of preparation (profiling + skeletons), stderr only.
    pub prep_ms: u64,
    /// Wall-clock of interval planning, stderr only.
    pub plan_ms: u64,
    /// Wall-clock of the (cached) measurement phase, stderr only.
    pub measure_ms: u64,
}

/// The scale name used in cache keys and reports.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Train => "train",
        Scale::Ref => "ref",
    }
}

/// Selects the candidate points for a strategy: the `dla`/`r3`
/// incumbents (when the space contains them) followed by
/// strategy-chosen points, deduplicated, `budget` in total (but never
/// fewer than the incumbents).
pub fn candidates(space: &SearchSpace, strategy: &Strategy) -> Vec<TrialPoint> {
    let budget = match strategy {
        Strategy::Exhaustive { budget }
        | Strategy::Random { seed: _, budget }
        | Strategy::Halving { seed: _, budget } => *budget,
    };
    let size = space.size();
    let mut chosen: Vec<TrialPoint> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for inc in [space.dla_point(), space.r3_point()].into_iter().flatten() {
        if seen.insert(space.flat(&inc)) {
            chosen.push(inc);
        }
    }
    let want = (budget as u64).min(size) as usize;
    let mut push = |chosen: &mut Vec<TrialPoint>, flat: u64| {
        if chosen.len() < want && seen.insert(flat) {
            chosen.push(space.point(flat));
        }
    };
    match strategy {
        Strategy::Exhaustive { .. } => {
            for flat in 0..size {
                push(&mut chosen, flat);
            }
        }
        Strategy::Random { seed, .. } | Strategy::Halving { seed, .. } => {
            let mut rng = Rng::new(*seed);
            let mut attempts = 0u64;
            while chosen.len() < want && attempts < 64 * size.max(64) {
                attempts += 1;
                push(&mut chosen, rng.range_u64(0, size));
            }
            // A tiny space can defeat rejection sampling; top up
            // deterministically.
            for flat in 0..size {
                push(&mut chosen, flat);
            }
        }
    }
    chosen
}

/// Measures one warmed window and models its energy — the sampled
/// evaluator's inner loop, shared by the DLA and single-core paths. The
/// report is identical to [`r3dla_sample::warm_and_measure`]'s; the
/// energy combines both cores' activity deltas and the DRAM traffic over
/// the same window.
fn measure_with_energy<S: WarmTarget + MeasureTarget>(
    sys: &mut S,
    sample: &SampleSpec,
    iv: &IntervalCheckpoint,
) -> IntervalResult {
    let settle = apply_warmup(sys, sample, iv);
    sys.run_insts(settle, settle * 60 + 500_000);
    let before = sys.counters_snapshot();
    sys.run_insts(sample.detailed, sample.detailed * 60 + 500_000);
    let report: WindowReport = sys.window_report(&before);
    let after = sys.counters_snapshot();
    let params = EnergyParams::node22();
    let mt = counters_delta(&before.mt_counters, &after.mt_counters);
    let lt = counters_delta(&before.lt_counters, &after.lt_counters);
    let mt_e = CoreEnergy::from_counters(&mt, &params);
    let lt_e = CoreEnergy::from_counters(&lt, &params);
    let mut dram = DramStats::default();
    dram.reads
        .add(after.dram.reads.get() - before.dram.reads.get());
    dram.writes
        .add(after.dram.writes.get() - before.dram.writes.get());
    dram.activations
        .add(after.dram.activations.get() - before.dram.activations.get());
    let dram_e = DramEnergy::from_stats(&dram, mt_e.seconds, &params);
    IntervalResult {
        report,
        energy_j: mt_e.total_j() + lt_e.total_j() + dram_e.total_j(),
    }
}

/// One supervised interval-cell evaluation: the measured (or default,
/// when every attempt failed) result plus the supervisor's verdict.
#[derive(Debug, Clone)]
struct CellEval {
    result: IntervalResult,
    status: CellStatus,
    attempts: u32,
    error: Option<String>,
}

impl CellEval {
    fn from_outcome(o: &CellOutcome<IntervalResult>) -> Self {
        CellEval {
            result: o.value.clone().unwrap_or_default(),
            status: o.status,
            attempts: o.attempts,
            error: o.error.clone(),
        }
    }
}

/// The content address of one `(workload, trial, interval)` cell.
fn cell_cache_key(ctx: &WorkloadCtx, trial: &Trial, spec: &DseSpec, iv_index: usize) -> CacheKey {
    CacheKey::cell(
        &ctx.prepared.name,
        ctx.fingerprint,
        scale_name(spec.scale),
        &spec.sample.label(),
        iv_index,
        &trial.trial_key,
    )
}

/// Evaluates one cell, consulting the cache first. Returns the result
/// plus whether it was served from the cache (telemetry only — the
/// result bytes are identical either way). A cache-store failure is not
/// the cell's failure — the result in hand is valid, the entry just
/// will not persist — so it surfaces only through the cache's health
/// counters, never in the (cache-state-independent) report.
fn evaluate_cell(
    ctx: &WorkloadCtx,
    trial: &Trial,
    spec: &DseSpec,
    iv_index: usize,
    cache: &ResultCache,
) -> (IntervalResult, bool) {
    let key = cell_cache_key(ctx, trial, spec, iv_index);
    let hit = {
        let _sp = r3dla_obs::span!("cache", "load {:016x}", key.hash);
        cache.load(&key)
    };
    if r3dla_obs::progress::active() {
        let stats = cache.stats();
        r3dla_obs::progress::set_extra(format!("cache {}/{} hit", stats.hits, stats.lookups()));
    }
    if let Some(hit) = hit {
        return (hit, true);
    }
    let iv = &ctx.plan[iv_index];
    let result = match &trial.kind {
        TrialKind::Baseline => {
            let mut sim = SingleCoreSim::restore_from_checkpoint(
                ctx.prepared.built(),
                CoreConfig::paper(),
                MemConfig::paper(),
                None,
                Some("bop"),
                &iv.ckpt,
            );
            sim.set_fast_forward(spec.fast_forward);
            measure_with_energy(&mut sim, &spec.sample, iv)
        }
        TrialKind::Point { cfg, skel } => {
            let mut sys = ctx.prepared.dla_system_from_checkpoint_with(
                cfg.clone(),
                Arc::clone(skel),
                &iv.ckpt,
            );
            sys.set_fast_forward(spec.fast_forward);
            measure_with_energy(&mut sys, &spec.sample, iv)
        }
    };
    {
        let _sp = r3dla_obs::span!("cache", "store {:016x}", key.hash);
        let _ = cache.store(&key, &result);
    }
    (result, false)
}

/// The canonical serialization of the `bl` baseline cell (single core,
/// no L1 prefetcher, BOP at L2) — the baseline half of a cache key.
fn baseline_key() -> String {
    format!(
        "single;core={:?};mem={:?};l1pf=none;l2pf=bop",
        CoreConfig::paper(),
        MemConfig::paper()
    )
}

/// One `(workload, trial, interval)` measurement of a search, addressed
/// by indices into the owning [`DsePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseCell {
    /// Index into the spec's workload list.
    pub workload: usize,
    /// Trial index (0 is the `bl` baseline).
    pub trial: usize,
    /// Interval index within the workload's sampling plan.
    pub interval: usize,
}

/// The pre-enumerated cell set of one search: prepared workloads,
/// interval plans, and per-workload trial lists, exposing the primitive
/// every driver shares — enumerate cells, key them, evaluate them
/// through the cache, and assemble the outcomes into a [`DseResult`].
///
/// The batch driver ([`run_dse_supervised`]) and the campaign service
/// (`r3dla-serve`) both run on this type, so a served report is
/// byte-identical to a batch one by construction: same keys, same
/// evaluator, same assembly. For the flat strategies
/// ([`Strategy::Exhaustive`] / [`Strategy::Random`]) the full cell set
/// is known up front; [`Strategy::Halving`] chooses cells adaptively
/// between rungs and therefore cannot be pre-enumerated ([`DsePlan::cells`]
/// returns its full-fidelity superset — the service rejects halving
/// campaigns for exactly this reason).
pub struct DsePlan {
    spec: DseSpec,
    ctxs: Vec<WorkloadCtx>,
    trials: Vec<Vec<Trial>>,
}

impl DsePlan {
    /// Prepares every workload and interval plan, then builds the trial
    /// lists. The all-in-one path for batch runs; services with pooled
    /// workloads use [`DsePlan::from_parts`].
    pub fn build(spec: &DseSpec, threads: usize) -> Self {
        let prepared = parallel_map(&spec.workloads, threads, |w| Prepared::new(w, spec.scale));
        let plans = parallel_map(&prepared, threads, |p| {
            plan_intervals(&p.program, &spec.sample)
        });
        let parts = prepared
            .into_iter()
            .zip(plans)
            .map(|(p, plan)| (Arc::new(p), Arc::new(plan)))
            .collect();
        Self::from_parts(spec, parts, threads)
    }

    /// Builds the plan from already-prepared workloads and interval
    /// plans, one `(prepared, intervals)` pair per spec workload in
    /// order. Skeleton sets are (re)generated here — they are
    /// candidate-set-specific — but the expensive profiling and
    /// checkpointing behind `parts` is shared.
    ///
    /// # Panics
    ///
    /// When `parts` does not line up 1:1 with `spec.workloads`.
    pub fn from_parts(
        spec: &DseSpec,
        parts: Vec<(Arc<Prepared>, Arc<Vec<IntervalCheckpoint>>)>,
        threads: usize,
    ) -> Self {
        assert_eq!(
            parts.len(),
            spec.workloads.len(),
            "one (prepared, plan) pair per workload"
        );
        let ctxs: Vec<WorkloadCtx> = parts
            .into_iter()
            .map(|(p, plan)| WorkloadCtx {
                fingerprint: program_fingerprint(&p.program),
                plan,
                prepared: p,
            })
            .collect();

        let points = candidates(&spec.space, &spec.strategy);
        let dla_flat = spec.space.dla_point().map(|p| spec.space.flat(&p));
        let r3_flat = spec.space.r3_point().map(|p| spec.space.flat(&p));

        // Distinct skeleton-option requirements across the candidate
        // set, generated once per workload up front (in parallel), so
        // trial evaluation never regenerates skeletons.
        let mut skel_reqs: Vec<(SkeletonOptions, bool)> = Vec::new();
        for p in &points {
            let (cfg, opt) = spec.space.materialize(p);
            if !skel_reqs.iter().any(|(o, t)| *o == opt && *t == cfg.t1) {
                skel_reqs.push((opt, cfg.t1));
            }
        }
        let skel_cells: Vec<(usize, usize)> = (0..ctxs.len())
            .flat_map(|wi| (0..skel_reqs.len()).map(move |si| (wi, si)))
            .collect();
        let skels: Vec<Arc<SkeletonSet>> = parallel_map(&skel_cells, threads, |&(wi, si)| {
            let (opt, t1) = &skel_reqs[si];
            ctxs[wi].prepared.skeletons_for(opt, *t1)
        });
        let skel_for = |wi: usize, opt: &SkeletonOptions, t1: bool| -> Arc<SkeletonSet> {
            let si = skel_reqs
                .iter()
                .position(|(o, t)| o == opt && *t == t1)
                .expect("skeleton set pre-generated");
            Arc::clone(&skels[wi * skel_reqs.len() + si])
        };

        // Per-workload trial lists: index 0 is the bl baseline, the rest
        // are the candidate points in selection order.
        let trials: Vec<Vec<Trial>> = (0..ctxs.len())
            .map(|wi| {
                let mut list = vec![Trial {
                    id: format!("{:016x}", crate::cache::fxhash_str(&baseline_key())),
                    label: "bl".to_string(),
                    trial_key: baseline_key(),
                    incumbent: None,
                    kind: TrialKind::Baseline,
                }];
                for p in &points {
                    let (cfg, opt) = spec.space.materialize(p);
                    let trial_key =
                        format!("{};skeleton={}", cfg.canonical_key(), opt.canonical_key());
                    let flat = spec.space.flat(p);
                    list.push(Trial {
                        id: format!("{:016x}", crate::cache::fxhash_str(&trial_key)),
                        label: spec.space.label(p),
                        trial_key,
                        incumbent: if Some(flat) == r3_flat {
                            Some("r3")
                        } else if Some(flat) == dla_flat {
                            Some("dla")
                        } else {
                            None
                        },
                        kind: TrialKind::Point {
                            skel: skel_for(wi, &opt, cfg.t1),
                            cfg,
                        },
                    });
                }
                list
            })
            .collect();

        DsePlan {
            spec: spec.clone(),
            ctxs,
            trials,
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &DseSpec {
        &self.spec
    }

    /// Every cell of the (flat-strategy) search in canonical order:
    /// workload-major, then trial, then interval — the order
    /// [`DsePlan::assemble`] expects its outcomes in.
    pub fn cells(&self) -> Vec<DseCell> {
        let mut cells = Vec::with_capacity(self.n_cells());
        for (wi, ctx) in self.ctxs.iter().enumerate() {
            for ti in 0..self.trials[wi].len() {
                for ii in 0..ctx.plan.len() {
                    cells.push(DseCell {
                        workload: wi,
                        trial: ti,
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
        self.ctxs
            .iter()
            .enumerate()
            .map(|(wi, ctx)| self.trials[wi].len() * ctx.plan.len())
            .sum()
    }

    /// The content address of a cell — also the supervision key fault
    /// injection and quarantine decisions hash.
    pub fn cell_key(&self, cell: DseCell) -> CacheKey {
        cell_cache_key(
            &self.ctxs[cell.workload],
            &self.trials[cell.workload][cell.trial],
            &self.spec,
            cell.interval,
        )
    }

    /// Evaluates one cell through the cache (load, else simulate and
    /// store). The flag reports whether the cache answered — telemetry
    /// only; the result bytes are identical either way.
    pub fn evaluate(&self, cell: DseCell, cache: &ResultCache) -> (IntervalResult, bool) {
        evaluate_cell(
            &self.ctxs[cell.workload],
            &self.trials[cell.workload][cell.trial],
            &self.spec,
            cell.interval,
            cache,
        )
    }

    /// Assembles per-cell outcomes (in [`DsePlan::cells`] order) into
    /// the final result, exactly as the flat batch driver does — same
    /// statistics, same row ordering, so the report serialization is
    /// byte-identical. The wall-clock fields are zero (they never reach
    /// the report JSON).
    ///
    /// # Panics
    ///
    /// When `outcomes` does not line up 1:1 with [`DsePlan::cells`].
    pub fn assemble(&self, outcomes: &[CellOutcome<IntervalResult>]) -> DseResult {
        assert_eq!(
            outcomes.len(),
            self.n_cells(),
            "one outcome per planned cell"
        );
        let mut by_cell: std::collections::HashMap<(usize, usize), Vec<CellEval>> =
            std::collections::HashMap::new();
        for (cell, o) in self.cells().iter().zip(outcomes) {
            by_cell
                .entry((cell.workload, cell.trial))
                .or_default()
                .push(CellEval::from_outcome(o));
        }
        let workloads = self
            .ctxs
            .iter()
            .enumerate()
            .map(|(wi, ctx)| {
                let results_of = |ti: usize| by_cell[&(wi, ti)].clone();
                let bl_results = results_of(0);
                let bl_ipcs: Vec<(f64, bool)> = bl_results
                    .iter()
                    .map(|e| (e.result.report.mt_ipc, e.status == CellStatus::Ok))
                    .collect();
                let bl = summarize(&self.trials[wi][0], &bl_results, None);
                let mut rows: Vec<TrialSummary> = (1..self.trials[wi].len())
                    .map(|ti| summarize(&self.trials[wi][ti], &results_of(ti), Some(&bl_ipcs)))
                    .collect();
                sort_trials(&mut rows);
                WorkloadOutcome {
                    workload: ctx.prepared.name.clone(),
                    suite: ctx.prepared.suite,
                    bl,
                    eliminated: Vec::new(),
                    interval_sims: self.trials[wi].len() * ctx.plan.len(),
                    trials: rows,
                }
            })
            .collect();
        DseResult {
            scale: self.spec.scale,
            sample: self.spec.sample,
            strategy: self.spec.strategy.label(),
            space_points: self.spec.space.size(),
            workloads,
            prep_ms: 0,
            plan_ms: 0,
            measure_ms: 0,
        }
    }
}

/// Aggregates a trial's interval evaluations. Statistics cover only the
/// cleanly measured intervals; failed ones surface through the status
/// fields instead of poisoning the means with zeros. `bl` pairs each
/// interval's baseline IPC with whether the baseline cell itself was
/// clean — a speedup ratio needs both sides.
fn summarize(trial: &Trial, evals: &[CellEval], bl: Option<&[(f64, bool)]>) -> TrialSummary {
    let ok: Vec<&IntervalResult> = evals
        .iter()
        .filter(|e| e.status == CellStatus::Ok)
        .map(|e| &e.result)
        .collect();
    let ipcs: Vec<f64> = ok.iter().map(|r| r.report.mt_ipc).collect();
    let committed: u64 = ok.iter().map(|r| r.report.mt_committed).sum();
    let energy: f64 = ok.iter().map(|r| r.energy_j).sum();
    let speedup = bl.filter(|b| b.len() == evals.len()).map(|b| {
        let ratios: Vec<f64> = evals
            .iter()
            .zip(b.iter())
            .filter(|(e, (_, bl_ok))| e.status == CellStatus::Ok && *bl_ok)
            .map(|(e, (y, _))| e.result.report.mt_ipc / y.max(1e-9))
            .collect();
        mean_ci95(&ratios)
    });
    TrialSummary {
        id: trial.id.clone(),
        label: trial.label.clone(),
        incumbent: trial.incumbent,
        intervals: evals.len(),
        ipc: mean_ci95(&ipcs),
        epi_nj: if committed == 0 {
            0.0
        } else {
            energy / committed as f64 * 1e9
        },
        speedup,
        any_empty: ok.iter().any(|r| r.report.mt_committed == 0),
        status: evals
            .iter()
            .map(|e| e.status)
            .find(|&s| s != CellStatus::Ok)
            .unwrap_or(CellStatus::Ok),
        attempts: evals.iter().map(|e| e.attempts).sum(),
        error: evals.iter().find_map(|e| e.error.clone()),
    }
}

/// Runs the whole search under the environment-configured supervisor
/// (`R3DLA_FAULT_PLAN`, `R3DLA_CELL_DEADLINE_MS`,
/// `R3DLA_CELL_CYCLE_BUDGET`); see [`run_dse_supervised`].
pub fn run_dse(spec: &DseSpec, cache: &ResultCache, threads: usize) -> DseResult {
    run_dse_supervised(spec, cache, threads, &Supervisor::from_env())
}

/// Runs the whole search: prepare + plan once per workload, then walk
/// the space per the strategy with every cell measurement deduplicated
/// through the cache and supervised — a panicking, runaway, or
/// fault-injected interval cell becomes status fields on its trial row
/// instead of killing the search. Byte-reproducible: the returned
/// result (minus the stderr-only wall-clock fields) is a pure function
/// of `spec` and the supervisor's fault plan.
pub fn run_dse_supervised(
    spec: &DseSpec,
    cache: &ResultCache,
    threads: usize,
    sup: &Supervisor,
) -> DseResult {
    let t0 = Instant::now();
    let prepared = parallel_map(&spec.workloads, threads, |w| Prepared::new(w, spec.scale));
    let prep_ms = t0.elapsed().as_millis() as u64;

    let t1 = Instant::now();
    let plans = parallel_map(&prepared, threads, |p| {
        plan_intervals(&p.program, &spec.sample)
    });
    let parts = prepared
        .into_iter()
        .zip(plans)
        .map(|(p, plan)| (Arc::new(p), Arc::new(plan)))
        .collect();
    let plan = DsePlan::from_parts(spec, parts, threads);
    let plan_ms = t1.elapsed().as_millis() as u64;

    let t2 = Instant::now();
    let mut result = match spec.strategy {
        Strategy::Halving { .. } => {
            let workloads = run_halving(spec, cache, threads, sup, &plan.ctxs, &plan.trials);
            DseResult {
                scale: spec.scale,
                sample: spec.sample,
                strategy: spec.strategy.label(),
                space_points: spec.space.size(),
                workloads,
                prep_ms: 0,
                plan_ms: 0,
                measure_ms: 0,
            }
        }
        _ => run_flat(&plan, cache, threads, sup),
    };
    result.prep_ms = prep_ms;
    result.plan_ms = plan_ms;
    result.measure_ms = t2.elapsed().as_millis() as u64;
    result
}

/// Exhaustive/random execution: every (workload, trial, interval) cell
/// is independent; one `parallel_map` covers the whole search, then
/// [`DsePlan::assemble`] folds the outcomes into the report rows.
fn run_flat(plan: &DsePlan, cache: &ResultCache, threads: usize, sup: &Supervisor) -> DseResult {
    let cells = plan.cells();
    let measured = sup.map(
        &cells,
        threads,
        |&cell| plan.cell_key(cell).descr,
        |&cell| Ok(plan.evaluate(cell, cache).0),
    );
    plan.assemble(&measured)
}

/// Successive-halving execution. Rung fidelities double from two
/// intervals up to the plan length; each rung keeps the better half of
/// the still-alive candidates (incumbents and `bl` bypass elimination —
/// they are reference rows, not contestants). Interval results carry
/// over between rungs, so a surviving trial is never re-measured.
fn run_halving(
    spec: &DseSpec,
    cache: &ResultCache,
    threads: usize,
    sup: &Supervisor,
    ctxs: &[WorkloadCtx],
    trials: &[Vec<Trial>],
) -> Vec<WorkloadOutcome> {
    let k_max = ctxs.iter().map(|c| c.plan.len()).max().unwrap_or(0);
    // alive[wi] = trial indices still in the race; protected trials
    // (bl + incumbents) always stay.
    let mut alive: Vec<Vec<usize>> = trials
        .iter()
        .map(|list| (0..list.len()).collect())
        .collect();
    let mut eliminated_at: Vec<Vec<(usize, usize)>> = vec![Vec::new(); trials.len()];
    let mut measured: std::collections::HashMap<(usize, usize, usize), CellEval> =
        std::collections::HashMap::new();
    let mut interval_sims = vec![0usize; ctxs.len()];

    let mut m = 2usize.min(k_max.max(1));
    loop {
        // Schedule the not-yet-measured intervals of every alive trial.
        let mut cells: Vec<(usize, usize, usize)> = Vec::new();
        for (wi, ctx) in ctxs.iter().enumerate() {
            let m_eff = m.min(ctx.plan.len());
            for &ti in &alive[wi] {
                for ii in 0..m_eff {
                    if !measured.contains_key(&(wi, ti, ii)) {
                        cells.push((wi, ti, ii));
                    }
                }
            }
        }
        let fresh = sup.map(
            &cells,
            threads,
            |&(wi, ti, ii)| cell_cache_key(&ctxs[wi], &trials[wi][ti], spec, ii).descr,
            |&(wi, ti, ii)| Ok(evaluate_cell(&ctxs[wi], &trials[wi][ti], spec, ii, cache).0),
        );
        for (&(wi, ti, ii), o) in cells.iter().zip(fresh) {
            interval_sims[wi] += 1;
            measured.insert((wi, ti, ii), CellEval::from_outcome(&o));
        }
        if m >= k_max {
            break;
        }
        // Eliminate the worse half of the contestants per workload.
        for (wi, ctx) in ctxs.iter().enumerate() {
            let m_eff = m.min(ctx.plan.len());
            // Rung means cover only clean intervals — a fault-injected
            // zero must not decide an elimination.
            let means: std::collections::HashMap<usize, f64> = alive[wi]
                .iter()
                .map(|&ti| {
                    let ipcs: Vec<f64> = (0..m_eff)
                        .map(|ii| &measured[&(wi, ti, ii)])
                        .filter(|e| e.status == CellStatus::Ok)
                        .map(|e| e.result.report.mt_ipc)
                        .collect();
                    (ti, mean_ci95(&ipcs).mean)
                })
                .collect();
            let (protected, mut contest): (Vec<usize>, Vec<usize>) = alive[wi]
                .iter()
                .copied()
                .partition(|&ti| ti == 0 || trials[wi][ti].incumbent.is_some());
            // Deterministic order: better mean first, trial id breaks
            // ties.
            contest.sort_by(|&a, &b| {
                means[&b]
                    .partial_cmp(&means[&a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| trials[wi][a].id.cmp(&trials[wi][b].id))
            });
            let keep = contest.len().div_ceil(2);
            for &ti in &contest[keep..] {
                eliminated_at[wi].push((ti, m.min(ctx.plan.len())));
            }
            contest.truncate(keep);
            let mut next = protected;
            next.extend(contest);
            next.sort_unstable();
            alive[wi] = next;
        }
        m = (m * 2).min(k_max);
    }

    ctxs.iter()
        .enumerate()
        .map(|(wi, ctx)| {
            let collect = |ti: usize, n: usize| -> Vec<CellEval> {
                (0..n).map(|ii| measured[&(wi, ti, ii)].clone()).collect()
            };
            let k_eff = ctx.plan.len();
            let bl_results = collect(0, k_eff);
            let bl_ipcs: Vec<(f64, bool)> = bl_results
                .iter()
                .map(|e| (e.result.report.mt_ipc, e.status == CellStatus::Ok))
                .collect();
            let bl = summarize(&trials[wi][0], &bl_results, None);
            let mut rows: Vec<TrialSummary> = alive[wi]
                .iter()
                .filter(|&&ti| ti != 0)
                .map(|&ti| summarize(&trials[wi][ti], &collect(ti, k_eff), Some(&bl_ipcs)))
                .collect();
            sort_trials(&mut rows);
            let mut eliminated: Vec<TrialSummary> = eliminated_at[wi]
                .iter()
                .map(|&(ti, n)| summarize(&trials[wi][ti], &collect(ti, n), None))
                .collect();
            sort_trials(&mut eliminated);
            WorkloadOutcome {
                workload: ctx.prepared.name.clone(),
                suite: ctx.prepared.suite,
                bl,
                trials: rows,
                eliminated,
                interval_sims: interval_sims[wi],
            }
        })
        .collect()
}

/// Best IPC first; ties broken by trial id so the order (and therefore
/// the report) is deterministic even for identical means.
fn sort_trials(rows: &mut [TrialSummary]) {
    rows.sort_by(|a, b| {
        b.ipc
            .mean
            .partial_cmp(&a.ipc.mean)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
}
