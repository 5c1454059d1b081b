#![warn(missing_docs)]
//! Shared experiment harness: prepared workloads (profile + skeletons
//! computed once), measurement helpers with common warmup/window sizing,
//! the parallel experiment runner ([`runner`]), and table formatting for
//! the per-figure binaries.

pub mod runner;
pub mod sampled;
pub mod supervise;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use r3dla_core::{
    generate_skeletons, profile_functional, profile_timing, timing_budget, Dataflow, DlaConfig,
    DlaSystem, ProfileData, SingleCoreSim, SkeletonOptions, SkeletonSet, WindowReport,
};
use r3dla_cpu::{BaseHooks, Core, CoreConfig};
use r3dla_isa::{ArchState, Program};
use r3dla_mem::{CoreMem, MemConfig, SharedLlc};
use r3dla_workloads::{suite, BuiltWorkload, Scale, Suite, Workload};

pub use runner::{
    parallel_map, run_grid, run_grid_supervised, CellKind, CellResult, ConfigSpec,
    ExperimentResult, ExperimentSpec, GridCell, GridPlan, GridResult, GridSpec,
};
pub use sampled::{
    check_against_reference, run_grid_sampled, run_sampled_cell, SampledCell, SampledCellResult,
    SampledGridResult, SampledPlan,
};
pub use supervise::{
    json_escape, CellOutcome, CellStatus, FaultKind, FaultPlan, SuperviseConfig, Supervisor,
};

/// Default warmup instructions for measurement windows.
pub const WARMUP: u64 = 40_000;
/// Default measurement window in committed MT instructions.
pub const WINDOW: u64 = 150_000;

/// A workload with its offline analysis performed once, so each system
/// configuration can be assembled without re-profiling.
///
/// `Prepared` is `Send + Sync`: the runner prepares workloads on a worker
/// pool and shares them by reference across measurement threads. The
/// non-thread-safe simulation state (`Rc`/`RefCell` inside [`DlaSystem`])
/// is only created per-cell, inside one thread, by [`Prepared::dla_system`].
/// The program, profile and skeleton sets are read-only and behind `Arc`s,
/// so a cell's system shares them instead of copying them.
pub struct Prepared {
    /// Kernel name.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// The program.
    pub program: Arc<Program>,
    /// Reaching-definitions analysis (kept so alternative skeleton
    /// options can be regenerated without re-deriving it — the DSE
    /// search sweeps [`SkeletonOptions`] thresholds).
    pub dataflow: Dataflow,
    /// Training profile.
    pub profile: Arc<ProfileData>,
    /// Skeletons with T1 offload applied.
    pub skeletons_t1: Arc<SkeletonSet>,
    /// Skeletons without T1 offload (baseline DLA).
    pub skeletons_plain: Arc<SkeletonSet>,
    built: BuiltWorkload,
}

// Every field is plain data: preparation results may cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Prepared>();
};

impl Prepared {
    /// Profiles and generates skeletons for one workload.
    ///
    /// Traced, each stage is a child span of the `prepare` span, in a
    /// category of its own (see `docs/OBSERVABILITY.md`).
    pub fn new(w: &Workload, scale: Scale) -> Self {
        let _sp = r3dla_obs::span!("prepare", "{}", w.name);
        let built = w.build(scale);
        let program = Arc::new(built.program.clone());
        let df = {
            let _sp = r3dla_obs::span!("prepare.dataflow", "{}", w.name);
            Dataflow::analyze(&program)
        };
        let insts = DlaConfig::dla().profile_insts;
        let mut prof = {
            let _sp = r3dla_obs::span!("prepare.profile_functional", "{}", w.name);
            profile_functional(&program, insts)
        };
        {
            let _sp = r3dla_obs::span!("prepare.profile_timing", "{}", w.name);
            // The training run assembles a (thread-confined) timing
            // core, which shares the program by `Rc`.
            let program = Rc::new(built.program.clone());
            profile_timing(&program, &mut prof, timing_budget(insts));
        }
        let opt = SkeletonOptions::default();
        let skeletons_t1 = {
            let _sp = r3dla_obs::span!("prepare.skeletons", "{} t1", w.name);
            generate_skeletons(&program, &df, &prof, &opt, true)
        };
        let skeletons_plain = {
            let _sp = r3dla_obs::span!("prepare.skeletons", "{} plain", w.name);
            generate_skeletons(&program, &df, &prof, &opt, false)
        };
        Self {
            name: w.name.to_string(),
            suite: w.suite,
            program,
            dataflow: df,
            profile: Arc::new(prof),
            skeletons_t1: Arc::new(skeletons_t1),
            skeletons_plain: Arc::new(skeletons_plain),
            built,
        }
    }

    /// Generates a skeleton set under non-default options, reusing the
    /// stored dataflow analysis and training profile. With default
    /// options this returns the precomputed set.
    pub fn skeletons_for(&self, opt: &SkeletonOptions, t1: bool) -> Arc<SkeletonSet> {
        if *opt == SkeletonOptions::default() {
            return Arc::clone(self.default_skeletons(t1));
        }
        Arc::new(generate_skeletons(
            &self.program,
            &self.dataflow,
            &self.profile,
            opt,
            t1,
        ))
    }

    /// The precomputed skeleton set with or without T1 offload.
    fn default_skeletons(&self, t1: bool) -> &Arc<SkeletonSet> {
        if t1 {
            &self.skeletons_t1
        } else {
            &self.skeletons_plain
        }
    }

    /// The built workload (for single-core and baseline systems).
    pub fn built(&self) -> &BuiltWorkload {
        &self.built
    }

    /// Assembles a DLA system with the pre-computed analysis.
    pub fn dla_system(&self, cfg: DlaConfig) -> DlaSystem {
        let set = Arc::clone(self.default_skeletons(cfg.t1));
        DlaSystem::assemble(
            Arc::clone(&self.program),
            cfg,
            set,
            Arc::clone(&self.profile),
        )
    }

    /// Assembles a DLA system over an externally owned shared LLC/DRAM —
    /// the multi-tenant path: assemble several systems over the same
    /// handle and host them in one [`r3dla_core::Cluster`].
    pub fn dla_system_shared(&self, cfg: DlaConfig, shared: Rc<RefCell<SharedLlc>>) -> DlaSystem {
        let set = Arc::clone(self.default_skeletons(cfg.t1));
        DlaSystem::assemble_shared(
            Arc::clone(&self.program),
            cfg,
            set,
            Arc::clone(&self.profile),
            shared,
        )
    }

    /// Assembles a DLA system resumed from an architectural checkpoint
    /// (sampled-simulation cells).
    pub fn dla_system_from_checkpoint(
        &self,
        cfg: DlaConfig,
        ckpt: &r3dla_isa::ArchCheckpoint,
    ) -> DlaSystem {
        let set = Arc::clone(self.default_skeletons(cfg.t1));
        self.dla_system_from_checkpoint_with(cfg, set, ckpt)
    }

    /// Like [`dla_system_from_checkpoint`](Self::dla_system_from_checkpoint)
    /// but with an explicit skeleton set — the DSE evaluator's entry
    /// point, where the set comes from swept [`SkeletonOptions`] rather
    /// than the two precomputed defaults.
    pub fn dla_system_from_checkpoint_with(
        &self,
        cfg: DlaConfig,
        set: impl Into<Arc<SkeletonSet>>,
        ckpt: &r3dla_isa::ArchCheckpoint,
    ) -> DlaSystem {
        DlaSystem::restore_from_checkpoint(
            Arc::clone(&self.program),
            cfg,
            set,
            Arc::clone(&self.profile),
            ckpt,
        )
    }

    /// Measures one cell: assembles the system `kind` describes, warms
    /// it over `warm` committed instructions, then measures a window of
    /// `win`. `fast_forward` turns event-driven cycle skipping on or off;
    /// the report is identical either way (only wall-clock differs).
    /// This is the one measure entry point for the grid runner, the
    /// figure binaries and the tests.
    pub fn measure(
        &self,
        kind: &CellKind,
        warm: u64,
        win: u64,
        fast_forward: bool,
    ) -> WindowReport {
        match kind {
            CellKind::Dla(cfg) => {
                let mut sys = self.dla_system(cfg.clone());
                sys.set_fast_forward(fast_forward);
                sys.measure(warm, win)
            }
            CellKind::Single { core, l1pf, l2pf } => {
                let mut sim = SingleCoreSim::build(
                    &self.built,
                    core.clone(),
                    MemConfig::paper(),
                    *l1pf,
                    *l2pf,
                );
                sim.set_fast_forward(fast_forward);
                sim.measure(warm, win)
            }
        }
    }
}

/// Prepares every workload of the standard suite at the given scale.
/// This is the expensive step (training profile per kernel); binaries
/// call it once and reuse. Fans out across [`default_threads`] workers.
pub fn prepare_all(scale: Scale) -> Vec<Prepared> {
    prepare_all_threads(scale, default_threads())
}

/// Prepares the full suite on an explicit number of worker threads.
pub fn prepare_all_threads(scale: Scale, threads: usize) -> Vec<Prepared> {
    let ws = suite();
    parallel_map(&ws, threads, |w| Prepared::new(w, scale))
}

/// Prepares a named subset across [`default_threads`] workers.
pub fn prepare_some(names: &[&str], scale: Scale) -> Vec<Prepared> {
    prepare_some_threads(names, scale, default_threads())
}

/// Prepares a named subset on an explicit number of worker threads.
pub fn prepare_some_threads(names: &[&str], scale: Scale, threads: usize) -> Vec<Prepared> {
    let ws: Vec<Workload> = suite()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    parallel_map(&ws, threads, |w| Prepared::new(w, scale))
}

/// Worker-thread default: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs an SMT throughput measurement: `copies` identical threads on the
/// given core; returns aggregate committed instructions per cycle.
pub fn measure_smt(built: &BuiltWorkload, core_cfg: CoreConfig, copies: usize, win: u64) -> f64 {
    let program = Arc::new(built.program.clone());
    let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
    let mut mem = CoreMem::new(&MemConfig::paper(), shared);
    if let Some(pf) = r3dla_prefetch::by_name("bop") {
        mem.set_l2_prefetcher(pf);
    }
    let mut core = Core::new(core_cfg, Arc::clone(&program), mem);
    let mut hooks: Vec<BaseHooks> = (0..copies)
        .map(|_| {
            core.add_thread(program.entry(), ArchState::new(program.entry()).regs());
            BaseHooks::new(&program)
        })
        .collect();
    // Warm then measure.
    let warm_target = WARMUP * copies as u64;
    while (0..copies).map(|t| core.committed(t)).sum::<u64>() < warm_target
        && !core.halted()
        && core.cycle() < warm_target * 60
    {
        core.step(&mut hooks);
    }
    let c0: u64 = (0..copies).map(|t| core.committed(t)).sum();
    let y0 = core.cycle();
    let target = c0 + win * copies as u64;
    while (0..copies).map(|t| core.committed(t)).sum::<u64>() < target
        && !core.halted()
        && core.cycle() - y0 < win * 120
    {
        core.step(&mut hooks);
    }
    let insts: u64 = (0..copies).map(|t| core.committed(t)).sum::<u64>() - c0;
    let cycles = core.cycle() - y0;
    if cycles == 0 {
        0.0
    } else {
        insts as f64 / cycles as f64
    }
}

/// Formats a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Geometric-mean summary per suite plus overall, from
/// `(suite, value)` pairs — the paper's standard aggregation. Undefined
/// values (NaN, such as a 0/0 ratio, or infinite) are left out of the
/// means; a group with no finite value summarizes to NaN.
pub fn suite_summary(pairs: &[(Suite, f64)]) -> Vec<(String, f64)> {
    let finite_geomean = |vals: Vec<f64>| {
        let vals: Vec<f64> = vals.into_iter().filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            r3dla_stats::geomean(&vals)
        }
    };
    let mut out = Vec::new();
    for s in [Suite::SpecInt, Suite::Crono, Suite::Star, Suite::Npb] {
        let vals: Vec<f64> = pairs
            .iter()
            .filter(|(ps, _)| *ps == s)
            .map(|(_, v)| *v)
            .collect();
        if !vals.is_empty() {
            out.push((s.to_string(), finite_geomean(vals)));
        }
    }
    let all: Vec<f64> = pairs.iter().map(|(_, v)| *v).collect();
    out.push(("all".to_string(), finite_geomean(all)));
    out
}

/// Parses `--window N` / `--warm N` style overrides from argv. A flag
/// that is present but unparsable aborts instead of silently running
/// with the default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    match arg_str(name) {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("invalid value '{s}' for {name} (expected an integer)");
            std::process::exit(2);
        }),
        None => default,
    }
}

/// Parses a `--tolerance 0.25` style float override from argv; aborts on
/// an unparsable value like [`arg_u64`].
pub fn arg_f64(name: &str, default: f64) -> f64 {
    match arg_str(name) {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("invalid value '{s}' for {name} (expected a number)");
            std::process::exit(2);
        }),
        None => default,
    }
}

/// Parses a `--threads N` style usize override from argv; aborts on an
/// unparsable value like [`arg_u64`].
pub fn arg_usize(name: &str, default: usize) -> usize {
    match arg_str(name) {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("invalid value '{s}' for {name} (expected an integer)");
            std::process::exit(2);
        }),
        None => default,
    }
}

/// Returns the string argument following `name` in argv, if present.
/// A flag with no value after it, or followed by another `--flag`,
/// aborts like an unparsable value in [`arg_u64`].
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    flag_value(&args, name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The value following the first `name` in `args`: `Ok(None)` when the
/// flag is absent, `Err` when nothing follows it or the next argument is
/// itself a `--flag`.
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("missing value for {name}")),
    }
}

/// Whether a bare `--flag` is present in argv.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The `--threads` override, defaulting to the machine's parallelism —
/// the knob every figure binary exposes.
pub fn arg_threads() -> usize {
    arg_usize("--threads", default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_measure_one() {
        let p = prepare_some(&["md5_like"], Scale::Tiny);
        assert_eq!(p.len(), 1);
        let bl = p[0].measure(&CellKind::bl(CoreConfig::paper()), 2_000, 8_000, true);
        assert!(bl.mt_ipc > 0.0);
        let rep = p[0].measure(&CellKind::Dla(DlaConfig::dla()), 2_000, 8_000, true);
        assert!(rep.mt_ipc > 0.0);
    }

    #[test]
    fn flag_value_rejects_missing_values() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let argv = args(&["runner", "--out", "x.json", "--window"]);
        assert_eq!(flag_value(&argv, "--out"), Ok(Some("x.json".to_string())));
        assert_eq!(flag_value(&argv, "--warm"), Ok(None));
        assert!(
            flag_value(&argv, "--window").is_err(),
            "flag at the end of argv"
        );
        let argv = args(&["runner", "--out", "--threads", "2"]);
        assert!(
            flag_value(&argv, "--out").is_err(),
            "flag followed by a flag"
        );
        assert_eq!(flag_value(&argv, "--threads"), Ok(Some("2".to_string())));
    }

    #[test]
    fn suite_summary_aggregates() {
        let pairs = vec![
            (Suite::SpecInt, 2.0),
            (Suite::SpecInt, 8.0),
            (Suite::Crono, 1.0),
        ];
        let s = suite_summary(&pairs);
        let spec = s.iter().find(|(n, _)| n == "spec").unwrap().1;
        assert!((spec - 4.0).abs() < 1e-9);
        assert_eq!(s.last().unwrap().0, "all");
    }

    #[test]
    fn suite_summary_skips_undefined_values() {
        let pairs = vec![
            (Suite::Npb, 2.0),
            (Suite::Npb, f64::NAN),
            (Suite::Npb, 8.0),
            (Suite::Crono, f64::INFINITY),
        ];
        let s = suite_summary(&pairs);
        let npb = s.iter().find(|(n, _)| n == "npb").unwrap().1;
        assert!((npb - 4.0).abs() < 1e-9, "npb geomean {npb}");
        let crono = s.iter().find(|(n, _)| n == "crono").unwrap().1;
        assert!(crono.is_nan(), "no finite crono value: {crono}");
        let all = s.last().unwrap().1;
        assert!((all - 4.0).abs() < 1e-9, "all geomean {all}");
    }
}
