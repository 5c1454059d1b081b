//! Off-line (static) skeleton tuning (paper §III-E2): run each skeleton
//! version on a training window, attribute main-thread performance to
//! loops, and emit the per-loop best-version map consumed by
//! [`RecycleMode::Static`](crate::RecycleMode).
//!
//! The paper favours this approach for simple recycling ("we believe the
//! offline approach is more advisable as we need no architectural support
//! other than performance counters").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use r3dla_cpu::{CommitRecord, CommitSink};

use crate::system::{DlaConfig, DlaSystem};
use crate::RecycleMode;

/// Accumulates per-loop committed instructions and cycles on the main
/// thread, using the same loop identification as the runtime controller
/// (two consecutive instances of a backward conditional branch).
#[derive(Debug, Default)]
struct LoopProfiler {
    current_loop: Option<u64>,
    last_backward_target: Option<u64>,
    window_start_committed: u64,
    window_start_cycle: u64,
    committed: u64,
    /// loop pc → (instructions, cycles)
    totals: HashMap<u64, (u64, u64)>,
}

impl LoopProfiler {
    fn flush(&mut self, cycle: u64) {
        if let Some(lp) = self.current_loop {
            let insts = self.committed - self.window_start_committed;
            let cycles = cycle.saturating_sub(self.window_start_cycle);
            let e = self.totals.entry(lp).or_insert((0, 0));
            e.0 += insts;
            e.1 += cycles;
        }
        self.window_start_committed = self.committed;
    }
}

impl CommitSink for LoopProfiler {
    fn on_commit(&mut self, rec: &CommitRecord) {
        self.committed += 1;
        if !rec.inst.is_cond_branch() || rec.taken != Some(true) || rec.next_pc >= rec.pc {
            return;
        }
        let target = rec.next_pc;
        let consecutive = self.last_backward_target == Some(target);
        self.last_backward_target = Some(target);
        if !consecutive {
            return;
        }
        if self.current_loop != Some(target) {
            self.flush(rec.cycle);
            self.current_loop = Some(target);
            self.window_start_cycle = rec.cycle;
            self.window_start_committed = self.committed;
        }
    }
}

/// Runs each skeleton version over a training window and returns the
/// per-loop best-version map (paper §III-E2's off-line tuning), plus the
/// number of loops attributed.
///
/// `make_system` builds a fresh system per version (so each run starts
/// cold and identical); `window` is the committed-instruction budget per
/// version.
pub fn static_tune(
    mut make_system: impl FnMut() -> DlaSystem,
    versions: usize,
    window: u64,
) -> (HashMap<u64, usize>, usize) {
    // per loop: best (ipc, version)
    let mut best: HashMap<u64, (f64, usize)> = HashMap::new();
    for v in 0..versions {
        let mut sys = make_system();
        sys.active_skeleton_mut().switch_to(v);
        let profiler = Rc::new(RefCell::new(LoopProfiler::default()));
        sys.set_mt_observer(profiler.clone());
        sys.run_until_mt(window, window * 60 + 500_000);
        let mut p = profiler.borrow_mut();
        let final_cycle = sys.cycle();
        p.flush(final_cycle);
        for (&loop_pc, &(insts, cycles)) in &p.totals {
            if insts < 1_000 || cycles == 0 {
                continue; // too small to attribute meaningfully
            }
            let ipc = insts as f64 / cycles as f64;
            let e = best.entry(loop_pc).or_insert((0.0, 0));
            if ipc > e.0 {
                *e = (ipc, v);
            }
        }
    }
    let loops = best.len();
    (best.into_iter().map(|(k, (_, v))| (k, v)).collect(), loops)
}

/// Convenience: tunes and returns a ready-to-use static recycle mode.
pub fn static_recycle_mode(
    make_system: impl FnMut() -> DlaSystem,
    versions: usize,
    window: u64,
) -> RecycleMode {
    let (map, _) = static_tune(make_system, versions, window);
    RecycleMode::Static(map)
}

/// Builds a statically tuned system for a config: tunes on a training
/// window, then assembles the final system with the resulting map.
pub fn build_static_tuned(base: &DlaSystem, cfg: DlaConfig, tune_window: u64) -> DlaSystem {
    let program = Arc::clone(base.program());
    let skeletons = Arc::clone(base.active_skeleton().set());
    let profile = Arc::clone(&base.profile);
    let versions = skeletons.len();
    let mk = {
        let (program, skeletons, profile) = (program.clone(), skeletons.clone(), profile.clone());
        let cfg = cfg.clone();
        move || {
            let mut c = cfg.clone();
            c.recycle = RecycleMode::Off;
            DlaSystem::assemble(program.clone(), c, skeletons.clone(), profile.clone())
        }
    };
    let mode = static_recycle_mode(mk, versions, tune_window);
    let mut c = cfg;
    c.recycle = mode;
    DlaSystem::assemble(program, c, skeletons, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::SkeletonOptions;
    use r3dla_workloads::{by_name, Scale};

    #[test]
    fn tuner_attributes_loops_and_produces_a_map() {
        let wl = by_name("hmmer_like").unwrap().build(Scale::Tiny);
        let base = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
        let (program, profile) = (base.program(), &base.profile);
        let skeletons = base.active_skeleton().set();
        let (map, loops) = static_tune(
            || {
                DlaSystem::assemble(
                    program.clone(),
                    DlaConfig::dla(),
                    skeletons.clone(),
                    profile.clone(),
                )
            },
            skeletons.len(),
            30_000,
        );
        assert!(loops > 0, "at least one loop must be attributed");
        for &v in map.values() {
            assert!(v < skeletons.len());
        }
    }

    #[test]
    fn statically_tuned_system_runs() {
        let wl = by_name("libq_like").unwrap().build(Scale::Tiny);
        let base = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
        let mut tuned = build_static_tuned(&base, DlaConfig::dla(), 20_000);
        let rep = tuned.measure(5_000, 20_000);
        assert!(rep.mt_ipc > 0.0);
        assert!(matches!(
            tuned.recycle_controller().mode(),
            RecycleMode::Static(_)
        ));
    }
}
