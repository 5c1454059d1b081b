//! SlipStream (Sundaramoorthy, Purser & Rotenberg, ASPLOS 2000): an
//! A-stream shortened by removing ineffectual computation and biased
//! branches runs ahead of the architecturally safe R-stream, passing
//! branch outcomes and warming the shared memory hierarchy.
//!
//! Mapped onto our substrate: a DLA system whose skeleton is built
//! SlipStream-style — the control slice with aggressive biased-branch
//! conversion but *without* DLA's prefetch payloads — and whose only
//! communication is the branch-outcome queue plus shared-cache warming
//! (no footnote-queue hints, no T1 / value reuse / recycling).

use std::rc::Rc;

use r3dla_core::{
    generate_skeletons, profile, Dataflow, DlaConfig, DlaSystem, RecycleMode, SkeletonOptions,
    SkeletonSet,
};
use r3dla_workloads::BuiltWorkload;

/// Builds a SlipStream-style system for a workload.
pub fn slipstream_system(built: &BuiltWorkload) -> DlaSystem {
    let mut cfg = DlaConfig::dla();
    cfg.t1 = false;
    cfg.value_reuse = false;
    cfg.recycle = RecycleMode::Off;
    cfg.fq_hints = false; // branch outcomes + cache warming only
    let program = Rc::new(built.program.clone());
    let df = Dataflow::analyze(&program);
    let prof = profile(&program, cfg.profile_insts);
    // SlipStream's IR-detector removes ineffectual writes and highly
    // biased branches; it does NOT add prefetch payloads for missing
    // loads. Model that with seed thresholds that exclude all miss-driven
    // seeds and a slightly laxer bias threshold.
    let opt = SkeletonOptions {
        l1_seed_rate: 2.0, // > 1.0: no L1-miss seeds can qualify
        l2_seed_rate: 2.0, // no L2-miss seeds either
        bias_threshold: 0.99,
        ..SkeletonOptions::default()
    };
    let set = generate_skeletons(&program, &df, &prof, &opt, false);
    // Use the bias-converted version as the A-stream (version 4 in the
    // generator's layout); keep only that one so no recycling happens.
    let a_stream = set.versions[4].clone();
    let single = SkeletonSet {
        versions: vec![a_stream],
    };
    DlaSystem::assemble(Rc::unwrap_or_clone(program), cfg, single, prof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_workloads::{by_name, Scale};

    #[test]
    fn slipstream_runs_and_reports() {
        let wl = by_name("bzip2_like").unwrap().build(Scale::Tiny);
        let mut sys = slipstream_system(&wl);
        let rep = sys.measure(3_000, 12_000);
        assert!(rep.mt_ipc > 0.0);
        assert!(rep.mt_committed >= 12_000 || sys.mt_halted());
    }

    #[test]
    fn a_stream_is_reduced() {
        let wl = by_name("hmmer_like").unwrap().build(Scale::Tiny);
        let sys = slipstream_system(&wl);
        let d = sys.active_skeleton().set().versions[0].density();
        assert!(d < 1.0, "A-stream must drop something, density={d}");
    }
}
