//! Behavioural integration tests for the look-ahead machinery: BOQ-fed
//! prediction accuracy, shared-cache warming, reboot bounds, and the
//! reduce/reuse/recycle counters.

use r3dla::core::{DlaConfig, DlaSystem, RecycleMode, SkeletonOptions};
use r3dla::cpu::CoreConfig;
use r3dla::mem::MemConfig;
use r3dla::workloads::{by_name, Scale};

#[test]
fn boq_makes_mt_branch_prediction_nearly_perfect() {
    // Data-dependent branches defeat the baseline predictor; the BOQ
    // supplies LT-resolved outcomes so MT mispredicts almost never
    // (paper: 0.06 MPKI fed-wrong rate).
    let wl = by_name("bzip2_like").unwrap().build(Scale::Tiny);
    let mut bl = r3dla::core::SingleCoreSim::build(
        &wl,
        CoreConfig::paper(),
        MemConfig::paper(),
        None,
        Some("bop"),
    );
    bl.run_until(60_000, 10_000_000);
    let bl_mpki = bl.core().counters.mispredicts_per_kilo();
    let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
    sys.run_until_mt(60_000, 20_000_000);
    let mt_mpki = sys.mt().counters.mispredicts_per_kilo();
    assert!(
        mt_mpki < bl_mpki / 3.0,
        "BOQ should slash MT mispredicts: MT {mt_mpki:.2} vs BL {bl_mpki:.2}"
    );
}

#[test]
fn lookahead_thread_is_lighter_than_main() {
    // Table II's premise: LT commits a fraction of MT's instructions.
    let wl = by_name("cg_like").unwrap().build(Scale::Tiny);
    let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
    let rep = sys.measure(10_000, 50_000);
    let ratio = rep.lt_committed as f64 / rep.mt_committed.max(1) as f64;
    assert!(ratio < 0.95, "LT should be lighter: ratio {ratio:.2}");
}

#[test]
fn reboots_are_rare() {
    // Paper: ~0.6 reboots per 10k instructions on average.
    let wl = by_name("sjeng_like").unwrap().build(Scale::Tiny);
    let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
    let rep = sys.measure(10_000, 60_000);
    let per_10k = rep.reboots as f64 * 10_000.0 / rep.mt_committed.max(1) as f64;
    assert!(per_10k < 10.0, "reboot storm: {per_10k:.1} per 10k insts");
}

#[test]
fn t1_reduces_lt_workload() {
    // The *reduce* optimization (paper §III-B): strided loads whose
    // values the skeleton does not need are offloaded to the T1 FSM and
    // leave the skeleton, so LT commits strictly less. A streaming media
    // kernel is the paper's representative case for T1.
    let wl = by_name("rgbyuv_like").unwrap().build(Scale::Tiny);
    let base = {
        let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
        sys.measure(10_000, 40_000)
    };
    let with_t1 = {
        let mut cfg = DlaConfig::dla();
        cfg.t1 = true;
        let mut sys = DlaSystem::build(&wl, cfg, SkeletonOptions::default()).unwrap();
        sys.measure(10_000, 40_000)
    };
    assert!(with_t1.lt_committed > 0, "LT must still run under T1");
    assert!(
        (with_t1.lt_committed as f64) < 0.9 * base.lt_committed as f64,
        "T1 offload should shrink LT by >10%: {} vs {}",
        with_t1.lt_committed,
        base.lt_committed
    );
}

#[test]
fn value_reuse_serves_predictions() {
    let wl = by_name("mcf_like").unwrap().build(Scale::Tiny);
    let mut cfg = DlaConfig::dla();
    cfg.value_reuse = true;
    let mut sys = DlaSystem::build(&wl, cfg, SkeletonOptions::default()).unwrap();
    sys.run_until_mt(80_000, 30_000_000);
    let preds = sys.mt().counters.value_predictions.get();
    let wrong = sys.mt().counters.value_mispredicts.get();
    // Value reuse must actually fire on mcf_like at this scale (measured
    // ~10k predictions) — a bare `if preds > 50` guard would let the
    // accuracy assertion silently go vacuous — and when it fires it must
    // be overwhelmingly correct (paper: >98%).
    assert!(preds > 50, "value reuse never fired: {preds} predictions");
    assert!(
        (wrong as f64) < 0.25 * preds as f64,
        "too many value mispredicts: {wrong}/{preds}"
    );
}

#[test]
fn recycle_usage_is_tracked() {
    let wl = by_name("hmmer_like").unwrap().build(Scale::Tiny);
    let mut cfg = DlaConfig::dla();
    cfg.recycle = RecycleMode::Dynamic;
    let mut sys = DlaSystem::build(&wl, cfg, SkeletonOptions::default()).unwrap();
    sys.run_until_mt(120_000, 40_000_000);
    let usage = sys.active_skeleton().usage.clone();
    assert_eq!(usage.len(), 6, "six skeleton versions");
    assert!(usage.iter().sum::<u64>() > 0);
}

#[test]
fn validation_skip_scoreboard_fires_only_with_value_reuse() {
    let wl = by_name("mcf_like").unwrap().build(Scale::Tiny);
    let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
    sys.run_until_mt(50_000, 20_000_000);
    assert_eq!(sys.mt().counters.value_validation_skips.get(), 0);
}
