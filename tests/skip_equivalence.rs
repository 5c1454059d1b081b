//! Cycle-skipping equivalence suite: the event-driven fast path must be
//! invisible in every reported statistic.
//!
//! A single system has one run loop, `MeasureTarget::run_insts`, a
//! plain `while` over its quantum advance. For each cell at
//! `Scale::Tiny`, that loop is run with event-driven cycle skipping on
//! and off, and the deterministic
//! `BENCH_*.json` cell rows must be identical. Any divergence in cycles,
//! commits, DRAM traffic, cache statistics or reboot counts fails the
//! suite. `event_kernel_equivalence.rs` checks the same reference row
//! against a one-tenant `Cluster`.

mod common;

use common::{cell_row, reference_row, WARM, WIN};
use r3dla_bench::runner::ConfigSpec;
use r3dla_bench::{parallel_map, Prepared};
use r3dla_workloads::{suite, Scale};

fn assert_cell_equivalent(p: &Prepared, spec: &ConfigSpec) {
    let stepped = p.measure(&spec.kind, WARM, WIN, false);
    assert_eq!(
        reference_row(p, spec),
        cell_row(p, &spec.label, stepped),
        "({}, {}): cycle skipping changed the report",
        p.name,
        spec.label,
    );
}

/// Every workload in the suite, under the two-core DLA system.
#[test]
fn every_workload_is_skip_equivalent_under_dla() {
    let prepared = parallel_map(&suite(), 2, |w| Prepared::new(w, Scale::Tiny));
    let dla = ConfigSpec::by_name("dla").unwrap();
    parallel_map(&prepared, 2, |p| assert_cell_equivalent(p, &dla));
}

/// A representative subset (memory-bound, branchy, FP, graph) under the
/// single-core baseline and the full R3 system, so the `SingleCoreSim`
/// fast path and the complete reuse/recycle feature set are covered too.
#[test]
fn representative_workloads_are_skip_equivalent_under_bl_and_r3() {
    let names = ["libq_like", "mcf_like", "xalan_like", "cg_like", "bfs"];
    let workloads: Vec<_> = suite()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    assert_eq!(workloads.len(), names.len(), "subset names must all exist");
    let prepared = parallel_map(&workloads, 2, |w| Prepared::new(w, Scale::Tiny));
    let cells: Vec<(&Prepared, ConfigSpec)> = ["bl", "r3"]
        .into_iter()
        .flat_map(|c| {
            let spec = ConfigSpec::by_name(c).unwrap();
            prepared.iter().map(move |p| (p, spec.clone()))
        })
        .collect();
    parallel_map(&cells, 2, |(p, spec)| assert_cell_equivalent(p, spec));
}
