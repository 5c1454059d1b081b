//! Cluster equivalence suite: a [`Cluster`] must be byte-identical to
//! the plain run loop in every reported statistic.
//!
//! A single system has one run loop, `MeasureTarget::run_insts`; a
//! `Cluster` dispatches the same quantum advance across its tenants.
//! For each cell at `Scale::Tiny`, the plain loop (cycle skipping on) is
//! the reference, and a one-tenant [`Cluster`] measured through
//! `measure_each` must match it. The deterministic `BENCH_*.json` cell
//! row is compared verbatim. `skip_equivalence.rs` checks the same
//! reference row against the loop with skipping off.
//!
//! A second group checks the multi-tenant [`Cluster`]: two systems over
//! one shared LLC/DRAM, run twice from scratch, must produce identical
//! per-tenant reports with both tenants committing work.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{cell_row, reference_row, WARM, WIN};
use r3dla_bench::runner::{CellKind, ConfigSpec};
use r3dla_bench::{parallel_map, Prepared};
use r3dla_core::{Cluster, DlaConfig, MeasureTarget, SingleCoreSim, WindowReport};
use r3dla_mem::{MemConfig, SharedLlc};
use r3dla_workloads::{suite, Scale};

/// Measures `sys` as the only tenant of a cluster.
fn one_tenant<T: MeasureTarget>(sys: T) -> WindowReport {
    let mut cluster = Cluster::new();
    cluster.push(sys);
    cluster.measure_each(WARM, WIN).remove(0)
}

fn assert_cell_equivalent(p: &Prepared, spec: &ConfigSpec) {
    let clustered = match &spec.kind {
        CellKind::Dla(cfg) => one_tenant(p.dla_system(cfg.clone())),
        CellKind::Single { core, l1pf, l2pf } => one_tenant(SingleCoreSim::build(
            p.built(),
            core.clone(),
            MemConfig::paper(),
            *l1pf,
            *l2pf,
        )),
    };
    assert_eq!(
        reference_row(p, spec),
        cell_row(p, &spec.label, clustered),
        "({}, {}): the one-tenant cluster changed the report",
        p.name,
        spec.label,
    );
}

/// Every workload in the suite, under the single-core baseline, the
/// plain DLA system and the full R3 system.
#[test]
fn every_workload_is_loop_equivalent_under_bl_dla_and_r3() {
    let prepared = parallel_map(&suite(), 2, |w| Prepared::new(w, Scale::Tiny));
    let cells: Vec<(&Prepared, ConfigSpec)> = ["bl", "dla", "r3"]
        .into_iter()
        .flat_map(|c| {
            let spec = ConfigSpec::by_name(c).unwrap();
            prepared.iter().map(move |p| (p, spec.clone()))
        })
        .collect();
    parallel_map(&cells, 2, |(p, spec)| assert_cell_equivalent(p, spec));
}

/// Two tenants over one shared LLC/DRAM: the cluster must be
/// deterministic (two runs from scratch agree verbatim) and both tenants
/// must make progress while contending.
#[test]
fn shared_llc_cluster_is_deterministic_and_both_tenants_commit() {
    let names = ["libq_like", "mcf_like"];
    let workloads: Vec<_> = suite()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    assert_eq!(workloads.len(), names.len(), "subset names must all exist");
    let prepared = parallel_map(&workloads, 1, |w| Prepared::new(w, Scale::Tiny));

    let run = || {
        let cfg = DlaConfig::r3();
        let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg.mem)));
        let mut cluster = Cluster::with_shared(shared.clone());
        for p in &prepared {
            cluster.push(p.dla_system_shared(cfg.clone(), shared.clone()));
        }
        let rows: Vec<String> = cluster
            .measure_each(1_000, 4_000)
            .into_iter()
            .zip(&prepared)
            .map(|(report, p)| {
                assert!(
                    report.mt_committed > 0,
                    "tenant {} committed nothing while co-running",
                    p.name
                );
                cell_row(p, "r3+shared", report)
            })
            .collect();
        rows
    };
    assert_eq!(run(), run(), "cluster run is not deterministic");
}

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Two DLA tenants over one shared LLC/DRAM, pinned as the FNV of their
/// report rows. Same-cycle wakeups of this pair must dispatch in
/// schedule order: breaking ties by tenant index instead moves the value
/// (to 0x2a44_a24a_5ed5_21ea). The constant was taken from a release
/// build of the calendar-queue scheduler the cluster's scan replaced;
/// only an intended model change may update it.
#[test]
fn shared_llc_cluster_rows_are_pinned() {
    let names = ["pagerank", "cc"];
    let workloads: Vec<_> = suite()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    let prepared = parallel_map(&workloads, 2, |w| Prepared::new(w, Scale::Tiny));
    let cfg = DlaConfig::dla();
    let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg.mem)));
    let mut cluster = Cluster::with_shared(shared.clone());
    for p in &prepared {
        cluster.push(p.dla_system_shared(cfg.clone(), shared.clone()));
    }
    let rows: String = cluster
        .measure_each(2_000, 8_000)
        .into_iter()
        .zip(&prepared)
        .map(|(report, p)| cell_row(p, "dla+shared", report) + "\n")
        .collect();
    let got = fnv(rows.as_bytes());
    assert_eq!(
        got, 0x446e_bb5b_ad98_0dc6,
        "shared-LLC rows fingerprint {got:#018x}:\n{rows}"
    );
}
