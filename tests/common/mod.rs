//! Helpers shared by the run-loop equivalence suites
//! (`skip_equivalence.rs` and `event_kernel_equivalence.rs`).

use r3dla_bench::runner::{CellResult, ConfigSpec};
use r3dla_bench::Prepared;
use r3dla_core::WindowReport;

/// Warmup and window of every cell, in committed MT instructions.
pub const WARM: u64 = 1_000;
pub const WIN: u64 = 4_000;

/// The runner's deterministic per-cell JSON row — the very formatter
/// `GridResult::to_json` uses, so this comparison is verbatim against
/// the real `BENCH_*.json` schema by construction.
pub fn cell_row(p: &Prepared, config: &str, report: WindowReport) -> String {
    CellResult {
        workload: p.name.clone(),
        suite: p.suite,
        config: config.to_string(),
        report,
        wall_ms: 0,
        status: r3dla_bench::CellStatus::Ok,
        attempts: 1,
        error: None,
    }
    .stat_fields()
}

/// The reference row of a cell: the plain run loop with event-driven
/// cycle skipping on. Fails if the cell committed nothing.
pub fn reference_row(p: &Prepared, spec: &ConfigSpec) -> String {
    let report = p.measure(&spec.kind, WARM, WIN, true);
    assert!(
        report.mt_committed > 0,
        "({}, {}): cell committed nothing",
        p.name,
        spec.label,
    );
    cell_row(p, &spec.label, report)
}
