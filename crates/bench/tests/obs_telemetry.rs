//! End-to-end guarantees of the telemetry layer (`r3dla-obs`):
//!
//! * the sidecar's deterministic counter section is byte-identical
//!   across `--threads` settings;
//! * report bytes are untouched by arming tracing and counters;
//! * a traced campaign produces a Chrome-trace JSON file with per-cell
//!   spans, per-stage preparation spans and named worker threads.
//!
//! Obs state (counter registry, span pool) is process-global and every
//! integration-test *file* is its own process, so all obs tests live in
//! this one file and serialize on a local gate.

use std::sync::{Mutex, MutexGuard};

use r3dla_bench::runner::{run_grid, ConfigSpec, GridSpec};
use r3dla_bench::sampled::run_grid_sampled;
use r3dla_sample::SampleSpec;
use r3dla_workloads::{by_name, Scale};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms and clears all global obs state.
fn obs_reset() {
    r3dla_obs::trace::set_recording(false);
    r3dla_obs::counters::set_enabled(false);
    r3dla_obs::trace::reset();
    r3dla_obs::counters::reset();
}

fn tiny_grid() -> GridSpec {
    GridSpec {
        scale: Scale::Tiny,
        workloads: ["libq_like", "md5_like"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect(),
        configs: ["bl", "dla"]
            .iter()
            .map(|n| ConfigSpec::by_name(n).unwrap())
            .collect(),
        warm: 1_000,
        win: 2_000,
        fast_forward: true,
    }
}

#[test]
fn grid_deterministic_sidecar_section_is_thread_count_invariant() {
    let _g = gate();
    obs_reset();
    r3dla_obs::counters::set_enabled(true);
    run_grid(&tiny_grid(), 1);
    let one = r3dla_obs::sidecar::render_deterministic();
    r3dla_obs::counters::reset();
    run_grid(&tiny_grid(), 2);
    let two = r3dla_obs::sidecar::render_deterministic();
    obs_reset();
    assert!(one.contains("supervisor.cells"), "section was:\n{one}");
    assert_eq!(
        one, two,
        "deterministic section must not depend on --threads"
    );
}

#[test]
fn sampled_counters_cover_block_cache_and_stay_thread_count_invariant() {
    let _g = gate();
    obs_reset();
    let sample = SampleSpec::parse("3:2000:functional").unwrap();
    r3dla_obs::counters::set_enabled(true);
    run_grid_sampled(&tiny_grid(), &sample, 1);
    let one = r3dla_obs::sidecar::render_deterministic();
    r3dla_obs::counters::reset();
    run_grid_sampled(&tiny_grid(), &sample, 2);
    let two = r3dla_obs::sidecar::render_deterministic();
    obs_reset();
    assert!(
        one.contains("block_cache.map_probes"),
        "section was:\n{one}"
    );
    assert!(one.contains("supervisor.ok"), "section was:\n{one}");
    assert_eq!(
        one, two,
        "deterministic section must not depend on --threads"
    );
}

#[test]
fn report_bytes_are_identical_with_telemetry_on_and_off() {
    let _g = gate();
    obs_reset();
    let off = run_grid(&tiny_grid(), 2).to_json(false);
    r3dla_obs::trace::set_recording(true);
    r3dla_obs::counters::set_enabled(true);
    let on = run_grid(&tiny_grid(), 2).to_json(false);
    obs_reset();
    assert_eq!(off, on, "tracing must never perturb report bytes");
}

#[test]
fn traced_grid_run_emits_cell_spans_and_worker_names() {
    let _g = gate();
    obs_reset();
    r3dla_obs::trace::set_recording(true);
    run_grid(&tiny_grid(), 2);
    let dir = std::env::temp_dir().join(format!("r3dla-obs-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    r3dla_obs::trace::write_chrome_trace(&path).unwrap();
    let body = std::fs::read_to_string(&path).unwrap();
    obs_reset();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        body.starts_with("[\n") && body.trim_end().ends_with(']'),
        "trace must be one JSON array"
    );
    assert!(
        body.contains("\"cat\":\"prepare\""),
        "missing prepare spans"
    );
    // `Prepared::new`'s stages, in categories of their own so that
    // summing the `prepare` category does not count them twice.
    for stage in [
        "dataflow",
        "profile_functional",
        "profile_timing",
        "skeletons",
    ] {
        assert!(
            body.contains(&format!("\"cat\":\"prepare.{stage}\"")),
            "missing prepare.{stage} spans"
        );
    }
    assert!(body.contains("\"cat\":\"cell\""), "missing cell spans");
    assert!(
        body.contains("\"thread_name\"") && body.contains("worker-0"),
        "missing worker thread names"
    );
}
