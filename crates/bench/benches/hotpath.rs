//! Microbenchmarks pinning the simulator's hot paths: `VecMem`
//! functional memory, `Core::step` on a single core, a full `DlaSystem`
//! — with and without event-driven cycle skipping, so the fast
//! path's speedup is a number, not a vibe — the `prepare` group's
//! profiling training run (`profile_timing` on `libq_like`, one of the
//! longest tiny ones; the training run is most of `Prepared::new`),
//! and the sampled-simulation functional emulator, so fast-forward
//! throughput regressions are pinned the same way. The `obs` groups pin the telemetry layer's
//! cost model: per-probe prices armed and disarmed, and disabled
//! probes against the `Core::step` loop (must be in the noise).
//!
//! Run with `cargo bench -p r3dla-bench --bench hotpath`; passing
//! `-- --test` (as the CI bench-smoke job does for compile checks) exits
//! without timing.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use r3dla_bench::{CellKind, Prepared};
use r3dla_core::{profile_functional, profile_timing, DlaConfig, SingleCoreSim};
use r3dla_cpu::CoreConfig;
use r3dla_isa::{DataMem, VecMem};
use r3dla_mem::MemConfig;
use r3dla_sample::{Emulator, ImageMem};
use r3dla_workloads::{by_name, Scale};

fn bench_vecmem(c: &mut Criterion) {
    let mut g = c.benchmark_group("vecmem");
    g.sample_size(20);
    g.bench_function("store_load_sequential_64k", |b| {
        b.iter(|| {
            let mut m = VecMem::new();
            let mut acc = 0u64;
            for i in 0..65_536u64 {
                m.store(0x2000_0000 + i * 8, i);
            }
            for i in 0..65_536u64 {
                acc = acc.wrapping_add(m.load(0x2000_0000 + i * 8));
            }
            acc
        })
    });
    g.bench_function("load_page_interleaved_64k", |b| {
        let mut m = VecMem::new();
        for i in 0..65_536u64 {
            m.store(0x2000_0000 + i * 8, i);
        }
        b.iter(|| {
            let mut acc = 0u64;
            // Alternate between two pages: worst case for the last-page
            // cache, pure page-table pressure.
            for i in 0..32_768u64 {
                acc = acc.wrapping_add(m.load(0x2000_0000 + (i & 0x1FF) * 8));
                acc = acc.wrapping_add(m.load(0x2004_0000 + (i & 0x1FF) * 8));
            }
            acc
        })
    });
    g.bench_function("load_unmapped_wrong_path", |b| {
        let mut m = VecMem::new();
        m.store(0x1000, 1);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..65_536u64 {
                acc = acc.wrapping_add(m.load(0xDEAD_0000 + i * 4096));
            }
            acc
        })
    });
    g.finish();
}

fn bench_core_step(c: &mut Criterion) {
    let wl = by_name("libq_like").unwrap();
    let mut g = c.benchmark_group("core_step");
    g.sample_size(10);
    for (name, fast) in [("cycle_by_cycle_20k", false), ("event_driven_20k", true)] {
        g.bench_function(name, |b| {
            let built = Rc::new(RefCell::new(wl.build(Scale::Tiny)));
            b.iter(|| {
                let mut sim = SingleCoreSim::build(
                    &built.borrow(),
                    CoreConfig::paper(),
                    MemConfig::paper(),
                    None,
                    Some("bop"),
                );
                sim.set_fast_forward(fast);
                sim.run_until(20_000, 2_000_000);
                black_box(sim.core().committed(0))
            })
        });
    }
    g.finish();
}

fn bench_prepare(c: &mut Criterion) {
    // The training run exactly as `Prepared::new` calls it through
    // `profile`: the functional profile is computed once outside the
    // timed loop, so only the detailed core's run is priced.
    let max_insts = DlaConfig::dla().profile_insts;
    let prog = Rc::new(by_name("libq_like").unwrap().build(Scale::Tiny).program);
    let functional = profile_functional(&prog, max_insts);
    let mut g = c.benchmark_group("prepare");
    g.sample_size(10);
    g.bench_function("profile_timing_libq", |b| {
        b.iter(|| {
            let mut data = functional.clone();
            profile_timing(&prog, &mut data, (max_insts / 4).max(20_000));
            black_box(data.avg_d2e.len())
        })
    });
    g.finish();
}

fn bench_dla_system(c: &mut Criterion) {
    let prepared = Prepared::new(&by_name("libq_like").unwrap(), Scale::Tiny);
    let mut g = c.benchmark_group("dla_system");
    g.sample_size(10);
    for (name, fast) in [("cycle_by_cycle_libq", false), ("event_driven_libq", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let rep = prepared.measure(&CellKind::Dla(DlaConfig::dla()), 5_000, 20_000, fast);
                black_box(rep.mt_committed)
            })
        });
    }
    g.finish();
}

/// Emulated instructions per host second for one dispatch mode: loops
/// the workload until `budget` instructions have retired, timed once.
fn ff_round(
    prog: &Arc<r3dla_isa::Program>,
    image: &Arc<ImageMem>,
    blocks: bool,
    budget: u64,
) -> f64 {
    let t0 = std::time::Instant::now();
    let mut executed = 0u64;
    while executed < budget {
        let mut e = Emulator::with_image(Arc::clone(prog), Arc::clone(image));
        e.set_block_cache(blocks);
        executed += e.run(budget - executed);
    }
    executed as f64 / t0.elapsed().as_secs_f64()
}

/// Best-of-`rounds` throughput for both dispatch modes, interleaved
/// (blocks, interp, blocks, interp, …) so a drifting host load hits
/// both modes alike instead of biasing whichever ran second.
fn ff_insts_per_sec(
    prog: &Arc<r3dla_isa::Program>,
    image: &Arc<ImageMem>,
    budget: u64,
    rounds: usize,
) -> (f64, f64) {
    let (mut on, mut off) = (0f64, 0f64);
    for _ in 0..rounds {
        on = on.max(ff_round(prog, image, true, budget));
        off = off.max(ff_round(prog, image, false, budget));
    }
    (on, off)
}

fn bench_emulator(c: &mut Criterion) {
    // Two steady streaming workloads (libq's sweep, rotate's row copy)
    // and a branchy call-heavy one (gobmk, whose jalr-terminated traces
    // bound the worst case): the shapes that bound functional
    // fast-forward speed.
    // Each runs twice — decoded-superblock dispatch and the
    // per-instruction interpreter — so the block cache's speedup is a
    // number in every bench report.
    let mut g = c.benchmark_group("emulator");
    g.sample_size(20);
    for name in ["libq_like", "rotate_like", "gobmk_like"] {
        let prog = Arc::new(by_name(name).unwrap().build(Scale::Tiny).program);
        let image = Arc::new(ImageMem::of(prog.image()));
        for (mode, blocks) in [("blocks", true), ("interp", false)] {
            // Loop the whole program if it is shorter than the budget:
            // the metric is emulated instructions per host second either
            // way.
            g.bench_function(format!("fast_forward_200k_{name}_{mode}"), |b| {
                b.iter(|| {
                    let mut executed = 0u64;
                    while executed < 200_000 {
                        let mut e = Emulator::with_image(Arc::clone(&prog), Arc::clone(&image));
                        e.set_block_cache(blocks);
                        executed += e.run(200_000 - executed);
                    }
                    black_box(executed)
                })
            });
        }
        // One explicit throughput line per workload (the vendored
        // criterion reports times, not rates): CI greps these into the
        // bench artifact to track fast-forward speed across commits.
        let (on, off) = ff_insts_per_sec(&prog, &image, 2_000_000, 5);
        println!(
            "fast_forward_throughput {name} blocks={on:.3e} insts/s \
             interp={off:.3e} insts/s speedup={:.2}x",
            on / off
        );
    }
    // Checkpoint capture + restore round trip mid-workload: the per-
    // interval planning cost.
    let prog = Arc::new(by_name("libq_like").unwrap().build(Scale::Tiny).program);
    let image = Arc::new(ImageMem::of(prog.image()));
    let mut em = Emulator::with_image(Arc::clone(&prog), Arc::clone(&image));
    em.run(100_000);
    g.bench_function("checkpoint_capture_restore", |b| {
        b.iter(|| {
            let ckpt = em.checkpoint();
            let resumed = Emulator::from_checkpoint(Arc::clone(&prog), Arc::clone(&image), &ckpt);
            black_box(resumed.icount())
        })
    });
    g.finish();
}

fn bench_obs(c: &mut Criterion) {
    // The telemetry layer's cost model, as numbers: a disabled probe
    // must be one relaxed load (nanoseconds over 100k calls), an
    // enabled span two clock reads plus a thread-local push.
    let mut g = c.benchmark_group("obs");
    g.sample_size(20);
    g.bench_function("span_disabled_100k", |b| {
        r3dla_obs::trace::set_recording(false);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                let sp = r3dla_obs::span!("bench", "span {i}");
                acc += sp.is_none() as u64;
            }
            black_box(acc)
        })
    });
    g.bench_function("span_enabled_10k", |b| {
        r3dla_obs::trace::set_recording(true);
        b.iter(|| {
            for i in 0..10_000u64 {
                let _sp = r3dla_obs::span!("bench", "span {i}");
                black_box(i);
            }
            // Drop the recorded events so the pool stays bounded.
            r3dla_obs::trace::reset();
        });
        r3dla_obs::trace::set_recording(false);
        r3dla_obs::trace::reset();
    });
    g.bench_function("counter_disabled_100k", |b| {
        r3dla_obs::counters::set_enabled(false);
        b.iter(|| {
            for _ in 0..100_000u64 {
                r3dla_obs::counters::add("bench.obs.cost", 1);
            }
            black_box(r3dla_obs::counters::get("bench.obs.cost"))
        })
    });
    g.bench_function("counter_enabled_100k", |b| {
        r3dla_obs::counters::set_enabled(true);
        b.iter(|| {
            for _ in 0..100_000u64 {
                r3dla_obs::counters::add("bench.obs.cost", 1);
            }
            black_box(r3dla_obs::counters::get("bench.obs.cost"))
        });
        r3dla_obs::counters::set_enabled(false);
        r3dla_obs::counters::reset();
    });
    g.finish();

    // Disabled probes against the real hot loop: the same Core::step
    // budget as the `core_step` group, chunked, with one disarmed span
    // and counter per chunk — the two variants must be in the noise of
    // each other (probe sites are free when telemetry is off).
    let wl = by_name("libq_like").unwrap();
    let mut g = c.benchmark_group("obs_disabled_overhead");
    g.sample_size(10);
    for (name, probed) in [
        ("core_step_20k_plain", false),
        ("core_step_20k_disabled_probes", true),
    ] {
        g.bench_function(name, |b| {
            r3dla_obs::trace::set_recording(false);
            r3dla_obs::counters::set_enabled(false);
            let built = Rc::new(RefCell::new(wl.build(Scale::Tiny)));
            b.iter(|| {
                let mut sim = SingleCoreSim::build(
                    &built.borrow(),
                    CoreConfig::paper(),
                    MemConfig::paper(),
                    None,
                    Some("bop"),
                );
                sim.set_fast_forward(true);
                for chunk in 1..=20u64 {
                    if probed {
                        let _sp = r3dla_obs::span!("bench", "chunk {chunk}");
                        r3dla_obs::counters::add("bench.obs.chunks", 1);
                    }
                    sim.run_until(chunk * 1_000, 2_000_000);
                }
                black_box(sim.core().committed(0))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_vecmem,
    bench_core_step,
    bench_prepare,
    bench_dla_system,
    bench_emulator,
    bench_obs
);
criterion_main!(benches);
