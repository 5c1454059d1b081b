//! Command-line entry point; see the library docs and `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::output::result_json;
use perfbench::{Args, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every thread of the run, the calibration sampler included, shares
    // one CPU (see `calib`).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = perfbench::calib::pin_to_one_cpu();
    // Scratch space for span traces and DSE caches, inside the checkout.
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = perfbench::run(&args, &work);
    let _ = std::fs::remove_dir(&root);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench: workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    match cpu {
        Some(c) => println!("pinned to cpu {c} of the {cpus} it could use"),
        None => println!("not pinned: the CPU affinity calls failed"),
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {:?} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.tally.notes {
        println!("FAIL {note}");
    }
    // JSON has no NaN or infinity: such a value prints as 0 and fails
    // the run.
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<_> = outcome
        .metrics
        .into_iter()
        .map(|mut m| {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
            m
        })
        .collect();
    let correct = outcome.tally.failed == 0 && finite;
    println!(
        "{}",
        result_json(
            correct,
            outcome.tally.attempted,
            outcome.tally.failed,
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
