//! Multi-tenant co-scheduling: two R3-DLA systems share one LLC/DRAM and
//! run in one cluster under a single global clock. Each
//! tenant is measured solo first, so the printout shows what LLC/DRAM
//! contention costs each workload.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use r3dla::core::{Cluster, DlaConfig, DlaSystem, SkeletonOptions};
use r3dla::mem::SharedLlc;
use r3dla::workloads::{by_name, Scale};

const WARM: u64 = 10_000;
const WIN: u64 = 50_000;

fn main() {
    // A bandwidth-hungry streaming kernel next to a pointer chaser: the
    // classic noisy-neighbour pairing.
    let names = ["libq_like", "mcf_like"];
    let built: Vec<_> = names
        .iter()
        .map(|n| by_name(n).expect("known workload").build(Scale::Train))
        .collect();

    // Solo runs: each system owns its whole memory hierarchy.
    let solo: Vec<f64> = built
        .iter()
        .map(|wl| {
            DlaSystem::build(wl, DlaConfig::r3(), SkeletonOptions::default())
                .expect("system builds")
                .measure(WARM, WIN)
                .mt_ipc
        })
        .collect();

    // Shared run: both systems are assembled over the same SharedLlc
    // handle and pushed into one cluster, which interleaves them in
    // global-time order; a pending fill (either tenant's) bounds the
    // other's skip window, so cross-tenant wakeups are honoured.
    let cfg = DlaConfig::r3();
    let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg.mem)));
    let mut cluster = Cluster::with_shared(shared.clone());
    for wl in &built {
        cluster.push(
            DlaSystem::build_shared(wl, cfg.clone(), SkeletonOptions::default(), shared.clone())
                .expect("system builds"),
        );
    }
    let reports = cluster.measure_each(WARM, WIN);

    println!("tenant        solo IPC   shared IPC   slowdown   dram lines (shared channel)");
    for ((name, solo_ipc), report) in names.iter().zip(&solo).zip(&reports) {
        println!(
            "{name:<12}  {solo_ipc:>8.3}   {:>10.3}   {:>7.2}x   {:>10}",
            report.mt_ipc,
            solo_ipc / report.mt_ipc.max(1e-9),
            report.dram_traffic,
        );
    }
    let total: u64 = reports.iter().map(|r| r.mt_committed).sum();
    println!(
        "\ncluster committed {total} instructions across {} tenants",
        reports.len()
    );
}
