#![warn(missing_docs)]
//! R3-DLA: the paper's contribution — a decoupled look-ahead system with
//! the *reduce* (T1 offload), *reuse* (value + control-flow reuse) and
//! *recycle* (skeleton cycling) optimizations, built on the `r3dla-cpu`
//! out-of-order core and `r3dla-mem` hierarchy.
//!
//! The moving parts, in paper order:
//!
//! * [`profile`] / [`Dataflow`] / [`generate_skeletons`] — the offline
//!   binary analysis of Appendix A: training-run profiling, reaching
//!   definitions, backward slicing, seed heuristics;
//! * [`Boq`] / [`FootnoteQueue`] — the queues of §III-A, which feed the
//!   main thread's front end;
//! * [`OverlayMem`] — look-ahead speculation containment;
//! * [`T1`] — the strided-prefetch offload FSM of §III-C;
//! * [`Sif`] / [`VrSource`] — value reuse of §III-D1;
//! * [`ActiveSkeleton`] / [`RecycleController`] — skeleton recycling of
//!   §III-E;
//! * [`DlaSystem`] — the assembled two-core system, which owns all of
//!   the above in one link and lends it to each core's step as that
//!   core's hooks; [`SingleCoreSim`] — the conventional baseline;
//! * [`MeasureTarget`] — the one run loop and measurement surface both
//!   systems implement; [`Cluster`] — the multi-tenant driver hosting N
//!   systems (shared LLC/DRAM) under one global clock, dispatching the
//!   earliest tenant first;
//! * [`ilp_limit`] — the Fig 1 implicit-parallelism limit study.
//!
//! # Examples
//!
//! ```
//! use r3dla_core::{DlaConfig, DlaSystem, SkeletonOptions};
//! use r3dla_workloads::{by_name, Scale};
//!
//! let wl = by_name("libq_like").unwrap().build(Scale::Tiny);
//! let mut sys = DlaSystem::build(&wl, DlaConfig::r3(), SkeletonOptions::default()).unwrap();
//! let report = sys.measure(5_000, 20_000);
//! assert!(report.mt_ipc > 0.0);
//! ```

mod cluster;
mod dataflow;
pub mod guard;
mod limit;
mod link;
mod overlay;
mod profile;
mod queues;
mod recycle;
mod skeleton;
mod static_tune;
mod system;
mod t1;
mod tunables;
mod value_reuse;

pub use cluster::Cluster;
pub use dataflow::{BitSet, Dataflow};
pub use guard::{CellGuard, Interrupt};
pub use limit::{ilp_limit, LimitModel, LimitResult};
pub use overlay::OverlayMem;
pub use profile::{
    dynamic_length, profile, profile_functional, profile_timing, timing_budget, ProfileData,
};
pub use queues::{Boq, BoqEntry, Footnote, FootnoteQueue};
pub use recycle::{ActiveSkeleton, RecycleController, RecycleMode};
pub use skeleton::{generate_skeletons, Skeleton, SkeletonOptions, SkeletonSet};
pub use static_tune::{build_static_tuned, static_recycle_mode, static_tune};
pub use system::{
    event_kernel_default, measure_window, BuildError, DlaConfig, DlaSystem, MeasureTarget,
    SingleCoreSim, SysSnapshot, WindowReport,
};
pub use t1::T1;
pub use value_reuse::{Sif, VrSource};
