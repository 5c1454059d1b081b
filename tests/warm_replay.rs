//! The sampler's warm replay skips a cache touch that repeats the kind
//! and line of the previous one (`apply_cache_touches`). Replaying a
//! real touch stream with and without the skipped touches must leave
//! the same lines resident in every set, in the same LRU victim order,
//! in a lone cache, in a core's hierarchy (TLB included), and in both
//! cores and the shared L3 of a DLA system.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use r3dla::core::{DlaConfig, DlaSystem, SkeletonOptions};
use r3dla::mem::{Cache, CacheConfig, CoreMem, MemConfig, SharedLlc};
use r3dla::sample::{apply_cache_touches, plan_intervals, SampleSpec, Touch, WarmTarget};
use r3dla::workloads::{by_name, Scale};

const WORKLOAD: &str = "gobmk_like";

/// The functional-warmup touches before the second interval of
/// `WORKLOAD`, as the sampler records them.
fn touch_stream() -> Vec<Touch> {
    let program = Arc::new(by_name(WORKLOAD).unwrap().build(Scale::Tiny).program);
    let spec = SampleSpec::parse("2:2000:functional:20000").unwrap();
    let plan = plan_intervals(&program, &spec);
    plan.into_iter().last().expect("an interval").warm
}

/// Replays every cache touch of `touches`, skipping none.
fn apply_every_touch<T: WarmTarget>(target: &mut T, touches: &[Touch]) {
    for t in touches {
        match *t {
            Touch::Inst(pc) => target.warm_inst(pc),
            Touch::Data(addr) => target.warm_data(addr),
            Touch::Branch { .. } => {}
        }
    }
}

/// Replays the stream into two fresh targets from `make`, one skipping
/// the repeated touches and one taking every touch, and returns the
/// `state` of each.
fn both_ways<T: WarmTarget, S>(make: impl Fn() -> T, state: impl Fn(&T) -> S) -> (S, S) {
    let touches = touch_stream();
    let (mut skipping, mut every) = (make(), make());
    apply_cache_touches(&mut skipping, &touches);
    apply_every_touch(&mut every, &touches);
    (state(&skipping), state(&every))
}

/// A lone L1-sized cache: instruction and data touches both touch it.
struct OneCache(Cache);

impl WarmTarget for OneCache {
    fn warm_data(&mut self, addr: u64) {
        self.0.touch(addr);
    }

    fn warm_inst(&mut self, pc: u64) {
        self.0.touch(pc);
    }

    fn warm_branch(&mut self, _pc: u64, _taken: bool) {}
}

/// One core's private hierarchy over its own L3.
struct OneCore(CoreMem);

impl WarmTarget for OneCore {
    fn warm_data(&mut self, addr: u64) {
        self.0.warm_data(addr);
    }

    fn warm_inst(&mut self, pc: u64) {
        self.0.warm_inst(pc);
    }

    fn warm_branch(&mut self, _pc: u64, _taken: bool) {}
}

fn l3_order(mem: &CoreMem) -> Vec<Vec<u64>> {
    mem.shared().borrow().l3().victim_order()
}

#[test]
fn the_stream_has_repeated_touches_to_skip() {
    let touches = touch_stream();
    let cache_touches: Vec<_> = touches
        .iter()
        .filter_map(|t| match *t {
            Touch::Inst(a) => Some((true, a & !63)),
            Touch::Data(a) => Some((false, a & !63)),
            Touch::Branch { .. } => None,
        })
        .collect();
    // About half do; a quarter is plenty for the tests below to bite.
    let repeats = cache_touches.windows(2).filter(|w| w[0] == w[1]).count();
    assert!(
        repeats * 4 > cache_touches.len(),
        "{repeats} of {} cache touches repeat the previous one",
        cache_touches.len()
    );
}

#[test]
fn a_lone_cache_keeps_its_victim_order() {
    let (skipping, every) = both_ways(
        || OneCache(Cache::new(CacheConfig::l1())),
        |c| c.0.victim_order(),
    );
    assert!(skipping.iter().any(|set| set.len() > 1));
    assert_eq!(skipping, every);
}

#[test]
fn a_core_hierarchy_keeps_its_victim_order() {
    let (skipping, every) = both_ways(
        || {
            let cfg = MemConfig::paper();
            let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg)));
            OneCore(CoreMem::new(&cfg, shared))
        },
        |m| (m.0.victim_order(), l3_order(&m.0)),
    );
    assert_eq!(skipping, every);
}

#[test]
fn a_dla_system_keeps_its_victim_order() {
    let built = by_name(WORKLOAD).unwrap().build(Scale::Tiny);
    let mut cfg = DlaConfig::dla();
    cfg.profile_insts = 20_000;
    let base = DlaSystem::build(&built, cfg.clone(), SkeletonOptions::default()).unwrap();
    let (skipping, every) = both_ways(
        || {
            DlaSystem::assemble(
                Arc::clone(base.program()),
                cfg.clone(),
                base.active_skeleton().set().clone(),
                Arc::clone(&base.profile),
            )
        },
        |sys| {
            (
                sys.mt().mem().victim_order(),
                sys.lt().mem().victim_order(),
                l3_order(sys.mt().mem()),
            )
        },
    );
    assert_eq!(skipping, every);
}
