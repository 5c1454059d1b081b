//! Microarchitectural warmup for sampled simulation.
//!
//! A restored checkpoint has exact architectural state but cold caches,
//! TLBs and branch predictors; measuring immediately would charge the
//! interval for misses the real machine would not see. [`WarmupMode`]
//! selects how that bias is paid down:
//!
//! * `None` — measure cold (fastest, biased low);
//! * `Functional(n)` — replay the last `n` instructions of the
//!   emulator's load/store/fetch stream before the interval as cache/TLB
//!   tag-array touches (no timing or statistics effects), then settle
//!   the predictor and pipeline with a short detailed pre-window (see
//!   [`apply_cache_touches`] for why predictors are not touch-warmed);
//! * `Detailed(n)` — run the detailed model for `n` cycles inside the
//!   interval before opening the measurement window (most faithful,
//!   costs detailed-simulation time).

use r3dla_core::{DlaSystem, SingleCoreSim};
use r3dla_isa::{MemKind, StepOut};

/// How a restored interval is warmed before measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmupMode {
    /// No warmup: measure on a cold microarchitecture.
    None,
    /// Functional touch-warming over the last `n` pre-interval
    /// instructions of the emulator stream.
    Functional(u64),
    /// `n` cycles of detailed execution before the window opens.
    Detailed(u64),
}

impl WarmupMode {
    /// Parses a warmup spec: `none`, `functional[:N]` or `detailed[:N]`.
    /// `detailed_insts` (the interval's measured length U) sizes the
    /// defaults: `functional` warms over 4·U instructions, `detailed`
    /// runs 4·U cycles.
    pub fn parse(s: &str, detailed_insts: u64) -> Option<Self> {
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        let n = |default: u64| -> Option<u64> {
            match arg {
                Some(a) => a.parse().ok(),
                None => Some(default),
            }
        };
        match kind {
            "none" => arg.is_none().then_some(WarmupMode::None),
            "functional" => Some(WarmupMode::Functional(n(4 * detailed_insts)?)),
            "detailed" => Some(WarmupMode::Detailed(n(4 * detailed_insts)?)),
            _ => None,
        }
    }

    /// Instructions of pre-interval emulator stream the planner must
    /// record for this mode.
    pub fn functional_insts(&self) -> u64 {
        match self {
            WarmupMode::Functional(n) => *n,
            _ => 0,
        }
    }
}

impl std::fmt::Display for WarmupMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmupMode::None => write!(f, "none"),
            WarmupMode::Functional(n) => write!(f, "functional:{n}"),
            WarmupMode::Detailed(n) => write!(f, "detailed:{n}"),
        }
    }
}

/// One microarchitecturally relevant event of the functional stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// An instruction fetch at this PC.
    Inst(u64),
    /// A data access (load or store) at this address.
    Data(u64),
    /// A conditional branch outcome.
    Branch {
        /// Branch PC.
        pc: u64,
        /// Architectural direction.
        taken: bool,
    },
}

/// Appends the touches of one emulator step to `sink` (every step
/// contributes its fetch; loads/stores and conditional branches add
/// their events).
pub fn record_touches(out: &StepOut, sink: &mut Vec<Touch>) {
    sink.push(Touch::Inst(out.pc));
    if let Some((kind, addr, _)) = out.mem {
        debug_assert!(matches!(kind, MemKind::Load | MemKind::Store));
        sink.push(Touch::Data(addr));
    }
    if let Some(taken) = out.taken {
        sink.push(Touch::Branch { pc: out.pc, taken });
    }
}

/// Anything that accepts functional warm touches. Implemented here for
/// both timing systems so the sampler warms them uniformly.
pub trait WarmTarget {
    /// Warm touch of the data path at `addr`.
    fn warm_data(&mut self, addr: u64);
    /// Warm touch of the instruction path at `pc`.
    fn warm_inst(&mut self, pc: u64);
    /// Predictor training with one architectural branch outcome.
    fn warm_branch(&mut self, pc: u64, taken: bool);
}

impl WarmTarget for DlaSystem {
    fn warm_data(&mut self, addr: u64) {
        DlaSystem::warm_data(self, addr);
    }

    fn warm_inst(&mut self, pc: u64) {
        DlaSystem::warm_inst(self, pc);
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        DlaSystem::warm_branch(self, pc, taken);
    }
}

impl WarmTarget for SingleCoreSim {
    fn warm_data(&mut self, addr: u64) {
        SingleCoreSim::warm_data(self, addr);
    }

    fn warm_inst(&mut self, pc: u64) {
        SingleCoreSim::warm_inst(self, pc);
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        SingleCoreSim::warm_branch(self, pc, taken);
    }
}

/// Replays a recorded touch stream into a warm target, in program order.
pub fn apply_touches<T: WarmTarget + ?Sized>(target: &mut T, touches: &[Touch]) {
    for t in touches {
        match *t {
            Touch::Inst(pc) => target.warm_inst(pc),
            Touch::Data(addr) => target.warm_data(addr),
            Touch::Branch { pc, taken } => target.warm_branch(pc, taken),
        }
    }
}

/// Replays only the cache/TLB touches of a stream (instruction and data
/// paths), leaving the branch predictor cold.
///
/// This is what the sampler's functional mode uses: training a
/// long-history TAGE on the *architecturally clean* outcome stream lets
/// it memorize data-dependent branch sequences no pipelined predictor
/// ever learns (clean history → tag hits → near-zero mispredicts → IPC
/// 2–3× above a continuous run's). Predictor and pipeline state are
/// settled with a short detailed pre-window instead; the
/// [`warm_branch`](WarmTarget::warm_branch) hook remains for
/// experiments that want the architectural-training behavior.
///
/// A touch is skipped when the previous touch that reached a cache was
/// of the same kind (instruction or data) and the same 64-byte line
/// (branch touches reach none). It would only re-stamp lines, and a TLB
/// page, that the previous touch left the most recent in every structure
/// it reaches, so residency and LRU victim order are the same either
/// way.
pub fn apply_cache_touches<T: WarmTarget + ?Sized>(target: &mut T, touches: &[Touch]) {
    let mut last = None;
    for t in touches {
        let (inst, addr) = match *t {
            Touch::Inst(pc) => (true, pc),
            Touch::Data(addr) => (false, addr),
            Touch::Branch { .. } => continue,
        };
        let key = Some((inst, r3dla_mem::line_of(addr)));
        if key == last {
            continue;
        }
        last = key;
        if inst {
            target.warm_inst(addr);
        } else {
            target.warm_data(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_forms() {
        assert_eq!(WarmupMode::parse("none", 5_000), Some(WarmupMode::None));
        assert_eq!(
            WarmupMode::parse("functional", 5_000),
            Some(WarmupMode::Functional(20_000))
        );
        assert_eq!(
            WarmupMode::parse("functional:123", 5_000),
            Some(WarmupMode::Functional(123))
        );
        assert_eq!(
            WarmupMode::parse("detailed:9", 5_000),
            Some(WarmupMode::Detailed(9))
        );
        assert_eq!(
            WarmupMode::parse("detailed", 1_000),
            Some(WarmupMode::Detailed(4_000))
        );
        assert_eq!(WarmupMode::parse("bogus", 5_000), None);
        assert_eq!(WarmupMode::parse("functional:x", 5_000), None);
        assert_eq!(WarmupMode::parse("none:4", 5_000), None);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for mode in [
            WarmupMode::None,
            WarmupMode::Functional(777),
            WarmupMode::Detailed(42),
        ] {
            let s = mode.to_string();
            assert_eq!(WarmupMode::parse(&s, 5_000), Some(mode), "{s}");
        }
    }

    #[test]
    fn touch_recording_covers_fetch_data_branch() {
        use r3dla_isa::{Inst, Op, Reg};
        let mut sink = Vec::new();
        let out = StepOut {
            inst: Inst {
                op: Op::Beq,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                imm: 0x40,
            },
            pc: 0x100,
            next_pc: 0x40,
            wrote: None,
            mem: Some((MemKind::Load, 0x2000_0000, 5)),
            taken: Some(true),
            halted: false,
        };
        record_touches(&out, &mut sink);
        assert_eq!(
            sink,
            vec![
                Touch::Inst(0x100),
                Touch::Data(0x2000_0000),
                Touch::Branch {
                    pc: 0x100,
                    taken: true
                },
            ]
        );
    }
}
