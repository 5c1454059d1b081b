//! Every workload must run to completion on the timing core and match
//! the functional executor — across the whole suite (the strongest
//! cross-crate correctness net we have).

use r3dla::cpu::{BaseHooks, Core, CoreConfig};
use r3dla::isa::{run, ArchState, Reg, VecMem};
use r3dla::mem::{CoreMem, MemConfig, SharedLlc};
use r3dla::workloads::{suite, Scale};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

#[test]
fn timing_core_matches_functional_on_every_workload() {
    for w in suite() {
        let built = w.build(Scale::Tiny);
        let program = Arc::new(built.program.clone());
        // Functional golden run.
        let mut st = ArchState::new(program.entry());
        let mut fm = VecMem::new();
        fm.load_image(program.image());
        let steps = run(&program, &mut st, &mut fm, 500_000_000).expect("halts");
        // Timing run.
        let shared = Rc::new(RefCell::new(SharedLlc::new(&MemConfig::paper())));
        let mem = CoreMem::new(&MemConfig::paper(), shared);
        let mut core = Core::new(CoreConfig::paper(), Arc::clone(&program), mem);
        let t = core.add_thread(program.entry(), ArchState::new(program.entry()).regs());
        core.run(&mut [BaseHooks::new(&program)], steps * 60 + 2_000_000);
        assert!(
            core.thread_halted(t),
            "{}: timing core did not halt",
            w.name
        );
        assert_eq!(core.committed(t), steps, "{}: instruction count", w.name);
        for r in 0..Reg::COUNT {
            assert_eq!(
                core.arch_regs(t)[r],
                st.regs()[r],
                "{}: register {r}",
                w.name
            );
        }
    }
}
