//! The toy workload the GA unit tests evolve.

use crate::fitness::{EvalOutcome, FaultClass, Workload};
use gevo_gpu::LaunchStats;
use gevo_ir::{AddrSpace, Kernel, KernelBuilder, Operand, Special};

/// Toy workload with a known optimum: fitness = 100 + 10 per remaining
/// deletable instruction; the store must survive.
pub(crate) struct Toy {
    kernels: Vec<Kernel>,
    store_id: gevo_ir::InstId,
}

impl Toy {
    pub(crate) fn new() -> Toy {
        let mut b = KernelBuilder::new("toy");
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        // Dead code the GA should learn to delete.
        let mut acc = b.mov(Operand::ImmI32(0));
        for _ in 0..6 {
            acc = b.add(acc.into(), Operand::ImmI32(1));
        }
        let _ = acc;
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        let store_probe = b.peek_next_id();
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        Toy {
            kernels: vec![b.finish()],
            store_id: store_probe,
        }
    }
}

impl Workload for Toy {
    fn name(&self) -> &'static str {
        "toy"
    }
    fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }
    fn evaluate(&self, kernels: &[Kernel], _seed: u64) -> EvalOutcome {
        let k = &kernels[0];
        if k.locate(self.store_id).is_none() {
            return EvalOutcome::fail(FaultClass::Mismatch, "store deleted");
        }
        // Verify like the simulator would.
        if gevo_ir::verify::verify(k).is_err() {
            return EvalOutcome::fail(FaultClass::Verify, "verification");
        }
        #[allow(clippy::cast_precision_loss)]
        let f = 100.0 + 10.0 * k.inst_count() as f64;
        EvalOutcome::pass(f, LaunchStats::default())
    }
}
