//! The shared variant screening/lowering pipeline.
//!
//! Both evolvable workloads (ADEPT and `SIMCoV`) prepare a mutated
//! variant the same way before it touches the simulator; keeping the
//! sequence in one place keeps "fails to compile" semantics identical
//! across workloads, and so does the per-block step budget every
//! fitness evaluation runs under (`step_budget`).

use gevo_engine::FaultClass;
use gevo_gpu::{CompiledKernel, ExecError, ExecScratch, Gpu, GpuSpec};
use gevo_ir::Kernel;
use std::sync::Mutex;

/// A failed run: the class named where the fault arose, plus the
/// failure text the outcome carries. Interpreter errors take their
/// class from `FaultClass::from(&ExecError)`; oracle rejections are
/// [`FaultClass::Mismatch`].
pub(crate) type Failure = (FaultClass, String);

/// An interpreter error (e.g. a failed device allocation) as a
/// [`Failure`] carrying the error's own text. Takes the error by value
/// so it can be passed straight to `map_err`.
#[allow(clippy::needless_pass_by_value)]
pub(crate) fn exec_failure(e: ExecError) -> Failure {
    (FaultClass::from(&e), e.to_string())
}

/// Recycled [`ExecScratch`]es shared across a workload's fitness
/// evaluations.
///
/// Each evaluation builds a fresh [`Gpu`] (device memory and L2 must
/// start cold for determinism) but the execution scratch carries no
/// semantic state, so its warp records, register files and buffers are
/// handed from one evaluation's device to the next — the steady state
/// of a GA run re-allocates nothing per evaluation. Bounded so a burst
/// of parallel workers cannot grow the pool without limit; a miss just
/// means one evaluation warms a fresh scratch.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<ExecScratch>>,
}

/// Upper bound on pooled scratches (≥ any sane `GEVO_THREADS`).
const SCRATCH_POOL_CAP: usize = 8;

impl ScratchPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// A device with the given spec, adopting a pooled scratch when one
    /// is available.
    #[must_use]
    pub fn device(&self, spec: GpuSpec) -> Gpu {
        let scratch = self
            .pool
            .lock()
            .expect("scratch pool")
            .pop()
            .unwrap_or_default();
        Gpu::with_scratch(spec, scratch)
    }

    /// Returns a finished device's scratch to the pool (dropped if the
    /// pool is full).
    pub fn recycle(&self, gpu: &mut Gpu) {
        let mut pool = self.pool.lock().expect("scratch pool");
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(gpu.take_scratch());
        }
    }

    /// Scratches currently pooled (observability for tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pool.lock().expect("scratch pool").len()
    }

    /// True when nothing is pooled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fitness runs kill a block after this multiple of the pristine
/// program's largest per-block step count (GEVO's timeout scaled to the
/// original program, paper §III-E).
pub(crate) const STEP_BUDGET_FACTOR: u64 = 4;

/// Lower bound on the fitness step budget, so a pristine program with
/// tiny blocks still leaves variants room to run.
pub(crate) const STEP_BUDGET_FLOOR: u64 = 10_000;

/// The per-block step limit for fitness evaluations:
/// `max(STEP_BUDGET_FACTOR × pristine_peak, min(STEP_BUDGET_FLOOR, ceiling))`.
///
/// `pristine_peak` is [`Gpu::peak_block_steps`] after the pristine
/// program's own check run, which runs with no step limit: the pristine
/// kernels are this crate's own reference, and GEVO times the original
/// program without a timeout. The budget therefore keeps its
/// `STEP_BUDGET_FACTOR` headroom over a correct pristine program even
/// above the spec's absolute [`GpuSpec::step_limit`] (`ceiling`), which
/// only caps the floor.
#[must_use]
pub(crate) fn step_budget(pristine_peak: u64, ceiling: u64) -> u64 {
    STEP_BUDGET_FACTOR
        .saturating_mul(pristine_peak)
        .max(STEP_BUDGET_FLOOR.min(ceiling))
}

/// The per-block step limit for held-out validation:
/// `max(ceiling, step_budget(pristine_peak, ceiling))`.
///
/// Held-out inputs differ from the fitness inputs, so the fitness peak
/// does not carry over: `pristine_peak` is measured by running the
/// pristine program on the held-out inputs with no step limit. The
/// spec's absolute ceiling stays a floor, so a variant that finishes
/// under the ceiling keeps its verdict, and a pristine program longer
/// than the ceiling still passes its own held-out check.
#[must_use]
pub(crate) fn heldout_step_limit(pristine_peak: u64, ceiling: u64) -> u64 {
    step_budget(pristine_peak, ceiling).max(ceiling)
}

/// Screens and lowers a variant for launching: structural verification
/// first (cheap rejection of broken variants, GEVO's "fails to
/// compile"), then backend DCE (GEVO hands the variant back to LLVM
/// before codegen: dead code introduced by condition replacement
/// disappears here), then compile-once lowering against the workload's
/// spec. Verification runs **before** DCE on purpose — a variant's
/// validity must not depend on whether its broken instruction happened
/// to be dead.
///
/// # Errors
/// The first defect found, formatted as the `verify: …` failure string
/// fitness outcomes have always carried.
pub fn compile_variant(kernels: &[Kernel], spec: &GpuSpec) -> Result<Vec<CompiledKernel>, String> {
    for k in kernels {
        if let Err(e) = gevo_ir::verify::verify(k) {
            return Err(format!("verify: {e}"));
        }
    }
    let mut kernels: Vec<Kernel> = kernels.to_vec();
    for k in &mut kernels {
        let _ = gevo_ir::transform::dce(k);
    }
    kernels
        .iter()
        .map(|k| CompiledKernel::compile(k, spec).map_err(|e| format!("verify: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_ir::{AddrSpace, KernelBuilder, Operand, Special};

    fn tiny_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let dead = b.add(tid.into(), Operand::ImmI32(1));
        let _ = dead;
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        b.finish()
    }

    #[test]
    fn lowers_and_dces() {
        let k = tiny_kernel();
        let spec = gevo_gpu::GpuSpec::p100().scaled(8);
        let compiled = compile_variant(std::slice::from_ref(&k), &spec).expect("valid");
        assert_eq!(compiled.len(), 1);
        assert!(
            compiled[0].inst_count() < k.inst_count(),
            "dead add is gone after DCE"
        );
    }

    #[test]
    fn scratch_pool_recycles_up_to_cap() {
        let pool = ScratchPool::new();
        assert!(pool.is_empty());
        let spec = gevo_gpu::GpuSpec::p100().scaled(8);
        let mut gpus: Vec<_> = (0..SCRATCH_POOL_CAP + 2)
            .map(|_| pool.device(spec.clone()))
            .collect();
        for gpu in &mut gpus {
            pool.recycle(gpu);
        }
        assert_eq!(pool.len(), SCRATCH_POOL_CAP, "bounded");
        let _ = pool.device(spec);
        assert_eq!(pool.len(), SCRATCH_POOL_CAP - 1, "device() pops");
    }

    #[test]
    fn step_budget_keeps_four_times_the_pristine_peak() {
        assert_eq!(step_budget(100_000, 8_000_000), 400_000);
        assert_eq!(step_budget(10, 8_000_000), STEP_BUDGET_FLOOR);
        assert_eq!(
            step_budget(5_000_000, 8_000_000),
            20_000_000,
            "a pristine program longer than the ceiling keeps its headroom"
        );
        assert_eq!(step_budget(u64::MAX, 8_000_000), u64::MAX);
        assert_eq!(step_budget(10, 5_000), 5_000, "the ceiling beats the floor");
    }

    #[test]
    fn broken_variants_fail_with_verify_prefix() {
        let mut k = tiny_kernel();
        k.blocks[0].instrs[0].args.clear();
        let spec = gevo_gpu::GpuSpec::p100().scaled(8);
        let err = compile_variant(std::slice::from_ref(&k), &spec).unwrap_err();
        assert!(err.starts_with("verify:"), "{err}");
    }
}
