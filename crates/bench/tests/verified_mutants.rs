//! The invariant the interpreter rests on: a kernel that passes
//! `gevo_ir::verify` never meets a type mismatch at run time.
//!
//! The verifier is the one type check. Registers hold raw 64-bit words
//! whose types come from the kernel's declarations, the compiler picks
//! a typed function for every scalar instruction from those types (and
//! panics if it finds none), and the interpreter re-checks no operand
//! type. That is only sound if the verifier type-checks every operand
//! and destination the way the interpreter reads and writes them. These
//! tests draw fixed-seed random patches from the GA's own
//! `MutationSpace` and run every one the verifier accepts: none may
//! fail with `ExecError::TypeMismatch`, and none may panic (a debug
//! build also asserts, once per warp instruction, that a memory, warp
//! or folded op writes a register of the declared type it produces).

use gevo_bench::kernel_gen::random_kernel;
use gevo_engine::{Evaluator, FaultClass, MutationSpace, MutationWeights, Patch, Workload};
use gevo_gpu::{CompiledKernel, ExecError, Gpu, GpuSpec, KernelArg, LaunchConfig};
use gevo_ir::verify::verify;
use gevo_workloads::adept::{AdeptConfig, AdeptWorkload, Version};
use gevo_workloads::simcov::{SimcovConfig, SimcovWorkload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A patch of one to four edits drawn from `space`.
fn draw_patch(space: &MutationSpace, rng: &mut ChaCha8Rng) -> Patch {
    let mut patch = Patch::empty();
    for _ in 0..rng.gen_range(1..=4usize) {
        space.mutate(&mut patch, rng);
    }
    patch
}

/// Draws `n` patches over a workload's kernels, evaluates the verified
/// ones and returns how many ran.
fn check_workload(w: &dyn Workload, seed: u64, n: usize) -> usize {
    let space = MutationSpace::new(w.kernels(), MutationWeights::default());
    let spec = GpuSpec::p100().scaled(8);
    let ev = Evaluator::new(w);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ran = 0;
    for i in 0..n {
        let patch = draw_patch(&space, &mut rng);
        let (kernels, _) = patch.apply(w.kernels());
        if kernels.iter().any(|k| verify(k).is_err()) {
            continue;
        }
        for k in &kernels {
            // Panics if a scalar op of a verified kernel has no typed
            // function.
            CompiledKernel::compile(k, &spec).expect("verified kernels compile");
        }
        let out = ev.evaluate(&patch);
        let failure = out.failure.as_deref().unwrap_or("");
        assert!(
            !failure.contains("type mismatch") && out.fault != Some(FaultClass::Panic),
            "{} mutant {i} ({patch:?}) passed verify but failed with {:?}: {failure}",
            w.name(),
            out.fault
        );
        ran += 1;
    }
    ran
}

#[test]
fn verified_mutants_never_meet_a_type_mismatch() {
    let v0 = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let v1 = AdeptWorkload::new(AdeptConfig::scaled(Version::V1));
    let simcov = SimcovWorkload::new(SimcovConfig::scaled());
    let workloads: [(&dyn Workload, usize); 3] = [(&v0, 120), (&v1, 120), (&simcov, 40)];
    for (seed, (w, n)) in (1u64..).zip(workloads) {
        let ran = check_workload(w, seed, n);
        assert!(
            ran * 3 >= n,
            "{}: only {ran} of {n} mutants verified",
            w.name()
        );
    }
}

/// The same invariant over generated kernels, which reach every scalar
/// op at every operand type, the warp intrinsics, shared memory and a
/// barrier: patches of one to four edits over `random_kernel(seed, 24)`,
/// each verified one launched (two blocks of 13 threads) under
/// `catch_unwind`. Mutants fault often — out-of-bounds and misaligned
/// accesses, divergent barriers — but never with a type mismatch, and
/// never panic.
#[test]
fn verified_generated_mutants_never_panic() {
    let mut spec = GpuSpec::p100().scaled(8);
    spec.step_limit = 200_000;
    let cfg = LaunchConfig::new(2, 13);
    let (mut drawn, mut ran, mut clean) = (0usize, 0usize, 0usize);
    for seed in 0..200u64 {
        let pristine = [random_kernel(seed, 24)];
        let space = MutationSpace::new(&pristine, MutationWeights::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x007E_57ED);
        for i in 0..40 {
            let patch = draw_patch(&space, &mut rng);
            drawn += 1;
            let (kernels, _) = patch.apply(&pristine);
            if verify(&kernels[0]).is_err() {
                continue;
            }
            let launched = catch_unwind(AssertUnwindSafe(|| {
                let compiled =
                    CompiledKernel::compile(&kernels[0], &spec).expect("verified kernels compile");
                let mut gpu = Gpu::new(spec.clone());
                let out = gpu.mem_mut().alloc(26 * 4).expect("arena fits");
                gpu.launch_compiled(&compiled, cfg, &[KernelArg::from(out)])
            }));
            let Ok(result) = launched else {
                panic!("seed {seed} mutant {i} ({patch:?}) passed verify but panicked");
            };
            assert!(
                !matches!(result, Err(ExecError::TypeMismatch { .. })),
                "seed {seed} mutant {i} ({patch:?}) passed verify but failed with {result:?}"
            );
            ran += 1;
            clean += usize::from(result.is_ok());
        }
    }
    assert!(ran * 2 >= drawn, "only {ran} of {drawn} mutants verified");
    assert!(
        clean > 0 && clean < ran,
        "{clean} of {ran} mutants ran clean: the faulting and clean paths both need exercising"
    );
}
