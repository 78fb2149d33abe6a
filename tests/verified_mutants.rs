//! The invariant untagged register words rest on: a kernel that passes
//! `gevo_ir::verify` never meets a type mismatch at run time.
//!
//! Registers hold raw 64-bit words whose types come from the kernel's
//! declarations, so the interpreter's typed lane loops are only sound
//! if the verifier type-checks every operand and destination the way
//! the evaluator reads and writes them. This test draws fixed-seed
//! random patches from the GA's own `MutationSpace` over every
//! workload's kernels and evaluates each one the verifier accepts: none
//! may fail with `ExecError::TypeMismatch`, and none may panic (a debug
//! build also asserts, on every register write, that the value's type
//! is the destination's declared type).
//!
//! The compiler picks a typed word function for every scalar
//! instruction from the verified kernel's types, and leaves a uniform
//! op it finds none for on the faulting per-lane path. The same mutants
//! pin that this never happens: every scalar instruction of every
//! verified mutant gets a typed function.

use gevo_repro::engine::{FaultClass, MutationSpace, MutationWeights};
use gevo_repro::ir::verify::verify;
use gevo_repro::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Draws `n` patches of one to four edits, evaluates the verified ones
/// and returns how many ran.
fn check_workload(w: &dyn Workload, seed: u64, n: usize) -> usize {
    let space = MutationSpace::new(w.kernels(), MutationWeights::default());
    let spec = GpuSpec::p100().scaled(8);
    let ev = Evaluator::new(w);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ran = 0;
    for i in 0..n {
        let mut patch = Patch::empty();
        for _ in 0..rng.gen_range(1..=4usize) {
            space.mutate(&mut patch, &mut rng);
        }
        let (kernels, _) = patch.apply(w.kernels());
        if kernels.iter().any(|k| verify(k).is_err()) {
            continue;
        }
        for k in &kernels {
            let compiled = CompiledKernel::compile(k, &spec).expect("verified kernels compile");
            assert_eq!(
                compiled.untyped_scalar_count(),
                0,
                "{} mutant {i} ({patch:?}): kernel {} has a scalar op with no typed function",
                w.name(),
                k.name
            );
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
