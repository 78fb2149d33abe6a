//! Differential property tests for the optimizing lowering passes: on
//! randomly generated kernels, [`CompiledKernel::compile_with`] at `O2`
//! (warp-uniformity scalarization + constant folding) must be
//! **result-invisible** against the `O0` control arm — identical
//! [`LaunchStats`] (cold and warm L2), identical final device memory and
//! identical faults, on every spec of the paper's Table I. Random
//! single-edit chains drawn from the engine's own mutation operators pin
//! the same property across the whole reachable variant space.

use gevo_bench::kernel_gen::random_kernel;
use gevo_bench::scaled_table1_specs;
use gevo_engine::{MutationSpace, MutationWeights};
use gevo_gpu::{CompiledKernel, Gpu, GpuSpec, KernelArg, LaunchConfig, LaunchStats, OptLevel};
use gevo_ir::Kernel;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Launches a compiled image on a fresh device twice (cold and warm L2)
/// and returns both results plus the final output buffer. Evolved
/// variants fault routinely, so faults are part of the behaviour being
/// compared: the O0 and O2 images must fault identically.
type LaunchResults = Vec<Result<LaunchStats, gevo_gpu::ExecError>>;

fn launch_image(spec: &GpuSpec, image: &CompiledKernel) -> (LaunchResults, Vec<i32>) {
    const THREADS: u32 = 32;
    let cfg = LaunchConfig::new(2, 16);
    let mut gpu = Gpu::new(spec.clone());
    let out = gpu.mem_mut().alloc(u64::from(THREADS) * 4).expect("alloc");
    let args = [KernelArg::from(out)];
    let s1 = gpu.launch_compiled(image, cfg, &args);
    let s2 = gpu.launch_compiled(image, cfg, &args);
    (vec![s1, s2], gpu.mem().read_i32s(out, 0, THREADS as usize))
}

/// Compiles `kernel` at both levels on `spec` and checks the full
/// observable surface: stats, faults and memory.
fn check_arms(spec: &GpuSpec, kernel: &Kernel) -> Result<(), String> {
    let o0 = CompiledKernel::compile_with(kernel, spec, OptLevel::O0).expect("verified kernel");
    let o2 = CompiledKernel::compile_with(kernel, spec, OptLevel::O2).expect("verified kernel");
    let (s0, m0) = launch_image(spec, &o0);
    let (s2, m2) = launch_image(spec, &o2);
    prop_assert!(
        s0 == s2,
        "LaunchStats diverge between O0 and O2 on {}",
        spec.name
    );
    prop_assert!(
        m0 == m2,
        "memory diverges between O0 and O2 on {}",
        spec.name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x0B71_F01D))]

    /// O2 is result-invisible on random kernels across all three
    /// Table-I specs: identical stats, faults and memory.
    #[test]
    fn o2_matches_o0_on_random_kernels(
        seed in 0u64..u64::MAX,
        n_ops in 0u64..32,
    ) {
        let kernel = random_kernel(seed, n_ops);
        for spec in scaled_table1_specs() {
            check_arms(&spec, &kernel)?;
        }
    }

    /// The same invisibility holds along random mutation chains — every
    /// verifiable variant the GA can reach lowers identically under O0
    /// and O2.
    #[test]
    fn o2_matches_o0_along_mutation_chains(
        seed in 0u64..u64::MAX,
        n_ops in 4u64..24,
        chain_len in 1usize..6,
    ) {
        let pristine = vec![random_kernel(seed, n_ops)];
        let space = MutationSpace::new(&pristine, MutationWeights::default());
        let spec = &scaled_table1_specs()[0];
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0002_D1FF);
        let mut kernel = pristine[0].clone();
        for _ in 0..chain_len {
            let Some(edit) = space.sample(&mut rng) else { break };
            let mut next = kernel.clone();
            edit.apply(&mut next);
            if gevo_ir::verify::verify(&next).is_err() {
                continue;
            }
            check_arms(spec, &next)?;
            kernel = next;
        }
    }

    /// Long local-operator chains (deletes, operand and condition
    /// replacements — the edits that fold constants and flip uniformity
    /// facts most often) keep O0 and O2 in lockstep at every step.
    #[test]
    fn o2_local_chains_stay_in_sync(
        seed in 0u64..u64::MAX,
        chain_len in 4usize..12,
    ) {
        let pristine = vec![random_kernel(seed, 16)];
        let local = MutationWeights {
            delete: 0.4,
            operand_replace: 0.4,
            cond_replace: 0.2,
            copy: 0.0,
            mov: 0.0,
            swap: 0.0,
            replace: 0.0,
        };
        let space = MutationSpace::new(&pristine, local);
        let spec = &scaled_table1_specs()[0];
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0004_10CA);
        let mut kernel = pristine[0].clone();
        for _ in 0..chain_len {
            let Some(edit) = space.sample(&mut rng) else { break };
            let mut next = kernel.clone();
            edit.apply(&mut next);
            if gevo_ir::verify::verify(&next).is_err() {
                continue;
            }
            check_arms(spec, &next)?;
            kernel = next;
        }
    }
}
