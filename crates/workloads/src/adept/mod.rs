//! The ADEPT sequence-alignment workload (paper §II-B, §III).
//!
//! Two versions, as in the paper:
//!
//! * [`Version::V0`] — the original parallel implementation (one kernel);
//! * [`Version::V1`] — the expert hand-tuned implementation (forward +
//!   reverse kernels, warp shuffles + shared-memory handoff).
//!
//! Fitness follows §III-E: total kernel cycles over the test batch;
//! validation is **strict** — every pair's (score, end, start) must match
//! the CPU oracle exactly (§III-C requires 100% accuracy).

pub mod v0;
pub mod v1;

use crate::pipeline::{exec_failure, heldout_step_limit, step_budget, Failure, ScratchPool};
use crate::seqgen::{SeqGen, SeqPair};
use crate::sw_cpu::{self, Alignment};
use gevo_engine::{Edit, EvalOutcome, FaultClass, Patch, Workload};
use gevo_gpu::{CompiledKernel, Gpu, GpuSpec, KernelArg, LaunchConfig, LaunchStats};
use gevo_ir::{Kernel, Operand};

pub use v0::V0Sites;
pub use v1::{Dir, V1Sites};

/// Which development stage of ADEPT to optimize (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Naive first GPU port.
    V0,
    /// Expert hand-tuned implementation.
    V1,
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct AdeptConfig {
    /// V0 or V1.
    pub version: Version,
    /// Alignment pairs in the fitness batch (the paper uses 30k; scaled
    /// runs use a handful — DESIGN.md §4.4).
    pub pairs: usize,
    /// Minimum sequence length.
    pub min_len: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Seed for test-data generation.
    pub data_seed: u64,
    /// The simulated GPU to evaluate on.
    pub spec: GpuSpec,
    /// V0's redundant-init sweep count (§VI-C knob).
    pub init_sweeps: u32,
}

impl AdeptConfig {
    /// Laptop-scale search configuration on a scaled spec (8-lane warps,
    /// so cross-warp and intra-warp exchange paths are both exercised).
    #[must_use]
    pub fn scaled(version: Version) -> AdeptConfig {
        let mut spec = GpuSpec::p100().scaled(8);
        spec.device_mem_bytes = 1 << 20;
        AdeptConfig {
            version,
            // A multiple of the scaled spec's SM count, so every block
            // sits on the launch's critical path and fitness reflects
            // every pair (unbalanced grids hide per-block improvements).
            pairs: 8,
            min_len: 22,
            max_len: 32,
            data_seed: 0xADE9,
            spec,
            init_sweeps: 3,
        }
    }

    /// Same config with a different GPU spec (keeps the arena size).
    #[must_use]
    pub fn with_spec(mut self, spec: GpuSpec) -> AdeptConfig {
        let arena = self.spec.device_mem_bytes;
        self.spec = spec;
        self.spec.device_mem_bytes = arena;
        self
    }
}

/// Flattened device-ready test batch plus oracle expectations.
#[derive(Debug, Clone)]
struct TestData {
    seq_a: Vec<i32>,
    seq_b: Vec<i32>,
    offs_a: Vec<i32>,
    offs_b: Vec<i32>,
    lens_a: Vec<i32>,
    lens_b: Vec<i32>,
    expected_fwd: Vec<Alignment>,
    expected_rev: Vec<Alignment>,
}

impl TestData {
    fn build(pairs: &[SeqPair]) -> TestData {
        let mut data = TestData {
            seq_a: Vec::new(),
            seq_b: Vec::new(),
            offs_a: Vec::new(),
            offs_b: Vec::new(),
            lens_a: Vec::new(),
            lens_b: Vec::new(),
            expected_fwd: Vec::new(),
            expected_rev: Vec::new(),
        };
        for p in pairs {
            #[allow(clippy::cast_possible_wrap)]
            {
                data.offs_a.push(data.seq_a.len() as i32);
                data.offs_b.push(data.seq_b.len() as i32);
                data.lens_a.push(p.a.len() as i32);
                data.lens_b.push(p.b.len() as i32);
            }
            data.seq_a.extend(p.a.iter().map(|&x| i32::from(x)));
            data.seq_b.extend(p.b.iter().map(|&x| i32::from(x)));
            let fwd = sw_cpu::smith_waterman(&p.a, &p.b);
            let rev = sw_cpu::smith_waterman_reverse(&p.a, &p.b, fwd);
            data.expected_fwd.push(fwd);
            data.expected_rev.push(rev);
        }
        data
    }

    fn max_len_b(&self) -> u32 {
        #[allow(clippy::cast_sign_loss)]
        self.lens_b.iter().map(|&l| l as u32).max().unwrap_or(1)
    }
}

/// Either version of ADEPT as an evolvable [`Workload`].
#[derive(Debug)]
pub struct AdeptWorkload {
    cfg: AdeptConfig,
    kernels: Vec<Kernel>,
    data: TestData,
    block_threads: u32,
    v0_sites: Option<V0Sites>,
    v1_sites: Vec<V1Sites>,
    name: String,
    /// Per-block step limit of fitness evaluations, measured from the
    /// pristine check run ([`step_budget`]).
    step_budget: u64,
    /// Execution scratches recycled across fitness evaluations (each
    /// evaluation runs on a fresh device but reuses warm allocations).
    scratch: ScratchPool,
}

impl AdeptWorkload {
    /// Builds the workload: generates the batch, computes oracle
    /// expectations and constructs the version's kernels. The pristine
    /// kernels' check run, with no step limit, also measures the fitness
    /// step budget (`pipeline::step_budget`).
    ///
    /// # Panics
    /// Panics if the pristine kernels fail their own test batch — that is
    /// a bug in this crate, caught immediately at construction.
    #[must_use]
    pub fn new(cfg: AdeptConfig) -> AdeptWorkload {
        let pairs = SeqGen::new(cfg.data_seed).pairs(cfg.pairs, cfg.min_len, cfg.max_len);
        let data = TestData::build(&pairs);
        let block_threads = data.max_len_b().next_multiple_of(cfg.spec.warp_size);
        let (kernels, v0_sites, v1_sites) = match cfg.version {
            Version::V0 => {
                let (k, s) = v0::build_v0(block_threads, cfg.init_sweeps);
                (vec![k], Some(s), Vec::new())
            }
            Version::V1 => {
                let (kf, sf) = v1::build_v1(block_threads, Dir::Forward);
                let (kr, sr) = v1::build_v1(block_threads, Dir::Reverse);
                (vec![kf, kr], None, vec![sf, sr])
            }
        };
        let name = match cfg.version {
            Version::V0 => format!("adept-v0[{}]", cfg.spec.name),
            Version::V1 => format!("adept-v1[{}]", cfg.spec.name),
        };
        let ceiling = cfg.spec.step_limit;
        let mut w = AdeptWorkload {
            cfg,
            kernels,
            data,
            block_threads,
            v0_sites,
            v1_sites,
            name,
            step_budget: ceiling,
            scratch: ScratchPool::new(),
        };
        let compiled = w
            .compile_variant(&w.kernels)
            .expect("pristine ADEPT kernels compile");
        let (check, peak) = w.fitness_run(&compiled, 0, u64::MAX);
        assert!(
            check.is_valid(),
            "pristine ADEPT kernels fail their own batch: {:?}",
            check.failure
        );
        w.step_budget = step_budget(peak, ceiling);
        w
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &AdeptConfig {
        &self.cfg
    }

    /// Threads per block the kernels were built for.
    #[must_use]
    pub fn block_threads(&self) -> u32 {
        self.block_threads
    }

    /// V0 inefficiency sites (None for V1).
    #[must_use]
    pub fn v0_sites(&self) -> Option<&V0Sites> {
        self.v0_sites.as_ref()
    }

    /// V1 sites, `[forward, reverse]` (empty for V0).
    #[must_use]
    pub fn v1_sites(&self) -> &[V1Sites] {
        &self.v1_sites
    }

    /// Screens and lowers a variant through the shared
    /// [`crate::pipeline::compile_variant`] pipeline (verify → DCE →
    /// compile-once) against this workload's spec.
    fn compile_variant(&self, kernels: &[Kernel]) -> Result<Vec<CompiledKernel>, String> {
        crate::pipeline::compile_variant(kernels, &self.cfg.spec)
    }

    /// Runs the fitness batch on a fresh device whose per-block step
    /// limit is `step_limit`, returning the outcome and the device's
    /// [`Gpu::peak_block_steps`].
    fn fitness_run(
        &self,
        compiled: &[CompiledKernel],
        seed: u64,
        step_limit: u64,
    ) -> (EvalOutcome, u64) {
        let (result, peak) = self.fresh_run(compiled, &self.data, seed, step_limit);
        let outcome = match result {
            Ok((cycles, stats)) => EvalOutcome::pass(cycles, stats),
            Err((class, reason)) => EvalOutcome::fail(class, reason),
        };
        (outcome, peak)
    }

    /// [`AdeptWorkload::run_batch`] on a fresh device whose per-block
    /// step limit is `step_limit`, returning the result and the
    /// device's [`Gpu::peak_block_steps`].
    fn fresh_run(
        &self,
        compiled: &[CompiledKernel],
        data: &TestData,
        seed: u64,
        step_limit: u64,
    ) -> (Result<(f64, LaunchStats), Failure>, u64) {
        let mut spec = self.cfg.spec.clone();
        spec.step_limit = step_limit;
        let mut gpu = self.scratch.device(spec);
        let result = self.run_batch(&mut gpu, compiled, data, seed);
        self.scratch.recycle(&mut gpu);
        (result, gpu.peak_block_steps())
    }

    /// Runs one batch on `gpu` (a fresh device with a pooled execution
    /// scratch); shared by fitness evaluation and held-out validation.
    /// A failure carries its class: the interpreter's for alloc and
    /// launch errors, [`FaultClass::Mismatch`] for the oracle's.
    fn run_batch(
        &self,
        gpu: &mut Gpu,
        kernels: &[CompiledKernel],
        data: &TestData,
        seed: u64,
    ) -> Result<(f64, LaunchStats), Failure> {
        #[allow(clippy::cast_possible_wrap)]
        let pairs = data.offs_a.len() as u32;
        let alloc = |gpu: &mut Gpu, bytes: u64| gpu.mem_mut().alloc(bytes).map_err(exec_failure);
        let alloc_i32 = |gpu: &mut Gpu, v: &[i32]| -> Result<gevo_gpu::Buffer, Failure> {
            let buf = alloc(gpu, (v.len().max(1) * 4) as u64)?;
            gpu.mem_mut().write_i32s(buf, 0, v);
            Ok(buf)
        };
        let seq_a = alloc_i32(gpu, &data.seq_a)?;
        let seq_b = alloc_i32(gpu, &data.seq_b)?;
        let offs_a = alloc_i32(gpu, &data.offs_a)?;
        let offs_b = alloc_i32(gpu, &data.offs_b)?;
        let lens_a = alloc_i32(gpu, &data.lens_a)?;
        let lens_b = alloc_i32(gpu, &data.lens_b)?;
        let out = alloc(gpu, u64::from(pairs) * 16)?;
        let scratch = alloc(gpu, u64::from(pairs) * u64::from(self.block_threads) * 4)?;

        let cfg = LaunchConfig::new(pairs, self.block_threads).with_seed(seed);
        let mut stats = LaunchStats::default();

        // Forward kernel.
        let fwd_args = [
            KernelArg::from(seq_a),
            KernelArg::from(seq_b),
            KernelArg::from(offs_a),
            KernelArg::from(offs_b),
            KernelArg::from(lens_a),
            KernelArg::from(lens_b),
            KernelArg::from(out),
            KernelArg::from(scratch),
        ];
        let s = gpu
            .launch_compiled(&kernels[0], cfg, &fwd_args)
            .map_err(|e| (FaultClass::from(&e), format!("forward kernel: {e}")))?;
        stats.accumulate(&s);
        let got = gpu.mem().read_i32s(out, 0, pairs as usize * 4);
        for (p, exp) in data.expected_fwd.iter().enumerate() {
            let (s, ea, eb) = (got[p * 4], got[p * 4 + 1], got[p * 4 + 2]);
            if s != exp.score || ea != exp.end_a || eb != exp.end_b {
                return Err((
                    FaultClass::Mismatch,
                    format!(
                        "pair {p}: forward got (score {s}, end {ea},{eb}), expected \
                         (score {}, end {},{})",
                        exp.score, exp.end_a, exp.end_b
                    ),
                ));
            }
        }

        // Reverse kernel (V1 only).
        if kernels.len() > 1 {
            let rev_out = alloc(gpu, u64::from(pairs) * 16)?;
            let rev_args = [
                KernelArg::from(seq_a),
                KernelArg::from(seq_b),
                KernelArg::from(offs_a),
                KernelArg::from(offs_b),
                KernelArg::from(lens_a),
                KernelArg::from(lens_b),
                KernelArg::from(out),
                KernelArg::from(rev_out),
                KernelArg::from(scratch),
            ];
            let s = gpu
                .launch_compiled(&kernels[1], cfg, &rev_args)
                .map_err(|e| (FaultClass::from(&e), format!("reverse kernel: {e}")))?;
            stats.accumulate(&s);
            let got = gpu.mem().read_i32s(rev_out, 0, pairs as usize * 4);
            for (p, exp) in data.expected_rev.iter().enumerate() {
                let (s, ea, eb) = (got[p * 4], got[p * 4 + 1], got[p * 4 + 2]);
                if s != exp.score || ea != exp.end_a || eb != exp.end_b {
                    return Err((
                        FaultClass::Mismatch,
                        format!(
                            "pair {p}: reverse got (score {s}, end {ea},{eb}), expected \
                             (score {}, end {},{})",
                            exp.score, exp.end_a, exp.end_b
                        ),
                    ));
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        Ok((stats.cycles as f64, stats))
    }

    /// Held-out validation (§III-C): a bigger, differently seeded batch,
    /// run at a step limit measured on that batch
    /// (`pipeline::heldout_step_limit`): the fitness budget was measured
    /// on a different batch.
    ///
    /// # Errors
    /// Returns the first mismatch or execution failure.
    pub fn validate_heldout(
        &self,
        kernels: &[Kernel],
        pairs: usize,
        data_seed: u64,
    ) -> Result<(), String> {
        let ps = SeqGen::new(data_seed).pairs(pairs, self.cfg.min_len, self.cfg.max_len);
        let data = TestData::build(&ps);
        if data.max_len_b().next_multiple_of(self.cfg.spec.warp_size) > self.block_threads {
            return Err("held-out batch exceeds the kernels' block size".into());
        }
        let compiled = self.compile_variant(kernels)?;
        let pristine = self
            .compile_variant(&self.kernels)
            .expect("pristine ADEPT kernels compile");
        let (_, peak) = self.fresh_run(&pristine, &data, 1, u64::MAX);
        let limit = heldout_step_limit(peak, self.cfg.spec.step_limit);
        let (result, _) = self.fresh_run(&compiled, &data, 1, limit);
        result.map(|_| ()).map_err(|(_, reason)| reason)
    }

    // ---- curated edits (DESIGN.md §4.5) --------------------------------

    /// The named optimization edits known to exist in this version, used
    /// by the ablation harnesses and to score GA discovery. Names follow
    /// the paper's numbering where one exists.
    #[must_use]
    pub fn labeled_edits(&self) -> Vec<(String, Edit)> {
        let mut out = Vec::new();
        if let Some(s) = &self.v0_sites {
            out.push((
                "v0:skip_init".into(),
                Edit::CondReplace {
                    kernel: 0,
                    term: s.init_branch,
                    new: Operand::ImmBool(false),
                },
            ));
            out.push((
                "v0:del_init_sync".into(),
                Edit::Delete {
                    kernel: 0,
                    target: s.init_sync,
                },
            ));
            out.push((
                "v0:del_reload".into(),
                Edit::Delete {
                    kernel: 0,
                    target: s.reload_sb,
                },
            ));
            out.push((
                "v0:del_dead_store".into(),
                Edit::Delete {
                    kernel: 0,
                    target: s.dead_store,
                },
            ));
        }
        for (ki, s) in self.v1_sites.iter().enumerate() {
            // Paper numbering: forward kernel carries edits 5/6/8/10, the
            // reverse kernel the (0, 11) pair.
            let (e_pub_sh, e_pub_loc, e_left, e_diag) = if ki == 0 {
                ("e5", "e6", "e8", "e10")
            } else {
                ("e_r5", "e0", "e11", "e_r10")
            };
            out.push((
                format!("v1:{e_pub_sh}"),
                Edit::CondReplace {
                    kernel: ki,
                    term: s.publish_sh_cond,
                    new: Operand::Reg(s.lane0_bool),
                },
            ));
            out.push((
                format!("v1:{e_pub_loc}"),
                Edit::CondReplace {
                    kernel: ki,
                    term: s.publish_local_cond,
                    new: Operand::Reg(s.valid_bool),
                },
            ));
            out.push((
                format!("v1:{e_left}"),
                Edit::CondReplace {
                    kernel: ki,
                    term: s.use_left_cond,
                    new: Operand::Reg(s.active_bool),
                },
            ));
            out.push((
                format!("v1:{e_diag}"),
                Edit::CondReplace {
                    kernel: ki,
                    term: s.use_diag_cond,
                    new: Operand::Reg(s.active_bool),
                },
            ));
            out.push((
                format!("v1:k{ki}:del_ballot"),
                Edit::Delete {
                    kernel: ki,
                    target: s.ballot,
                },
            ));
            out.push((
                format!("v1:k{ki}:del_activemask"),
                Edit::Delete {
                    kernel: ki,
                    target: s.activemask,
                },
            ));
            out.push((
                format!("v1:k{ki}:del_recompute"),
                Edit::Delete {
                    kernel: ki,
                    target: s.recompute,
                },
            ));
            out.push((
                format!("v1:k{ki}:del_dead_store"),
                Edit::Delete {
                    kernel: ki,
                    target: s.dead_store,
                },
            ));
            out.push((
                format!("v1:k{ki}:del_dead_load"),
                Edit::Delete {
                    kernel: ki,
                    target: s.dead_load,
                },
            ));
            out.push((
                format!("v1:k{ki}:del_dead_shfl"),
                Edit::Delete {
                    kernel: ki,
                    target: s.dead_shfl,
                },
            ));
        }
        out
    }

    /// Looks up a labeled edit by name.
    ///
    /// # Panics
    /// Panics on unknown names (harness bug).
    #[must_use]
    pub fn edit(&self, name: &str) -> Edit {
        self.labeled_edits()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or_else(|| panic!("no labeled edit named {name}"), |(_, e)| e)
    }

    /// The paper's Fig. 7 epistatic set: forward {5, 6, 8, 10} plus the
    /// reverse-kernel pair {0, 11}. (V1 only; empty for V0.)
    #[must_use]
    pub fn curated_epistatic(&self) -> Vec<Edit> {
        if self.v1_sites.is_empty() {
            return Vec::new();
        }
        ["v1:e5", "v1:e6", "v1:e8", "v1:e10", "v1:e0", "v1:e11"]
            .iter()
            .map(|n| self.edit(n))
            .collect()
    }

    /// The independent improvements for this version.
    #[must_use]
    pub fn curated_independent(&self) -> Vec<Edit> {
        match self.cfg.version {
            Version::V0 => [
                "v0:skip_init",
                "v0:del_init_sync",
                "v0:del_reload",
                "v0:del_dead_store",
            ]
            .iter()
            .map(|n| self.edit(n))
            .collect(),
            Version::V1 => [
                "v1:k0:del_ballot",
                "v1:k0:del_activemask",
                "v1:k0:del_recompute",
                "v1:k0:del_dead_store",
                "v1:k0:del_dead_load",
                "v1:k0:del_dead_shfl",
                "v1:k1:del_ballot",
                "v1:k1:del_recompute",
                "v1:k1:del_dead_store",
            ]
            .iter()
            .map(|n| self.edit(n))
            .collect(),
        }
    }

    /// Everything: the full curated optimization patch.
    #[must_use]
    pub fn curated_patch(&self) -> Patch {
        let mut edits = self.curated_epistatic();
        edits.extend(self.curated_independent());
        Patch::from_edits(edits)
    }
}

impl Workload for AdeptWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    fn evaluate(&self, kernels: &[Kernel], eval_seed: u64) -> EvalOutcome {
        match self.compile_variant(kernels) {
            Ok(compiled) => self.evaluate_compiled(&compiled, eval_seed),
            Err(reason) => EvalOutcome::fail(FaultClass::Verify, reason),
        }
    }

    fn compile(&self, kernels: &[Kernel]) -> Option<Result<Vec<CompiledKernel>, String>> {
        Some(self.compile_variant(kernels))
    }

    fn evaluate_compiled(&self, compiled: &[CompiledKernel], eval_seed: u64) -> EvalOutcome {
        self.fitness_run(compiled, eval_seed, self.step_budget).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_engine::Evaluator;

    fn v0() -> AdeptWorkload {
        AdeptWorkload::new(AdeptConfig::scaled(Version::V0))
    }

    fn v1() -> AdeptWorkload {
        AdeptWorkload::new(AdeptConfig::scaled(Version::V1))
    }

    /// The kernel's last global store: the result write.
    fn result_store(w: &AdeptWorkload) -> gevo_ir::InstId {
        w.kernels()[0]
            .iter_insts()
            .filter(|(_, i)| {
                matches!(
                    i.op,
                    gevo_ir::Op::Store {
                        space: gevo_ir::AddrSpace::Global,
                        ..
                    }
                )
            })
            .last()
            .map(|(_, i)| i.id)
            .unwrap()
    }

    #[test]
    fn pristine_v0_passes_and_is_deterministic() {
        let w = v0();
        let a = w.evaluate(w.kernels(), 0);
        let b = w.evaluate(w.kernels(), 0);
        assert!(a.is_valid());
        assert_eq!(a.fitness, b.fitness);
    }

    #[test]
    fn pristine_v1_passes() {
        let w = v1();
        let out = w.evaluate(w.kernels(), 0);
        assert!(out.is_valid(), "{:?}", out.failure);
    }

    #[test]
    fn v0_skip_init_is_a_huge_win() {
        let w = v0();
        let ev = Evaluator::new(&w);
        let p = Patch::from_edits(vec![w.edit("v0:skip_init")]);
        let s = ev.speedup(&p).expect("skipping redundant init is valid");
        assert!(s > 3.0, "init skip speedup {s}");
    }

    #[test]
    fn v0_curated_patch_hits_order_of_magnitude() {
        let w = v0();
        let ev = Evaluator::new(&w);
        let s = ev
            .speedup(&w.curated_patch())
            .expect("curated patch is valid");
        assert!(s > 5.0, "curated V0 speedup {s} (paper: ~30x)");
    }

    #[test]
    fn v1_epistatic_cluster_structure() {
        let w = v1();
        let ev = Evaluator::new(&w);
        // Consumers without the enabler fail (paper: edits 8/10 "cannot be
        // applied alone without edit 6").
        for lone in ["v1:e8", "v1:e10", "v1:e5", "v1:e11"] {
            let p = Patch::from_edits(vec![w.edit(lone)]);
            assert!(
                ev.fitness(&p).is_none(),
                "{lone} alone must fail validation"
            );
        }
        // The enabler alone is valid (and cheap).
        let p6 = Patch::from_edits(vec![w.edit("v1:e6")]);
        assert!(ev.fitness(&p6).is_some(), "e6 alone is valid");
        // Enabler + consumers is valid and faster than baseline.
        let cluster = Patch::from_edits(vec![
            w.edit("v1:e6"),
            w.edit("v1:e8"),
            w.edit("v1:e10"),
            w.edit("v1:e5"),
        ]);
        let s = ev.speedup(&cluster).expect("cluster is valid");
        assert!(s > 1.02, "forward cluster speedup {s}");
    }

    #[test]
    fn v1_reverse_pair_structure() {
        let w = v1();
        let ev = Evaluator::new(&w);
        let pair = Patch::from_edits(vec![w.edit("v1:e0"), w.edit("v1:e11")]);
        let s = ev.speedup(&pair).expect("(e0, e11) is valid");
        assert!(s > 1.0, "reverse pair speedup {s}");
    }

    #[test]
    fn v1_curated_patch_in_paper_band() {
        let w = v1();
        let ev = Evaluator::new(&w);
        let s = ev
            .speedup(&w.curated_patch())
            .expect("curated patch is valid");
        assert!(
            s > 1.08 && s < 2.0,
            "curated V1 speedup {s} (paper: ~1.28x)"
        );
    }

    #[test]
    fn heldout_validation_passes_pristine_and_curated() {
        let w = v1();
        w.validate_heldout(w.kernels(), 12, 777).expect("pristine");
        let (patched, _) = w.curated_patch().apply(w.kernels());
        w.validate_heldout(&patched, 12, 777).expect("curated");
    }

    #[test]
    fn step_budget_is_four_times_the_pristine_block_peak() {
        for (w, budget) in [(v0(), 1_727_712), (v1(), 57_976)] {
            let ceiling = w.config().spec.step_limit;
            assert_eq!(ceiling, 8_000_000);
            let compiled = w.compile_variant(w.kernels()).unwrap();
            let (_, peak) = w.fitness_run(&compiled, 0, ceiling);
            assert_eq!(w.step_budget, (4 * peak).clamp(10_000, ceiling));
            assert_eq!(w.step_budget, budget, "{}", w.name());
        }
    }

    #[test]
    fn pristine_longer_than_the_spec_ceiling_keeps_its_headroom() {
        // V0's pristine block peak is 431 928 steps, far above this
        // ceiling: the check run is not cut short, and the fitness
        // budget stays 4x that peak.
        let mut cfg = AdeptConfig::scaled(Version::V0);
        cfg.spec.step_limit = 100_000;
        let w = AdeptWorkload::new(cfg);
        assert_eq!(w.step_budget, 4 * 431_928);
        let out = Evaluator::new(&w).evaluate(&Patch::empty());
        assert!(out.is_valid(), "{:?}", out.failure);
        // Held-out validation measures its own pristine peak too: at the
        // bare ceiling the pristine program ran out of steps.
        w.validate_heldout(w.kernels(), 16, 4242)
            .expect("pristine passes its own held-out check");
    }

    #[test]
    fn runaway_variant_is_killed_by_the_step_budget() {
        let w = v0();
        let ev = Evaluator::new(&w);
        // An init loop whose exit condition is always true never ends.
        let runaway = Patch::from_edits(vec![Edit::CondReplace {
            kernel: 0,
            term: w.v0_sites().unwrap().init_branch,
            new: Operand::ImmBool(true),
        }]);
        let out = ev.evaluate(&runaway);
        assert_eq!(out.fault, Some(FaultClass::StepLimit));
        let reason = out.failure.expect("runaway fails");
        assert_eq!(
            reason,
            "forward kernel: step limit exhausted (infinite loop?)"
        );
        assert_eq!(ev.stats().faults.step_limit, 1);

        // A valid variant slower than the budget allows is killed during
        // fitness evaluation, but the same kernels on the same batch run
        // to completion at the spec's ceiling.
        let (slow, _) = v0::build_v0(w.block_threads(), 14);
        let compiled = w.compile_variant(std::slice::from_ref(&slow)).unwrap();
        let (_, slow_peak) = w.fitness_run(&compiled, 0, w.config().spec.step_limit);
        assert!(slow_peak > w.step_budget, "{slow_peak}");
        let out = w.evaluate(std::slice::from_ref(&slow), 0);
        assert_eq!(out.fault, Some(FaultClass::StepLimit));
        assert_eq!(out.failure.as_deref(), Some(reason.as_str()));
        let cfg = w.config();
        w.validate_heldout(std::slice::from_ref(&slow), cfg.pairs, cfg.data_seed)
            .expect("the ceiling lets the slow variant finish");

        // The curated patches still pass held-out validation.
        let (patched, _) = w.curated_patch().apply(w.kernels());
        w.validate_heldout(&patched, 12, 777).expect("curated V0");
    }

    #[test]
    fn broken_variant_fails_cleanly() {
        let w = v0();
        // Delete the result write: corrupts outputs, but never panics.
        let p = Patch::from_edits(vec![Edit::Delete {
            kernel: 0,
            target: result_store(&w),
        }]);
        let (kernels, _) = p.apply(w.kernels());
        let out = w.evaluate(&kernels, 0);
        assert!(!out.is_valid());
        assert_eq!(out.fault, Some(FaultClass::Mismatch));
        assert!(out.failure.unwrap().contains("expected"));
    }

    #[test]
    fn faulting_variant_is_an_exec_failure() {
        let w = v0();
        let ev = Evaluator::new(&w);
        // Point the result store at address 0, inside the null guard.
        let p = Patch::from_edits(vec![Edit::OperandReplace {
            kernel: 0,
            target: result_store(&w),
            arg: 0,
            new: Operand::ImmI64(0),
        }]);
        let out = ev.evaluate(&p);
        assert_eq!(out.fault, Some(FaultClass::Exec), "{:?}", out.failure);
        assert!(out
            .failure
            .unwrap()
            .starts_with("forward kernel: global memory fault at 0"),);
        assert_eq!(ev.stats().faults.exec, 1);
    }
}
