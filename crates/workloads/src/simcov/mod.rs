//! The `SIMCoV` SARS-CoV-2 simulation workload (paper §II-C, §VI-D).
//!
//! Eight GPU kernels advance a 2-D lung-tissue grid (epithelial state,
//! virions, inflammatory signal, T cells). Fitness runs a small grid for
//! a few steps with a fixed seed (the paper: 100×100 for 2500 steps);
//! held-out validation runs a much larger grid where the boundary-check
//! removal of §VI-D segfaults (Fig. 10(b)) — reproduced here by placing
//! the signal field flush against the end of device memory.

pub mod cpu;
pub mod kernels;
pub mod validate;

use crate::pipeline::ScratchPool;
use cpu::SimcovState;
use gevo_engine::{Edit, EvalOutcome, Patch, Workload};
use gevo_gpu::{Buffer, CompiledKernel, Gpu, GpuSpec, KernelArg, LaunchConfig, LaunchStats};
use gevo_ir::{Kernel, Operand};
use kernels::{Layout, SimcovSites};
use validate::{compare, GpuRunOutput, Tolerance};

/// Model constants shared by the kernels (baked as immediates) and the
/// CPU reference.
#[derive(Debug, Clone, PartialEq)]
pub struct SimcovParams {
    /// RNG seed fixed for validation (paper §III-C).
    pub seed: i64,
    /// Number of initial infection sites.
    pub initial_infections: i32,
    /// Virions deposited per initial site.
    pub initial_virions: f32,
    /// Inflammatory signal needed before T cells extravasate.
    pub chem_threshold: f32,
    /// Extravasation probability per eligible cell per step, as a Q31
    /// threshold for the 31-bit RNG.
    pub p_extravasate_q31: i32,
    /// T-cell lifetime in steps.
    pub tcell_life: i32,
    /// Viral load that infects a healthy cell.
    pub infect_threshold: f32,
    /// Steps from infected to expressing.
    pub incubation_time: i32,
    /// Steps an expressing cell survives untreated.
    pub express_time: i32,
    /// Steps from apoptotic to dead.
    pub apoptosis_time: i32,
    /// Virions produced per expressing cell per step.
    pub vir_production: f32,
    /// Virion diffusion coefficient.
    pub diffuse_v: f32,
    /// Virion decay per step.
    pub decay_v: f32,
    /// Multiplier applied where a T cell sits (clearance).
    pub tcell_clear: f32,
    /// Signal produced per infected/expressing/apoptotic cell per step.
    pub chem_production: f32,
    /// Signal diffusion coefficient.
    pub diffuse_c: f32,
    /// Signal decay per step.
    pub decay_c: f32,
    /// Diffusion substeps per simulation step. `SIMCoV`'s fields evolve on
    /// a finer timescale than its agents; this is why "over 90% of the
    /// GPU kernel runtime is spent ... spreading virus and inflammatory
    /// signals" (paper §II-C1).
    pub diffusion_substeps: i32,
}

impl Default for SimcovParams {
    fn default() -> Self {
        #[allow(clippy::cast_possible_truncation)]
        let p25 = (0.25 * f64::from(i32::MAX)) as i32;
        SimcovParams {
            seed: 0x51C0,
            initial_infections: 3,
            initial_virions: 10.0,
            chem_threshold: 0.2,
            p_extravasate_q31: p25,
            tcell_life: 10,
            infect_threshold: 0.5,
            incubation_time: 2,
            express_time: 8,
            apoptosis_time: 2,
            vir_production: 3.0,
            diffuse_v: 0.5,
            decay_v: 0.04,
            tcell_clear: 0.4,
            chem_production: 2.0,
            diffuse_c: 0.6,
            decay_c: 0.08,
            diffusion_substeps: 3,
        }
    }
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct SimcovConfig {
    /// Grid side for fitness evaluation (paper: 100; scaled default 16).
    pub g: i32,
    /// Simulation steps per fitness evaluation (paper: 2500; scaled 10).
    pub steps: i32,
    /// Model constants.
    pub params: SimcovParams,
    /// Simulated GPU.
    pub spec: GpuSpec,
    /// Threads per block.
    pub block: u32,
    /// Field memory layout (checked grid vs. zero-padded grid).
    pub layout: Layout,
    /// Validation thresholds.
    pub tolerance: Tolerance,
}

impl SimcovConfig {
    /// Laptop-scale search configuration.
    #[must_use]
    pub fn scaled() -> SimcovConfig {
        let mut spec = GpuSpec::p100().scaled(8);
        spec.device_mem_bytes = 1 << 20;
        SimcovConfig {
            g: 16,
            steps: 10,
            params: SimcovParams::default(),
            spec,
            block: 64,
            layout: Layout::Checked,
            tolerance: Tolerance::default(),
        }
    }

    /// The padded-grid variant of the same configuration (Fig. 10(c)).
    #[must_use]
    pub fn padded(mut self) -> SimcovConfig {
        self.layout = Layout::Padded;
        self
    }

    /// Same config on a different GPU spec (keeps the arena size).
    #[must_use]
    pub fn with_spec(mut self, spec: GpuSpec) -> SimcovConfig {
        let arena = self.spec.device_mem_bytes;
        self.spec = spec;
        self.spec.device_mem_bytes = arena;
        self
    }
}

/// How device buffers are placed for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArenaMode {
    /// Fitness layout: zeroed slack around the diffused fields, so
    /// out-of-bounds reads inside the arena see zeros (Fig. 10(b), small
    /// grid: "passes the initial test using a smaller simulation area").
    Slack,
    /// Held-out layout: the signal field ends exactly at the arena's end,
    /// so walking off the grid faults (Fig. 10(b), large grid).
    Tight,
}

/// `SIMCoV` as an evolvable [`Workload`].
#[derive(Debug)]
pub struct SimcovWorkload {
    cfg: SimcovConfig,
    kernels: Vec<Kernel>,
    sites: SimcovSites,
    reference: SimcovState,
    name: String,
    /// Execution scratches recycled across fitness evaluations (each
    /// evaluation runs on a fresh device but reuses warm allocations).
    scratch: ScratchPool,
}

/// Builds the 8 kernels for a grid side and layout.
fn build_kernels(g: i32, p: &SimcovParams, layout: Layout) -> (Vec<Kernel>, SimcovSites) {
    let mut sites = SimcovSites::default();
    let extrav = kernels::build_extravasate(g, p, layout);
    let (mv, move_dead) = kernels::build_tcell_move(g, p);
    let commit = kernels::build_tcell_commit(g, p);
    let epi = kernels::build_epi_update(g, p, layout);
    let (vdiff, vsites, dup_rng) = kernels::build_virion_diffuse(g, p, layout);
    let (cdiff, csites, recompute) = kernels::build_chem_diffuse(g, p, layout);
    let swap = kernels::build_commit_swap(g, p, layout);
    let stats = kernels::build_reduce_stats(g, p, layout);
    sites.move_dead_store = Some(move_dead);
    sites.vdiff_bounds = vsites;
    sites.cdiff_bounds = csites;
    sites.vdiff_dup_rng_store = Some(dup_rng);
    sites.cdiff_recompute_store = Some(recompute);
    (
        vec![extrav, mv, commit, epi, vdiff, cdiff, swap, stats],
        sites,
    )
}

/// Kernel indices within the workload's kernel list.
pub mod kidx {
    /// `extravasate`.
    pub const EXTRAVASATE: usize = 0;
    /// `tcell_move`.
    pub const MOVE: usize = 1;
    /// `tcell_commit`.
    pub const COMMIT: usize = 2;
    /// `epi_update`.
    pub const EPI: usize = 3;
    /// `virion_diffuse`.
    pub const VDIFF: usize = 4;
    /// `chem_diffuse`.
    pub const CDIFF: usize = 5;
    /// `commit_swap`.
    pub const SWAP: usize = 6;
    /// `reduce_stats`.
    pub const STATS: usize = 7;
}

impl SimcovWorkload {
    /// Builds the workload: kernels, CPU oracle, initial state.
    ///
    /// # Panics
    /// Panics if the pristine kernels fail their own validation.
    #[must_use]
    pub fn new(cfg: SimcovConfig) -> SimcovWorkload {
        let (kernels, sites) = build_kernels(cfg.g, &cfg.params, cfg.layout);
        let mut reference = SimcovState::new(cfg.g, &cfg.params);
        reference.run(&cfg.params, cfg.steps);
        let name = format!(
            "simcov[{}{}]",
            cfg.spec.name,
            if cfg.layout == Layout::Padded {
                ",padded"
            } else {
                ""
            }
        );
        let w = SimcovWorkload {
            cfg,
            kernels,
            sites,
            reference,
            name,
            scratch: ScratchPool::new(),
        };
        let check = w.evaluate(&w.kernels, 0);
        assert!(
            check.is_valid(),
            "pristine SIMCoV kernels fail validation: {:?}",
            check.failure
        );
        w
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SimcovConfig {
        &self.cfg
    }

    /// Annotated inefficiency sites.
    #[must_use]
    pub fn sites(&self) -> &SimcovSites {
        &self.sites
    }

    /// The CPU oracle's final state.
    #[must_use]
    pub fn reference(&self) -> &SimcovState {
        &self.reference
    }

    /// Screens and lowers a variant through the shared
    /// [`crate::pipeline::compile_variant`] pipeline (verify → DCE →
    /// compile-once) against this workload's spec. The eight kernels
    /// compile exactly once per variant; the simulation loop then
    /// launches each compiled kernel `steps × substeps` times with no
    /// per-launch verify/CFG cost.
    fn compile_variant(&self, kernels: &[Kernel]) -> Result<Vec<CompiledKernel>, String> {
        crate::pipeline::compile_variant(kernels, &self.cfg.spec)
    }

    /// Builds the simulation device for one run, adopting a pooled
    /// execution scratch (returned to the pool by
    /// [`SimcovWorkload::run_sim`]).
    ///
    /// Arena sizing: `Tight` places `chem` flush against the arena end
    /// (no slack buffers at all), `Slack` surrounds fields with zeros.
    fn sim_device(&self, g: i32, arena: ArenaMode) -> Gpu {
        #[allow(clippy::cast_sign_loss)]
        let cells = (g * g) as usize;
        let cell_bytes = cells as u64 * 4;
        let field_bytes = self.cfg.layout.field_len(g) as u64 * 4;
        let slack: u64 = 4096;
        let mut spec = self.cfg.spec.clone();
        match arena {
            ArenaMode::Slack => {
                let need = 16
                    + cell_bytes * 8
                    + field_bytes * 4
                    + slack * 3
                    + 256 * 20
                    + gevo_gpu::NULL_GUARD;
                spec.device_mem_bytes = spec.device_mem_bytes.max(need);
            }
            ArenaMode::Tight => {
                // Pre-compute the bump-allocator cursor for everything
                // except `chem`, then size the arena so `chem` ends at the
                // arena's last byte.
                let others = [
                    16,
                    cell_bytes,  // epi
                    cell_bytes,  // timer
                    cell_bytes,  // tcell
                    cell_bytes,  // tlife
                    cell_bytes,  // tnext
                    cell_bytes,  // tnew
                    cell_bytes,  // lnew
                    cell_bytes,  // scratch
                    field_bytes, // vir
                    field_bytes, // next_vir
                    field_bytes, // next_chem
                ];
                let mut cursor = gevo_gpu::NULL_GUARD;
                for sz in others {
                    cursor = cursor.next_multiple_of(256) + sz;
                }
                spec.device_mem_bytes = cursor.next_multiple_of(4) + field_bytes;
            }
        }
        self.scratch.device(spec)
    }

    /// Runs `steps` of the simulation on a fresh device (with a pooled
    /// execution scratch).
    fn run_sim(
        &self,
        kernels: &[CompiledKernel],
        g: i32,
        steps: i32,
        sched_seed: u64,
        arena: ArenaMode,
    ) -> Result<(GpuRunOutput, f64, LaunchStats), String> {
        let mut gpu = self.sim_device(g, arena);
        let result = self.run_sim_on(&mut gpu, kernels, g, steps, sched_seed, arena);
        self.scratch.recycle(&mut gpu);
        result
    }

    /// [`SimcovWorkload::run_sim`] on an already-constructed device.
    #[allow(clippy::too_many_lines)]
    fn run_sim_on(
        &self,
        gpu: &mut Gpu,
        kernels: &[CompiledKernel],
        g: i32,
        steps: i32,
        sched_seed: u64,
        arena: ArenaMode,
    ) -> Result<(GpuRunOutput, f64, LaunchStats), String> {
        let p = &self.cfg.params;
        let layout = self.cfg.layout;
        #[allow(clippy::cast_sign_loss)]
        let cells = (g * g) as usize;
        let flen = layout.field_len(g);
        let cell_bytes = cells as u64 * 4;
        let slack: u64 = 4096;
        let field_bytes = flen as u64 * 4;

        let mut alloc = |bytes: u64| -> Result<Buffer, String> {
            gpu.mem_mut().alloc(bytes).map_err(|e| e.to_string())
        };
        let stats_buf = alloc(16)?;
        let epi = alloc(cell_bytes)?;
        let timer = alloc(cell_bytes)?;
        let tcell = alloc(cell_bytes)?;
        let tlife = alloc(cell_bytes)?;
        let tnext = alloc(cell_bytes)?;
        let tnew = alloc(cell_bytes)?;
        let lnew = alloc(cell_bytes)?;
        let scratch = alloc(cell_bytes)?;
        let (vir, chem, next_vir, next_chem) = match arena {
            ArenaMode::Slack => {
                let _pre = alloc(slack)?;
                let vir = alloc(field_bytes)?;
                let _mid = alloc(slack)?;
                let chem = alloc(field_bytes)?;
                let _post = alloc(slack)?;
                let next_vir = alloc(field_bytes)?;
                let next_chem = alloc(field_bytes)?;
                (vir, chem, next_vir, next_chem)
            }
            ArenaMode::Tight => {
                let vir = alloc(field_bytes)?;
                let next_vir = alloc(field_bytes)?;
                let next_chem = alloc(field_bytes)?;
                let chem = gpu
                    .mem_mut()
                    .alloc_at_end(field_bytes)
                    .map_err(|e| e.to_string())?;
                (vir, chem, next_vir, next_chem)
            }
        };

        // Initial state (same constructor the CPU oracle uses).
        let init = SimcovState::new(g, p);
        let to_phys = |logical: &[f32]| -> Vec<f32> {
            match layout {
                Layout::Checked => logical.to_vec(),
                Layout::Padded => {
                    let side = g + 2;
                    #[allow(clippy::cast_sign_loss)]
                    let mut out = vec![0.0f32; (side * side) as usize];
                    for r in 0..g {
                        for c in 0..g {
                            #[allow(clippy::cast_sign_loss)]
                            {
                                out[layout.phys(g, r, c) as usize] = logical[(r * g + c) as usize];
                            }
                        }
                    }
                    out
                }
            }
        };
        gpu.mem_mut().write_f32s(vir, 0, &to_phys(&init.vir));
        gpu.mem_mut().write_f32s(chem, 0, &to_phys(&init.chem));
        gpu.mem_mut().write_i32s(epi, 0, &init.epi);
        gpu.mem_mut().write_i32s(timer, 0, &init.timer);
        gpu.mem_mut().write_i32s(tcell, 0, &init.tcell);
        gpu.mem_mut().write_i32s(tlife, 0, &init.tlife);

        #[allow(clippy::cast_sign_loss)]
        let grid = (cells as u32).div_ceil(self.cfg.block);
        let lcfg = LaunchConfig::new(grid, self.cfg.block).with_seed(sched_seed);
        let mut total = LaunchStats::default();
        let mut launch =
            |gpu: &mut Gpu, k: &CompiledKernel, args: &[KernelArg]| -> Result<(), String> {
                let s = gpu
                    .launch_compiled(k, lcfg, args)
                    .map_err(|e| format!("{}: {e}", k.name()))?;
                total.accumulate(&s);
                Ok(())
            };

        for step in 0..steps {
            gpu.mem_mut().write_i32s(stats_buf, 0, &[0, 0, 0, 0]);
            launch(
                gpu,
                &kernels[kidx::EXTRAVASATE],
                &[
                    chem.into(),
                    tcell.into(),
                    tlife.into(),
                    KernelArg::I32(step),
                    KernelArg::I64(p.seed),
                ],
            )?;
            launch(
                gpu,
                &kernels[kidx::MOVE],
                &[
                    tcell.into(),
                    tnext.into(),
                    scratch.into(),
                    KernelArg::I32(step),
                    KernelArg::I64(p.seed),
                ],
            )?;
            launch(
                gpu,
                &kernels[kidx::COMMIT],
                &[tnext.into(), tlife.into(), tnew.into(), lnew.into()],
            )?;
            launch(
                gpu,
                &kernels[kidx::EPI],
                &[epi.into(), timer.into(), vir.into(), tnew.into()],
            )?;
            for _sub in 0..p.diffusion_substeps {
                launch(
                    gpu,
                    &kernels[kidx::VDIFF],
                    &[
                        vir.into(),
                        next_vir.into(),
                        epi.into(),
                        tnew.into(),
                        scratch.into(),
                        KernelArg::I32(step),
                        KernelArg::I64(p.seed),
                    ],
                )?;
                launch(
                    gpu,
                    &kernels[kidx::CDIFF],
                    &[chem.into(), next_chem.into(), epi.into(), scratch.into()],
                )?;
                launch(
                    gpu,
                    &kernels[kidx::SWAP],
                    &[
                        vir.into(),
                        next_vir.into(),
                        chem.into(),
                        next_chem.into(),
                        tcell.into(),
                        tnew.into(),
                        tlife.into(),
                        lnew.into(),
                        tnext.into(),
                    ],
                )?;
            }
            launch(
                gpu,
                &kernels[kidx::STATS],
                &[epi.into(), vir.into(), tcell.into(), stats_buf.into()],
            )?;
        }

        // Read back (strip padding for comparison).
        let phys_vir = gpu.mem().read_f32s(vir, 0, flen);
        let phys_chem = gpu.mem().read_f32s(chem, 0, flen);
        let from_phys = |phys: &[f32]| -> Vec<f32> {
            match layout {
                Layout::Checked => phys.to_vec(),
                Layout::Padded => {
                    let mut out = Vec::with_capacity(cells);
                    for r in 0..g {
                        for c in 0..g {
                            #[allow(clippy::cast_sign_loss)]
                            out.push(phys[layout.phys(g, r, c) as usize]);
                        }
                    }
                    out
                }
            }
        };
        let stats_v = gpu.mem().read_i32s(stats_buf, 0, 4);
        let out = GpuRunOutput {
            vir: from_phys(&phys_vir),
            chem: from_phys(&phys_chem),
            epi: gpu.mem().read_i32s(epi, 0, cells),
            tcell: gpu.mem().read_i32s(tcell, 0, cells),
            stats: [
                i64::from(stats_v[0]),
                i64::from(stats_v[1]),
                i64::from(stats_v[2]),
                i64::from(stats_v[3]),
            ],
        };
        #[allow(clippy::cast_precision_loss)]
        Ok((out, total.cycles as f64, total))
    }

    /// Held-out validation on a larger grid with the signal field at the
    /// end of device memory (Fig. 10(b)). Applies `patch` to freshly
    /// built kernels for the large grid — instruction IDs are stable
    /// across grid sizes, so evolved patches transfer directly.
    ///
    /// # Errors
    /// Returns the failure description (e.g. the simulated segfault).
    pub fn validate_heldout(&self, patch: &Patch, g: i32, steps: i32) -> Result<(), String> {
        let (pristine, _) = build_kernels(g, &self.cfg.params, self.cfg.layout);
        let (kernels, _) = patch.apply(&pristine);
        let compiled = self.compile_variant(&kernels)?;
        let mut reference = SimcovState::new(g, &self.cfg.params);
        reference.run(&self.cfg.params, steps);
        let (out, _, _) = self.run_sim(&compiled, g, steps, 1, ArenaMode::Tight)?;
        compare(&out, &reference, &self.cfg.tolerance).map(|_| ())
    }

    // ---- curated edits (DESIGN.md §4.5) ---------------------------------

    /// The named optimization edits for the ablation harnesses.
    #[must_use]
    pub fn labeled_edits(&self) -> Vec<(String, Edit)> {
        let mut out = Vec::new();
        for (i, site) in self.sites.vdiff_bounds.iter().enumerate() {
            out.push((
                format!("sc:boundary_v{i}"),
                Edit::CondReplace {
                    kernel: kidx::VDIFF,
                    term: *site,
                    new: Operand::ImmBool(true),
                },
            ));
        }
        for (i, site) in self.sites.cdiff_bounds.iter().enumerate() {
            out.push((
                format!("sc:boundary_c{i}"),
                Edit::CondReplace {
                    kernel: kidx::CDIFF,
                    term: *site,
                    new: Operand::ImmBool(true),
                },
            ));
        }
        if let Some(s) = self.sites.vdiff_dup_rng_store {
            out.push((
                "sc:del_dup_rng".into(),
                Edit::Delete {
                    kernel: kidx::VDIFF,
                    target: s,
                },
            ));
        }
        if let Some(s) = self.sites.move_dead_store {
            out.push((
                "sc:del_move_store".into(),
                Edit::Delete {
                    kernel: kidx::MOVE,
                    target: s,
                },
            ));
        }
        if let Some(s) = self.sites.cdiff_recompute_store {
            out.push((
                "sc:del_recompute".into(),
                Edit::Delete {
                    kernel: kidx::CDIFF,
                    target: s,
                },
            ));
        }
        out
    }

    /// Looks up a labeled edit.
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

    /// All 16 boundary-check removals (§VI-D).
    #[must_use]
    pub fn boundary_edits(&self) -> Vec<Edit> {
        self.labeled_edits()
            .into_iter()
            .filter(|(n, _)| n.starts_with("sc:boundary"))
            .map(|(_, e)| e)
            .collect()
    }

    /// The small independent improvements.
    #[must_use]
    pub fn curated_independent(&self) -> Vec<Edit> {
        ["sc:del_dup_rng", "sc:del_move_store", "sc:del_recompute"]
            .iter()
            .map(|n| self.edit(n))
            .collect()
    }

    /// Everything: boundary removals plus independent deletions.
    #[must_use]
    pub fn curated_patch(&self) -> Patch {
        let mut edits = self.boundary_edits();
        edits.extend(self.curated_independent());
        Patch::from_edits(edits)
    }
}

impl Workload for SimcovWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    fn evaluate(&self, kernels: &[Kernel], eval_seed: u64) -> EvalOutcome {
        match self.compile_variant(kernels) {
            Ok(compiled) => self.evaluate_compiled(&compiled, eval_seed),
            Err(reason) => EvalOutcome::fail(reason),
        }
    }

    fn compile(&self, kernels: &[Kernel]) -> Option<Result<Vec<CompiledKernel>, String>> {
        Some(self.compile_variant(kernels))
    }

    fn evaluate_compiled(&self, compiled: &[CompiledKernel], eval_seed: u64) -> EvalOutcome {
        match self.run_sim(
            compiled,
            self.cfg.g,
            self.cfg.steps,
            eval_seed,
            ArenaMode::Slack,
        ) {
            Ok((out, cycles, stats)) => match compare(&out, &self.reference, &self.cfg.tolerance) {
                // The normalized deviation rides along as the
                // multi-objective error score (`Objective::Error`).
                Ok(error) => EvalOutcome::pass_with_error(cycles, error, stats),
                Err(e) => EvalOutcome::fail(e),
            },
            Err(e) => EvalOutcome::fail(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_engine::Evaluator;

    fn workload() -> SimcovWorkload {
        SimcovWorkload::new(SimcovConfig::scaled())
    }

    #[test]
    fn pristine_passes_and_is_deterministic() {
        let w = workload();
        let a = w.evaluate(w.kernels(), 0);
        let b = w.evaluate(w.kernels(), 0);
        assert!(a.is_valid(), "{:?}", a.failure);
        assert_eq!(a.fitness, b.fitness);
    }

    #[test]
    fn pristine_passes_under_different_scheduler() {
        // The §II-C2 stochasticity: different warp interleavings shuffle
        // T-cell claim order, and the resulting drift must stay within a
        // (loosened) per-value tolerance — "fixing the random seed removes
        // most of the stochasticity, but not all".
        let mut cfg = SimcovConfig::scaled();
        cfg.tolerance = Tolerance {
            field_rel_mean: 0.8,
            field_abs_mean: 0.05,
            field_rel_var: 1.5,
            field_abs_var: 0.5,
            epi_mismatch_frac: 0.25,
            tcell_abs: 8,
            tcell_rel: 0.8,
            stats_rel: 0.8,
        };
        let w = SimcovWorkload::new(cfg);
        for seed in [0, 1, 7, 42] {
            let out = w.evaluate(w.kernels(), seed);
            assert!(out.is_valid(), "seed {seed}: {:?}", out.failure);
        }
    }

    #[test]
    fn boundary_removal_is_valid_and_fast_on_small_grid() {
        let w = workload();
        let ev = Evaluator::new(&w);
        let p = Patch::from_edits(w.boundary_edits());
        let s = ev.speedup(&p).expect("boundary removal passes small grid");
        assert!(s > 1.05, "boundary removal speedup {s} (paper: ~20%)");
    }

    #[test]
    fn curated_patch_in_paper_band() {
        let w = workload();
        let ev = Evaluator::new(&w);
        let s = ev.speedup(&w.curated_patch()).expect("curated patch valid");
        assert!(
            s > 1.1 && s < 1.8,
            "curated SIMCoV speedup {s} (paper: ~1.29x)"
        );
    }

    #[test]
    fn boundary_removal_faults_on_large_heldout_grid() {
        // Fig. 10(b): passes 100×100, segfaults on the big grid.
        let w = workload();
        let p = Patch::from_edits(w.boundary_edits());
        let err = w
            .validate_heldout(&p, 64, 3)
            .expect_err("large grid must fault");
        assert!(
            err.contains("fault") || err.contains("memory"),
            "expected a memory fault, got: {err}"
        );
        // The pristine program passes the same held-out test.
        w.validate_heldout(&Patch::empty(), 64, 3)
            .expect("pristine passes held-out");
    }

    #[test]
    fn padded_variant_passes_everywhere_without_checks() {
        // Fig. 10(c): zero padding makes the checks unnecessary.
        let padded = SimcovWorkload::new(SimcovConfig::scaled().padded());
        let out = padded.evaluate(padded.kernels(), 0);
        assert!(out.is_valid(), "{:?}", out.failure);
        padded
            .validate_heldout(&Patch::empty(), 64, 3)
            .expect("padded passes the held-out grid");
    }

    #[test]
    fn padded_is_faster_than_checked() {
        // §VI-D: "padding the grid borders ... achieves a 14% performance
        // improvement".
        let checked = workload();
        let padded = SimcovWorkload::new(SimcovConfig::scaled().padded());
        let fc = checked.evaluate(checked.kernels(), 0).fitness.unwrap();
        let fp = padded.evaluate(padded.kernels(), 0).fitness.unwrap();
        let s = fc / fp;
        assert!(s > 1.04, "padded speedup over checked: {s:.3}");
    }

    #[test]
    fn independent_deletions_help() {
        let w = workload();
        let ev = Evaluator::new(&w);
        for (name, e) in [
            ("dup_rng", w.edit("sc:del_dup_rng")),
            ("move_store", w.edit("sc:del_move_store")),
            ("recompute", w.edit("sc:del_recompute")),
        ] {
            let s = ev
                .speedup(&Patch::from_edits(vec![e]))
                .unwrap_or_else(|| panic!("{name} must stay valid"));
            assert!(s > 1.0, "{name} speedup {s}");
        }
    }

    #[test]
    fn breaking_the_swap_kernel_fails_validation() {
        let w = workload();
        // Delete the virion copy-back store: the field goes stale.
        let victim = w.kernels()[kidx::SWAP]
            .iter_insts()
            .find(|(_, i)| {
                matches!(
                    i.op,
                    gevo_ir::Op::Store {
                        ty: gevo_ir::MemTy::F32,
                        ..
                    }
                )
            })
            .map(|(_, i)| i.id)
            .unwrap();
        let p = Patch::from_edits(vec![Edit::Delete {
            kernel: kidx::SWAP,
            target: victim,
        }]);
        let (kernels, _) = p.apply(w.kernels());
        assert!(!w.evaluate(&kernels, 0).is_valid());
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use gevo_engine::Evaluator;

    #[test]
    #[ignore = "diagnostic"]
    fn probe_simcov_speedups() {
        let w = SimcovWorkload::new(SimcovConfig::scaled());
        let ev = Evaluator::new(&w);
        let base = ev.evaluate(&Patch::empty());
        println!("baseline: {:?}", base.fitness);
        let bs = base.stats.unwrap();
        println!(
            "  insts {} glob {} segs {} chit {} cmiss {} rh {} rm {} div {}",
            bs.instructions,
            bs.global_accesses,
            bs.global_segments,
            bs.cache_hits,
            bs.cache_misses,
            bs.row_hits,
            bs.row_misses,
            bs.divergent_branches
        );
        for (label, p) in [
            ("boundary", Patch::from_edits(w.boundary_edits())),
            ("dup_rng", Patch::from_edits(vec![w.edit("sc:del_dup_rng")])),
            (
                "move_store",
                Patch::from_edits(vec![w.edit("sc:del_move_store")]),
            ),
            (
                "recompute",
                Patch::from_edits(vec![w.edit("sc:del_recompute")]),
            ),
            ("curated", w.curated_patch()),
        ] {
            let out = ev.evaluate(&p);
            match out.fitness {
                Some(f) => {
                    let st = out.stats.unwrap();
                    println!(
                        "{label}: speedup {:.4} (insts {} cmiss {} rm {} div {})",
                        base.fitness.unwrap() / f,
                        st.instructions,
                        st.cache_misses,
                        st.row_misses,
                        st.divergent_branches
                    );
                }
                None => println!("{label}: FAILED ({})", out.failure.unwrap()),
            }
        }
        let padded = SimcovWorkload::new(SimcovConfig::scaled().padded());
        let fp = padded.evaluate(padded.kernels(), 0).fitness.unwrap();
        println!(
            "padded: speedup over checked {:.4}",
            base.fitness.unwrap() / fp
        );
    }
}

#[cfg(test)]
mod probe_exact_tests {
    use super::*;

    #[test]
    #[ignore = "diagnostic"]
    fn probe_first_divergence() {
        let mut cfg = SimcovConfig::scaled();
        cfg.tolerance = Tolerance {
            field_rel_mean: 1e9,
            field_abs_mean: 1e9,
            field_rel_var: 1e9,
            field_abs_var: 1e9,
            epi_mismatch_frac: 1.0,
            tcell_abs: 100_000,
            tcell_rel: 1.0,
            stats_rel: 1e9,
        };
        let w = SimcovWorkload::new(cfg.clone());
        for steps in 1..=10 {
            let mut reference = SimcovState::new(cfg.g, &cfg.params);
            reference.run(&cfg.params, steps);
            let compiled = w.compile_variant(w.kernels()).unwrap();
            let (out, _, _) = w
                .run_sim(&compiled, cfg.g, steps, 0, ArenaMode::Slack)
                .unwrap();
            let vd = out
                .vir
                .iter()
                .zip(&reference.vir)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .count();
            let cd = out
                .chem
                .iter()
                .zip(&reference.chem)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .count();
            let ed = out
                .epi
                .iter()
                .zip(&reference.epi)
                .filter(|(a, b)| a != b)
                .count();
            let td = out
                .tcell
                .iter()
                .zip(&reference.tcell)
                .filter(|(a, b)| a != b)
                .count();
            println!("steps {steps}: vir≠{vd} chem≠{cd} epi≠{ed} tcell≠{td}");
            if vd + cd + ed + td > 0 {
                for (i, (a, b)) in out.tcell.iter().zip(&reference.tcell).enumerate() {
                    if a != b {
                        println!("  tcell[{i}]: gpu {a} cpu {b} (r={}, c={})", i / 16, i % 16);
                    }
                }
                for (i, (a, b)) in out.epi.iter().zip(&reference.epi).enumerate() {
                    if a != b {
                        println!("  epi[{i}]: gpu {a} cpu {b}");
                    }
                }
                break;
            }
        }
    }
}
