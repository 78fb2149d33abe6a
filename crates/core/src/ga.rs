//! The generational GA loop (paper §III-E).
//!
//! Defaults mirror the paper's specification: population 256, four elites,
//! 80% crossover probability, 30% mutation probability per individual per
//! generation, fitness = mean kernel cycles over the test set, failing
//! individuals excluded from selection. The harnesses run scaled-down
//! budgets (DESIGN.md §4.4); every knob is on [`GaConfig`].
//!
//! Since the unified [`crate::Search`] API landed, this module holds the
//! GA *vocabulary* — [`GaConfig`], [`Individual`], [`History`],
//! [`GaResult`] — while the loop itself runs behind [`crate::Search`]:
//! `Search::new(&w).config(cfg)` is bit-for-bit the original
//! single-population loop.
//!
//! ```
//! use gevo_engine::{Search, GaConfig, Workload, EvalOutcome};
//! use gevo_gpu::LaunchStats;
//! use gevo_ir::{AddrSpace, Kernel, KernelBuilder, Operand, Special};
//!
//! /// Fitness = instructions remaining; the GA deletes what it can.
//! struct Toy { kernels: Vec<Kernel> }
//! impl Workload for Toy {
//!     fn name(&self) -> &str { "toy" }
//!     fn kernels(&self) -> &[Kernel] { &self.kernels }
//!     fn evaluate(&self, ks: &[Kernel], _seed: u64) -> EvalOutcome {
//!         EvalOutcome::pass(5.0 + ks[0].inst_count() as f64, LaunchStats::default())
//!     }
//! }
//!
//! let mut b = KernelBuilder::new("t");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let x = b.add(tid.into(), Operand::ImmI32(1));
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! b.store_global_i32(addr.into(), x.into());
//! b.ret();
//! let w = Toy { kernels: vec![b.finish()] };
//!
//! let cfg = GaConfig { population: 12, generations: 8, threads: 1, ..GaConfig::scaled() };
//! let res = Search::new(&w).config(cfg).run();
//! assert_eq!(res.history.records.len(), 8);
//! assert!(res.speedup >= 1.0);
//! ```

use crate::edit::{Edit, Patch};
use crate::island::MigrationEvent;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// GA hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Individuals per generation (paper: 256). Under the island engine
    /// this is the **total** across islands.
    pub population: usize,
    /// Best individuals copied unchanged into the next generation
    /// (paper: 4).
    pub elitism: usize,
    /// Probability an offspring is produced by crossover (paper: 0.8).
    pub crossover_p: f64,
    /// Probability an individual receives a new mutation per generation
    /// (paper: 0.3).
    pub mutation_p: f64,
    /// Generation budget (paper: ~300 for ADEPT, ~130 for `SIMCoV`).
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Master seed: the whole run is a deterministic function of it.
    pub seed: u64,
    /// Worker threads for fitness evaluation.
    pub threads: usize,
    /// Hard cap on genome length (guards against unbounded bloat).
    pub max_patch_len: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 256,
            elitism: 4,
            crossover_p: 0.8,
            mutation_p: 0.3,
            generations: 300,
            tournament: 3,
            seed: 0,
            threads: 1,
            max_patch_len: 4096,
        }
    }
}

impl GaConfig {
    /// A laptop-scale configuration used by the examples and harnesses.
    ///
    /// `threads` is the host's actual available parallelism (floor 1 —
    /// no optimistic fallback): the simulator is CPU-bound, so workers
    /// beyond the core count only add scheduling noise, exactly like
    /// the `GEVO_THREADS` harness knob's clamp.
    #[must_use]
    pub fn scaled() -> GaConfig {
        GaConfig {
            population: 32,
            elitism: 4,
            crossover_p: 0.8,
            mutation_p: 0.9,
            generations: 40,
            tournament: 3,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            max_patch_len: 512,
        }
    }

    /// Same config with a different seed (for Fig. 6's ten repeated runs).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> GaConfig {
        self.seed = seed;
        self
    }
}

/// One individual: genome plus cached fitness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Individual {
    /// The genome.
    pub patch: Patch,
    /// Mean cycles; `None` = failed validation.
    pub fitness: Option<f64>,
}

/// Per-generation record for trajectory figures (Fig. 6, Fig. 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// Generation index (0-based).
    pub gen: usize,
    /// The island that owned this record's best individual (0 in
    /// single-population runs and in per-island histories of island 0).
    pub island: usize,
    /// Best (lowest) valid fitness this generation.
    pub best_fitness: f64,
    /// Speedup of the best individual over the pristine program.
    pub best_speedup: f64,
    /// The best individual's genome.
    pub best_patch: Patch,
    /// Valid individuals this generation (summed across islands in a
    /// global history).
    pub valid: usize,
}

/// Everything recorded during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// Cycles of the pristine program.
    pub baseline: f64,
    /// One record per generation.
    pub records: Vec<GenerationRecord>,
    /// Generation at which each edit first appeared in the *best*
    /// individual — the discovery sequence behind Fig. 8.
    pub first_seen_in_best: HashMap<Edit, usize>,
    /// Every migration event this history witnessed (empty for
    /// single-population runs; see [`crate::island`]).
    pub migrations: Vec<MigrationEvent>,
}

impl History {
    /// Discovery generation of an edit (in the best individual), if ever.
    #[must_use]
    pub fn discovered_at(&self, e: &Edit) -> Option<usize> {
        self.first_seen_in_best.get(e).copied()
    }

    /// The paper's Fig. 8 staircase: for each of `edits`, the generation it
    /// entered the best individual, sorted by that generation.
    #[must_use]
    pub fn discovery_sequence(&self, edits: &[Edit]) -> Vec<(Edit, usize)> {
        let mut seq: Vec<(Edit, usize)> = edits
            .iter()
            .filter_map(|e| self.discovered_at(e).map(|g| (*e, g)))
            .collect();
        seq.sort_by_key(|(_, g)| *g);
        seq
    }
}

/// The result of one GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaResult {
    /// The best individual over the whole run.
    pub best: Individual,
    /// Speedup of `best` over the pristine program.
    pub speedup: f64,
    /// Full trajectory.
    pub history: History,
    /// Fitness evaluations actually performed (cache misses).
    pub evals: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{EvalOutcome, Workload};
    use crate::search::Search;

    /// The single-population search, in the legacy result shape.
    fn ga(w: &dyn Workload, cfg: &GaConfig) -> GaResult {
        Search::new(w).config(cfg.clone()).run().into_ga_result()
    }
    use gevo_gpu::LaunchStats;
    use gevo_ir::{AddrSpace, Kernel, KernelBuilder, Operand, Special};

    /// Toy workload with a known optimum: fitness = 100 + 10 per
    /// remaining deletable instruction; the store must survive.
    struct Toy {
        kernels: Vec<Kernel>,
        store_id: gevo_ir::InstId,
    }

    impl Toy {
        fn new() -> Toy {
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
                return EvalOutcome::fail("store deleted");
            }
            // Verify like the simulator would.
            if gevo_ir::verify::verify(k).is_err() {
                return EvalOutcome::fail("verification");
            }
            #[allow(clippy::cast_precision_loss)]
            let f = 100.0 + 10.0 * k.inst_count() as f64;
            EvalOutcome::pass(f, LaunchStats::default())
        }
    }

    fn quick_cfg(seed: u64) -> GaConfig {
        GaConfig {
            population: 24,
            elitism: 2,
            crossover_p: 0.8,
            mutation_p: 0.9,
            generations: 30,
            tournament: 3,
            seed,
            threads: 1,
            max_patch_len: 64,
        }
    }

    #[test]
    fn ga_improves_toy_workload() {
        let toy = Toy::new();
        let res = ga(&toy, &quick_cfg(1));
        assert!(
            res.speedup > 1.2,
            "GA should delete dead code: speedup {}",
            res.speedup
        );
        assert!(res.best.fitness.unwrap() < res.history.baseline);
        assert_eq!(res.history.records.len(), 30);
        assert!(res.history.migrations.is_empty(), "N=1 never migrates");
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let toy = Toy::new();
        let a = ga(&toy, &quick_cfg(7));
        let b = ga(&toy, &quick_cfg(7));
        assert_eq!(a.best.patch, b.best.patch);
        assert_eq!(a.speedup, b.speedup);
        let c = ga(&toy, &quick_cfg(8));
        // Different seeds explore differently (fitness may coincide, the
        // trajectory rarely does).
        assert!(
            a.history.records != c.history.records || a.best.patch != c.best.patch,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn best_fitness_is_monotone_nonincreasing() {
        let toy = Toy::new();
        let res = ga(&toy, &quick_cfg(3));
        let mut last = f64::INFINITY;
        for r in &res.history.records {
            assert!(
                r.best_fitness <= last + 1e-9,
                "elitism keeps the best: gen {} went {} -> {}",
                r.gen,
                last,
                r.best_fitness
            );
            last = r.best_fitness;
        }
    }

    #[test]
    fn first_seen_tracks_best_individual_edits() {
        let toy = Toy::new();
        let res = ga(&toy, &quick_cfg(5));
        for e in res.best.patch.edits() {
            assert!(
                res.history.discovered_at(e).is_some(),
                "every edit of the final best was first seen at some generation"
            );
        }
        let seq = res.history.discovery_sequence(res.best.patch.edits());
        let gens: Vec<usize> = seq.iter().map(|(_, g)| *g).collect();
        let mut sorted = gens.clone();
        sorted.sort_unstable();
        assert_eq!(gens, sorted, "discovery sequence is sorted");
    }

    #[test]
    fn invalid_heavy_population_recovers() {
        // Even when most mutants fail, the GA keeps the baseline and
        // reports a valid best individual.
        let toy = Toy::new();
        let mut cfg = quick_cfg(9);
        cfg.generations = 5;
        let res = ga(&toy, &cfg);
        assert!(res.best.fitness.is_some());
        assert!(res.speedup >= 1.0);
    }

    #[test]
    fn generation_records_carry_island_zero() {
        let toy = Toy::new();
        let res = ga(&toy, &quick_cfg(2));
        assert!(res.history.records.iter().all(|r| r.island == 0));
    }
}
