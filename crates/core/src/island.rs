//! Island-model evolution: N subpopulations with periodic migration.
//!
//! The paper's GA (§III-E) is a single panmictic population. Follow-up
//! work on evolutionary kernel search scales by running several
//! independently-seeded subpopulations ("islands") that exchange their
//! elite individuals on a fixed cadence: islands explore different
//! basins, migration spreads building blocks, and the sharded fitness
//! cache ([`crate::fitness`]) lets all of them evaluate concurrently
//! without contending on one lock.
//!
//! This module holds the island *vocabulary* — [`Topology`] and
//! [`MigrationEvent`] — while the loop itself lives behind
//! [`crate::Search`], configured by the island fields of
//! [`crate::SearchSpec`].
//!
//! Budget semantics: [`crate::GaConfig::population`] is the **total**
//! across islands — `Search::new(&w).islands(4)` over a population of 32
//! runs four islands of eight (see
//! [`crate::SearchSpec::island_populations`]). Comparing N=1 to N=4 at
//! the same [`crate::GaConfig`] therefore compares equal evaluation
//! budgets.
//!
//! ```
//! use gevo_engine::{Search, GaConfig, Workload, EvalOutcome};
//! use gevo_gpu::LaunchStats;
//! use gevo_ir::{AddrSpace, Kernel, KernelBuilder, Operand, Special};
//!
//! /// Fitness = instructions remaining: the islands race to delete code.
//! struct Toy { kernels: Vec<Kernel> }
//! impl Workload for Toy {
//!     fn name(&self) -> &str { "toy" }
//!     fn kernels(&self) -> &[Kernel] { &self.kernels }
//!     fn evaluate(&self, ks: &[Kernel], _seed: u64) -> EvalOutcome {
//!         EvalOutcome::pass(10.0 + ks[0].inst_count() as f64, LaunchStats::default())
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
//! let ga = GaConfig { population: 16, generations: 6, threads: 1, ..GaConfig::scaled() };
//! let res = Search::new(&w).config(ga).islands(4).run();
//! assert_eq!(res.islands.len(), 4, "one trajectory per island");
//! assert!(res.speedup >= 1.0);
//! assert!(res.history.records.iter().all(|r| r.island < 4));
//! ```

use crate::edit::Patch;
use serde::{Deserialize, Serialize};

/// Where each island's emigrants go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Island `i` sends to island `(i + 1) % n` — the classic ring.
    Ring,
    /// Each migration picks a uniformly random destination island
    /// (never the source), drawn from a dedicated migration RNG so the
    /// islands' own streams stay untouched.
    Random,
}

/// One individual crossing between islands, recorded only when the
/// immigrant was actually delivered into the destination population
/// (for the lineage analyses: a best individual whose edits were first
/// seen on another island arrived through one of these).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// Generation after which the migration happened.
    pub gen: usize,
    /// Source island.
    pub from: usize,
    /// Destination island.
    pub to: usize,
    /// The emigrant's fitness at departure.
    pub fitness: f64,
    /// The emigrant's genome.
    pub patch: Patch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::GaConfig;
    use crate::search::{Search, SearchResult, SearchSpec};
    use crate::toy::Toy;
    use std::collections::HashMap;

    fn quick_ga(seed: u64) -> GaConfig {
        GaConfig {
            population: 32,
            elitism: 2,
            crossover_p: 0.8,
            mutation_p: 0.9,
            generations: 20,
            tournament: 3,
            seed,
            threads: 1,
            max_patch_len: 64,
        }
    }

    /// `n` islands over `ga`'s total budget, default migration policy
    /// (ring, two elite emigrants every five generations).
    fn spec(ga: GaConfig, n: usize) -> SearchSpec {
        SearchSpec {
            ga,
            islands: n,
            ..SearchSpec::default()
        }
    }

    fn islands(toy: &Toy, spec: &SearchSpec) -> SearchResult {
        Search::from_spec(toy, spec.clone()).run()
    }

    #[test]
    fn single_island_matches_single_population_search_exactly() {
        let toy = Toy::new();
        let cfg = quick_ga(7);
        let ga = Search::new(&toy).config(cfg.clone()).run();
        let isl = islands(&toy, &spec(cfg, 1));
        assert_eq!(ga, isl);
        assert_eq!(isl.islands.len(), 1);
        assert!(
            isl.history.migrations.is_empty(),
            "one island never migrates"
        );
    }

    #[test]
    fn islands_are_deterministic_per_seed() {
        let toy = Toy::new();
        let cfg = spec(quick_ga(11), 4);
        let a = islands(&toy, &cfg);
        let b = islands(&toy, &cfg);
        assert_eq!(a.best.patch, b.best.patch);
        assert_eq!(a.history, b.history);
        assert_eq!(a.islands, b.islands);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn migration_follows_the_ring() {
        let toy = Toy::new();
        let mut cfg = spec(quick_ga(3), 3);
        cfg.migration_interval = 2;
        cfg.emigrants = 1;
        let res = islands(&toy, &cfg);
        assert!(!res.history.migrations.is_empty(), "migrations happened");
        for m in &res.history.migrations {
            assert_eq!(m.to, (m.from + 1) % 3, "ring destination");
            assert_eq!((m.gen + 1) % 2, 0, "only at the interval");
            assert!(m.fitness <= res.history.baseline);
        }
        // Each island's log holds exactly the events it took part in.
        for (id, h) in res.islands.iter().enumerate() {
            assert!(h.migrations.iter().all(|m| m.from == id || m.to == id));
        }
    }

    #[test]
    fn random_topology_stays_deterministic_and_never_self_migrates() {
        let toy = Toy::new();
        let mut cfg = spec(quick_ga(13), 4);
        cfg.topology = Topology::Random;
        cfg.migration_interval = 3;
        let a = islands(&toy, &cfg);
        let b = islands(&toy, &cfg);
        assert_eq!(a.history.migrations, b.history.migrations);
        assert!(!a.history.migrations.is_empty());
        for m in &a.history.migrations {
            assert_ne!(m.from, m.to, "an island never migrates to itself");
            assert!(m.to < 4);
        }
    }

    #[test]
    fn global_best_is_monotone_across_islands() {
        let toy = Toy::new();
        let res = islands(&toy, &spec(quick_ga(5), 4));
        let mut last = f64::INFINITY;
        for r in &res.history.records {
            assert!(
                r.best_fitness <= last + 1e-9,
                "per-island elitism keeps the global best: gen {}",
                r.gen
            );
            last = r.best_fitness;
        }
        // The reported best matches the trajectory's floor.
        assert_eq!(
            res.best.fitness.unwrap(),
            res.history
                .records
                .iter()
                .map(|r| r.best_fitness)
                .fold(f64::INFINITY, f64::min)
        );
    }

    #[test]
    fn per_island_histories_cover_every_generation() {
        let toy = Toy::new();
        let cfg = spec(quick_ga(9), 3);
        let res = islands(&toy, &cfg);
        assert_eq!(res.islands.len(), 3);
        for (id, h) in res.islands.iter().enumerate() {
            assert_eq!(h.records.len(), cfg.ga.generations);
            assert!(h.records.iter().all(|r| r.island == id));
        }
        // The global record per generation is the min over island records.
        for (g, rec) in res.history.records.iter().enumerate() {
            let island_min = res
                .islands
                .iter()
                .map(|h| h.records[g].best_fitness)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(rec.best_fitness, island_min, "gen {g}");
        }
    }

    #[test]
    fn equal_budget_islands_find_the_optimum_too() {
        // Same total budget, split four ways: still reaches the toy's
        // optimum (all six dead adds deleted).
        let toy = Toy::new();
        let single = islands(&toy, &spec(quick_ga(1), 1));
        let multi = islands(&toy, &spec(quick_ga(1), 4));
        assert!(
            multi.best.fitness.unwrap() <= single.best.fitness.unwrap() + 1e-9,
            "islands match the single population on the toy: {} vs {}",
            multi.best.fitness.unwrap(),
            single.best.fitness.unwrap()
        );
    }

    #[test]
    fn island_budget_splits_exactly() {
        let uneven = spec(
            GaConfig {
                population: 30,
                ..quick_ga(0)
            },
            4,
        );
        assert_eq!(uneven.island_populations(), vec![8, 8, 7, 7]);
        // More islands than individuals: clamp, never inflate the budget.
        let clamped = spec(
            GaConfig {
                population: 3,
                ..quick_ga(0)
            },
            8,
        );
        assert_eq!(clamped.island_populations(), vec![1, 1, 1]);
    }

    #[test]
    fn migration_never_evicts_an_island_champion() {
        // Two individuals per island and an inbox as large as the whole
        // island: the wave may replace everything except the champion,
        // so the global best stays monotone even here.
        let toy = Toy::new();
        let mut ga = quick_ga(6);
        ga.population = 8;
        let mut cfg = spec(ga, 4);
        cfg.migration_interval = 1;
        cfg.emigrants = 2;
        let res = islands(&toy, &cfg);
        let mut last = f64::INFINITY;
        for r in &res.history.records {
            assert!(
                r.best_fitness <= last + 1e-9,
                "gen {}: champion was evicted by migration",
                r.gen
            );
            last = r.best_fitness;
        }
        // The log records deliveries only: with a single replaceable
        // slot per island, no (gen, destination) pair can log more
        // than one crossing even though two emigrants were selected.
        let mut delivered: HashMap<(usize, usize), usize> = HashMap::new();
        for m in &res.history.migrations {
            *delivered.entry((m.gen, m.to)).or_insert(0) += 1;
        }
        assert!(!delivered.is_empty(), "migrations still happen");
        assert!(
            delivered.values().all(|&c| c <= 1),
            "an overflowing wave was logged as delivered"
        );
    }

    #[test]
    fn zero_elitism_is_honored_on_every_island() {
        let toy = Toy::new();
        let mut ga = quick_ga(4);
        ga.elitism = 0;
        ga.generations = 6;
        let res = islands(&toy, &spec(ga, 3));
        // With no elites anywhere the global best can regress between
        // generations; the run must still complete and report a valid
        // best (the baseline individual is always re-seeded on demand).
        assert_eq!(res.history.records.len(), 6);
        assert!(res.best.fitness.is_some());
        assert!(res.speedup >= 1.0);
    }
}
