//! Fixed-seed trajectory pins for the `Search` API on the real Table-1
//! workloads.
//!
//! Each pin records the CRC-32 of a whole `SearchResult` JSON body and
//! its evaluation count, single-population and islands alike, through
//! both the builder (`Search::new(..).config(..)`) and the spec
//! (`Search::from_spec`) entry points. Any change to the RNG draws, the
//! population order, the history or the evaluator's counters flips a
//! fingerprint.

mod common;

use common::{crc32, tiny};
use gevo_repro::prelude::*;

/// CRC-32 of the whole `SearchResult` JSON body, plus the eval count.
fn fingerprint(res: &SearchResult) -> (u32, usize) {
    (crc32(res.to_json().to_string().as_bytes()), res.evals)
}

#[test]
fn search_pins_single_population_trajectory_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let res = Search::new(&w).config(tiny(3, 12, 6)).run();
    assert!(res.pareto.is_empty(), "scalar mode has no Pareto front");
    assert_eq!(fingerprint(&res), (0x2E18_31A6, 48));
}

/// The same configuration driven generation by generation through
/// `step()` / `into_result()` lands on the same fingerprint as `run()`,
/// and every performed evaluation compiled exactly once.
#[test]
fn step_loop_pins_single_population_trajectory_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let mut search = Search::new(&w).config(tiny(3, 12, 6));
    while matches!(search.step(), StepStatus::Advanced { .. }) {}
    let stats = search.eval_stats();
    assert_eq!(stats.compiles, stats.evals, "{stats:?}");
    let res = search.into_result();
    assert_eq!(stats.evals, res.evals);
    assert_eq!(fingerprint(&res), (0x2E18_31A6, 48));
}

#[test]
fn search_pins_single_population_trajectory_on_simcov() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let res = Search::new(&w).config(tiny(7, 10, 4)).run();
    assert_eq!(fingerprint(&res), (0x05D5_60B9, 24));
}

#[test]
fn search_pins_island_trajectory_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let res = Search::new(&w)
        .config(tiny(2, 16, 6))
        .islands(4)
        .migration_interval(2)
        .run();
    assert!(
        !res.history.migrations.is_empty(),
        "migration actually exercised"
    );
    assert_eq!(fingerprint(&res), (0xB768_98CB, 67));
}

/// The spec-conversion path the harnesses use (`IslandConfig` →
/// `SearchSpec`).
#[test]
fn from_spec_pins_island_trajectory_on_simcov() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let mut cfg = IslandConfig::new(tiny(5, 9, 4), 3);
    cfg.migration_interval = 2;
    let res = Search::from_spec(&w, cfg.into()).run();
    assert_eq!(fingerprint(&res), (0x0AE2_DB67, 20));
}

/// Three islands at the default migration interval: the configuration
/// whose batches interleave several parents per generation.
#[test]
fn search_pins_three_island_trajectory_on_simcov() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let res = Search::new(&w).config(tiny(5, 9, 4)).islands(3).run();
    assert_eq!(fingerprint(&res), (0x19F8_7630, 21));
}

/// The acceptance bar for multi-objective mode: a two-objective NSGA-II
/// run on a Table-1 workload surfaces a Pareto front with at least two
/// mutually non-dominated points (deterministic at this fixed seed).
#[test]
fn two_objective_nsga2_yields_a_real_pareto_front_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    // Seed 4 at this tiny budget deterministically discovers variants
    // trading cycles against memory traffic (3-point front); the whole
    // stack is seed-deterministic, so this is a regression test, not a
    // flake.
    let res = Search::new(&w)
        .config(tiny(4, 16, 10))
        .objectives(&[Objective::Cycles, Objective::MemoryTraffic])
        .run();
    assert_eq!(res.objectives.len(), 2);
    assert!(
        res.pareto.len() >= 2,
        "expected a multi-point front, got {} point(s)",
        res.pareto.len()
    );
    for (i, p) in res.pareto.iter().enumerate() {
        assert_eq!(p.scores.len(), 2);
        assert!(p.fitness > 0.0);
        for (j, q) in res.pareto.iter().enumerate() {
            if i != j {
                assert!(
                    !gevo_repro::engine::dominates(&p.scores, &q.scores),
                    "front points must be mutually non-dominated"
                );
            }
        }
    }
    // The front's fastest point matches the run's reported best.
    let fastest = res
        .pareto
        .iter()
        .map(|p| p.fitness)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(fastest, res.best.fitness.unwrap());
    assert_eq!(fingerprint(&res), (0xBD85_3EE9, 116));
}
