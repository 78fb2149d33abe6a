//! Shared plumbing for the table/figure harnesses (see DESIGN.md §5 for
//! the experiment index and EXPERIMENTS.md for recorded outputs).
//!
//! Each harness binary regenerates one table or figure of the paper's
//! evaluation. Budgets are scaled for laptops by default and can be
//! raised through environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `GEVO_POP` | GA population (total across islands) | harness-specific |
//! | `GEVO_GENS` | GA generations | harness-specific |
//! | `GEVO_RUNS` | repeated runs (Fig. 6) | 10 |
//! | `GEVO_SEED` | base RNG seed | 1 |
//! | `GEVO_ISLANDS` | island count (also `--islands N` on the CLI) | 1 |
//! | `GEVO_MIGRATION` | generations between migrations | 5 |
//! | `GEVO_THREADS` | evaluation workers (clamped to host cores) | 1 |
//! | `GEVO_OBJECTIVES` | comma-separated [`Objective`]s (two+ = NSGA-II) | `cycles` |
//! | `GEVO_ADAPT` | mutation scheduling: `uniform`, `weighted`, `ucb1` (see [`adapt_knob`]) | `uniform` |
//! | `GEVO_MUT_WEIGHTS` | 7 comma-separated operator weights (see [`mut_weights_knob`]) | built-in |
//! | `GEVO_CHECKPOINT` | checkpoint path (also `--checkpoint`); see [`checkpoint`] | off |
//! | `GEVO_CHECKPOINT_EVERY` | generations between checkpoints | 5 |
//! | `GEVO_STOP_AFTER` | checkpoint + exit(3) after k generations | off |
//! | `GEVO_OPT` | lowering passes: `0` = O0 control arm, else O2 | O2 |
//! | `GEVO_QUARANTINE` | directory for panic-provoking variants (see [`quarantine_knob`]) | off |
//! | `GEVO_CHAOS` | fault-injection plan (see [`chaos`]) | off |
//! | `GEVO_JOB_DEADLINE` / `GEVO_JOB_RETRIES` / `GEVO_JOB_BACKOFF_MS` | `gevo-serve` supervision (see [`supervise`]) | — |
//!
//! The GA-driven harnesses (fig4, fig5, fig6, islands, pareto) all
//! build their engine session through ONE shared helper,
//! [`harness_spec`] — the env-knob parsing lives here and nowhere else
//! — and run it with [`run_search`], a thin wrapper over
//! `gevo_engine::Search`. With one island that is exactly the paper's
//! single-population GA; with more it is the island engine; with two
//! or more objectives it is NSGA-II multi-objective selection and the
//! result carries a Pareto front.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::missing_panics_doc)]
#![allow(clippy::cast_precision_loss)]

pub mod ab;
pub mod cases;
pub mod chaos;
pub mod checkpoint;
pub mod kernel_gen;
pub mod supervise;

use gevo_engine::{
    AdaptPolicy, AdaptReport, EvalStats, Evaluator, GaConfig, MutationWeights, Objective, Patch,
    SearchResult, SearchSpec, Workload,
};
use gevo_gpu::GpuSpec;
use gevo_workloads::adept::{AdeptConfig, AdeptWorkload, Version};
use gevo_workloads::simcov::{SimcovConfig, SimcovWorkload};

/// Reads an environment override.
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` environment override.
#[must_use]
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker threads for `Evaluator::evaluate_batch`: `GEVO_THREADS`,
/// defaulting to **1** and clamped to the host's available parallelism.
///
/// The default used to be `available_parallelism()` itself, which made
/// `evaluate_batch` spawn a worker per core even on single-core hosts —
/// where the simulator's CPU-bound evaluations gain nothing from extra
/// threads and pay scheduling overhead plus lock traffic for the
/// privilege. Parallel evaluation is now opt-in (`GEVO_THREADS=N`), and
/// asking for more workers than the host has cores is clamped down.
#[must_use]
pub fn harness_threads() -> usize {
    let avail = std::thread::available_parallelism().map_or(1, usize::from);
    env_usize("GEVO_THREADS", 1).clamp(1, avail)
}

/// The GA budget used by the figure harnesses, honoring env overrides
/// (`GEVO_POP`, `GEVO_GENS`, `GEVO_SEED`, `GEVO_THREADS`).
#[must_use]
pub fn harness_ga(pop: usize, gens: usize) -> GaConfig {
    GaConfig {
        population: env_usize("GEVO_POP", pop),
        generations: env_usize("GEVO_GENS", gens),
        seed: env_u64("GEVO_SEED", 1),
        threads: harness_threads(),
        ..GaConfig::scaled()
    }
}

/// The objectives in force: `GEVO_OBJECTIVES` as a comma-separated
/// list of `cycles`, `error`, `instructions`, `mem_traffic` (unknown
/// names are ignored; empty/unset means the scalar default).
#[must_use]
pub fn objectives_knob() -> Vec<Objective> {
    let Ok(raw) = std::env::var("GEVO_OBJECTIVES") else {
        return vec![Objective::Cycles];
    };
    let objs: Vec<Objective> = raw
        .split(',')
        .filter_map(|name| match name.trim() {
            "cycles" => Some(Objective::Cycles),
            "error" => Some(Objective::Error),
            "instructions" => Some(Objective::Instructions),
            "mem_traffic" => Some(Objective::MemoryTraffic),
            _ => None,
        })
        .collect();
    if objs.is_empty() {
        vec![Objective::Cycles]
    } else {
        objs
    }
}

/// The adaptive mutation-scheduling policy in force: `GEVO_ADAPT` as
/// `uniform` (the legacy static draw, default), `weighted` or `ucb1`
/// (`gevo_engine::adapt`, DESIGN.md §3.10).
///
/// # Panics
/// Panics on an unknown policy name — silently falling back to uniform
/// would invalidate an A/B run.
#[must_use]
pub fn adapt_knob() -> AdaptPolicy {
    match std::env::var("GEVO_ADAPT") {
        Err(_) => AdaptPolicy::Uniform,
        Ok(raw) => AdaptPolicy::parse(raw.trim()).unwrap_or_else(|e| panic!("GEVO_ADAPT: {e}")),
    }
}

/// The mutation-operator weight override in force: `GEVO_MUT_WEIGHTS`
/// as seven comma-separated non-negative numbers in declaration order
/// (`delete,operand_replace,cond_replace,copy,mov,swap,replace`), or
/// `None` when unset (the built-in defaults apply).
///
/// Applied by [`checkpoint::run_search_with`] to **fresh** sessions
/// only: a resumed checkpoint already carries the weights its run
/// started with, and silently re-weighting mid-run would fork the
/// trajectory from the uninterrupted one.
///
/// # Panics
/// Panics when the value is not exactly seven parseable numbers — a
/// typo'd weight table must not silently run the defaults.
#[must_use]
pub fn mut_weights_knob() -> Option<MutationWeights> {
    let raw = std::env::var("GEVO_MUT_WEIGHTS").ok()?;
    let parts: Vec<f64> = raw
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .ok()
                .filter(|w| w.is_finite() && *w >= 0.0)
                .unwrap_or_else(|| panic!("GEVO_MUT_WEIGHTS: bad weight {p:?} in {raw:?}"))
        })
        .collect();
    assert!(
        parts.len() == 7,
        "GEVO_MUT_WEIGHTS: expected 7 comma-separated weights          (delete,operand_replace,cond_replace,copy,mov,swap,replace), got {} in {raw:?}",
        parts.len()
    );
    assert!(
        parts.iter().sum::<f64>() > 0.0,
        "GEVO_MUT_WEIGHTS: weights must not all be zero"
    );
    Some(MutationWeights {
        delete: parts[0],
        operand_replace: parts[1],
        cond_replace: parts[2],
        copy: parts[3],
        mov: parts[4],
        swap: parts[5],
        replace: parts[6],
    })
}

/// The island count in force: `--islands N` (or `--islands=N`) on the
/// command line wins, then `GEVO_ISLANDS`, then 1.
#[must_use]
pub fn islands_knob() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--islands" {
            if let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(v) = a.strip_prefix("--islands=") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    env_usize("GEVO_ISLANDS", 1).max(1)
}

/// Applies the `GEVO_OPT` knob to the process-wide lowering pipeline
/// and returns the level in force: `GEVO_OPT=0` keeps the O0 control
/// arm, anything else (including unset) enables the O2 passes
/// (warp-uniformity scalarization + constant folding, DESIGN.md §3.8).
///
/// Harnesses default to **O2** while the library default stays O0: the
/// passes are result-invisible by contract (pinned by the `opt_diff`
/// differential suite and the `opt_bench` byte-identical gate), so the
/// knob changes only wall-clock, never a trajectory — and every harness
/// binary can A/B the pipeline with `GEVO_OPT=0` without code changes.
#[must_use = "the returned level says which arm this process is running"]
pub fn opt_knob() -> gevo_gpu::OptLevel {
    let level = match std::env::var("GEVO_OPT") {
        Ok(v) if v.trim() == "0" => gevo_gpu::OptLevel::O0,
        _ => gevo_gpu::OptLevel::O2,
    };
    gevo_gpu::set_opt_level(level);
    level
}

/// Applies the `GEVO_QUARANTINE` knob: when set, panic-provoking
/// variants caught by the engine's evaluation isolation are serialized
/// into this directory as `*.quarantine.json`
/// ([`gevo_engine::QuarantineRecord`]) for deterministic replay.
/// Returns the directory in force.
pub fn quarantine_knob() -> Option<std::path::PathBuf> {
    let dir = std::env::var("GEVO_QUARANTINE")
        .ok()
        .map(std::path::PathBuf::from);
    gevo_engine::quarantine::set_dir(dir.clone());
    dir
}

/// The ONE place every harness binary's engine configuration is built:
/// the GA budget (`GEVO_POP`/`GEVO_GENS`/`GEVO_SEED`/`GEVO_THREADS`)
/// plus `--islands`/`GEVO_ISLANDS`, `GEVO_MIGRATION`, `GEVO_OBJECTIVES`
/// and `GEVO_OPT`, folded into a `gevo_engine::SearchSpec` ready for
/// [`run_search`].
#[must_use]
pub fn harness_spec(pop: usize, gens: usize) -> SearchSpec {
    // Engine config and device config travel together: every GA harness
    // that builds its spec here also picks up the lowering level (and
    // the quarantine directory), so workloads constructed *after* this
    // call compile accordingly.
    let _ = opt_knob();
    let _ = quarantine_knob();
    let mut spec = SearchSpec {
        ga: harness_ga(pop, gens),
        islands: islands_knob(),
        ..SearchSpec::default()
    };
    spec.migration_interval = env_usize("GEVO_MIGRATION", spec.migration_interval);
    let objectives = objectives_knob();
    if objectives.len() > 1 {
        spec.selection = gevo_engine::Selection::Nsga2;
    }
    spec.objectives = objectives;
    spec.adapt = adapt_knob();
    spec
}

/// Runs the configured search session and returns its result (global
/// history, per-island trajectories, Pareto front when
/// multi-objective). Checkpoint-aware: because every GA-driven harness
/// binary runs through this one function, the
/// `--checkpoint`/`--resume`/`GEVO_CHECKPOINT*` knobs (see
/// [`checkpoint`]) work identically in all of them.
#[must_use]
pub fn run_search(w: &dyn Workload, spec: &SearchSpec) -> SearchResult {
    run_search_stats(w, spec).0
}

/// [`run_search`] plus the evaluator's own counters (cache hit rates,
/// lowering-pass counters, fault tallies) — observability the result
/// deliberately omits, for the harnesses whose reports include them
/// (`islands --json`, `opt_bench`).
#[must_use]
pub fn run_search_stats(w: &dyn Workload, spec: &SearchSpec) -> (SearchResult, EvalStats) {
    let (result, stats, _) = run_search_report(w, spec);
    (result, stats)
}

/// [`run_search_stats`] plus the adaptive scheduler's merged
/// [`AdaptReport`] (`None` under the uniform policy) — per-operator
/// credit tallies and weights for the observability surfaces
/// (`islands --json`, the `gevo-serve` `done` event). Like the eval
/// counters, the report is deliberately absent from [`SearchResult`].
#[must_use]
pub fn run_search_report(
    w: &dyn Workload,
    spec: &SearchSpec,
) -> (SearchResult, EvalStats, Option<AdaptReport>) {
    checkpoint::run_search_with(w, spec, &checkpoint::checkpoint_knobs(), None)
}

/// Builds one of the Table-1 workloads in its default scaled
/// configuration by registry name (`adept-v0`, `adept-v1`, `simcov`).
/// The construction is deterministic, so two processes naming the same
/// workload build bit-identical programs — the property checkpoint
/// resume and the `gevo-serve` job server rely on.
#[must_use]
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload + Send>> {
    match name {
        "adept-v0" => Some(Box::new(AdeptWorkload::new(AdeptConfig::scaled(
            Version::V0,
        )))),
        "adept-v1" => Some(Box::new(AdeptWorkload::new(AdeptConfig::scaled(
            Version::V1,
        )))),
        "simcov" => Some(Box::new(SimcovWorkload::new(SimcovConfig::scaled()))),
        _ => None,
    }
}

/// Human-readable budget line for a harness banner.
#[must_use]
pub fn budget_banner(cfg: &SearchSpec) -> String {
    let ga = &cfg.ga;
    let objectives = if cfg.objectives.len() > 1 {
        let names: Vec<&str> = cfg.objectives.iter().map(|o| o.name()).collect();
        format!(", NSGA-II on [{}]", names.join(", "))
    } else {
        String::new()
    };
    if cfg.islands > 1 {
        let sizes = cfg.island_populations();
        let split = if sizes.windows(2).all(|w| w[0] == w[1]) {
            format!("{} islands x {}", sizes.len(), sizes[0])
        } else {
            let parts: Vec<String> = sizes.iter().map(ToString::to_string).collect();
            format!("{} islands: {}", sizes.len(), parts.join("+"))
        };
        format!(
            "pop {} ({split}), {} gens, migration every {}, seed {}{objectives}",
            ga.population, ga.generations, cfg.migration_interval, ga.seed
        )
    } else {
        format!(
            "pop {}, {} gens, seed {}{objectives}",
            ga.population, ga.generations, ga.seed
        )
    }
}

/// The three evaluation GPUs, scaled for search (8-lane warps, small
/// arenas) while keeping each spec's cost structure (DESIGN.md §4.4).
#[must_use]
pub fn scaled_table1_specs() -> Vec<GpuSpec> {
    GpuSpec::table1()
        .into_iter()
        .map(|s| {
            let mut sc = s.scaled(8);
            sc.device_mem_bytes = 1 << 20;
            // Keep the marketing name for table rows.
            sc.name = sc.name.trim_end_matches("-scaled").to_string();
            sc
        })
        .collect()
}

/// ADEPT on a given scaled spec.
#[must_use]
pub fn adept_on(version: Version, spec: &GpuSpec) -> AdeptWorkload {
    AdeptWorkload::new(AdeptConfig::scaled(version).with_spec(spec.clone()))
}

/// `SIMCoV` on a given scaled spec.
#[must_use]
pub fn simcov_on(spec: &GpuSpec) -> SimcovWorkload {
    SimcovWorkload::new(SimcovConfig::scaled().with_spec(spec.clone()))
}

/// Speedup of a patch on a workload (panics if the patch is invalid —
/// harnesses only evaluate known-good patches this way).
#[must_use]
pub fn speedup_of(w: &dyn Workload, patch: &Patch) -> f64 {
    let ev = Evaluator::new(w);
    ev.speedup(patch).expect("harness patch must be valid")
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a horizontal bar for quick visual comparison.
#[must_use]
pub fn bar(value: f64, scale: f64) -> String {
    let n = (value * scale).round().max(0.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    "#".repeat((n as usize).min(120))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_overrides_parse() {
        std::env::set_var("GEVO_TEST_X", "17");
        assert_eq!(env_usize("GEVO_TEST_X", 3), 17);
        assert_eq!(env_usize("GEVO_TEST_MISSING", 3), 3);
        std::env::set_var("GEVO_TEST_BAD", "zzz");
        assert_eq!(env_usize("GEVO_TEST_BAD", 5), 5);
    }

    #[test]
    fn scaled_specs_keep_names_and_families() {
        let specs = scaled_table1_specs();
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["P100", "1080Ti", "V100"]);
        assert!(specs.iter().all(|s| s.warp_size == 8));
    }

    #[test]
    fn thread_knob_defaults_to_one_and_clamps() {
        std::env::remove_var("GEVO_THREADS");
        assert_eq!(harness_threads(), 1, "parallel evaluation is opt-in");
        let avail = std::thread::available_parallelism().map_or(1, usize::from);
        std::env::set_var("GEVO_THREADS", "4096");
        assert_eq!(harness_threads(), avail, "clamped to host cores");
        std::env::set_var("GEVO_THREADS", "0");
        assert_eq!(harness_threads(), 1, "floors at one worker");
        std::env::remove_var("GEVO_THREADS");
    }

    #[test]
    fn islands_knob_reads_env() {
        // No --islands on the test binary's command line, so the env
        // var (and then the default) decides.
        std::env::remove_var("GEVO_ISLANDS");
        assert_eq!(islands_knob(), 1);
        std::env::set_var("GEVO_ISLANDS", "4");
        assert_eq!(islands_knob(), 4);
        std::env::set_var("GEVO_ISLANDS", "0");
        assert_eq!(islands_knob(), 1, "floors at one island");
        std::env::remove_var("GEVO_ISLANDS");
    }

    #[test]
    fn banner_mentions_split_and_objectives() {
        // Specs are built directly: sibling tests mutate the GEVO_*
        // env vars in parallel, so this test must not read them.
        let base = SearchSpec {
            ga: GaConfig {
                population: 32,
                generations: 10,
                ..GaConfig::scaled()
            },
            ..SearchSpec::default()
        };
        let multi_island = SearchSpec {
            islands: 4,
            ..base.clone()
        };
        let banner = budget_banner(&multi_island);
        assert!(banner.contains("4 islands x 8"), "{banner}");
        let single = budget_banner(&base);
        assert!(!single.contains("islands"), "{single}");
        let multi_objective = SearchSpec {
            objectives: vec![Objective::Cycles, Objective::Error],
            ..base
        };
        assert!(
            budget_banner(&multi_objective).contains("NSGA-II"),
            "{}",
            budget_banner(&multi_objective)
        );
    }

    #[test]
    fn mut_weights_knob_parses_seven_weights_in_declaration_order() {
        std::env::remove_var("GEVO_MUT_WEIGHTS");
        assert!(mut_weights_knob().is_none(), "unset means built-ins");
        std::env::set_var("GEVO_MUT_WEIGHTS", "7, 6,5,4 ,3,2,1");
        let w = mut_weights_knob().expect("parses");
        assert_eq!(
            w,
            gevo_engine::MutationWeights {
                delete: 7.0,
                operand_replace: 6.0,
                cond_replace: 5.0,
                copy: 4.0,
                mov: 3.0,
                swap: 2.0,
                replace: 1.0,
            }
        );
        std::env::remove_var("GEVO_MUT_WEIGHTS");
    }

    #[test]
    fn mut_weights_knob_rejects_wrong_arity() {
        // A typo'd table must panic, not silently run the defaults —
        // exercised via catch_unwind so the env var is always restored
        // for sibling tests.
        std::env::set_var("GEVO_MUT_WEIGHTS", "1,2,3");
        let short = std::panic::catch_unwind(mut_weights_knob);
        std::env::set_var("GEVO_MUT_WEIGHTS", "0,0,0,0,0,0,0");
        let zeroed = std::panic::catch_unwind(mut_weights_knob);
        std::env::set_var("GEVO_MUT_WEIGHTS", "1,2,3,4,5,6,banana");
        let garbled = std::panic::catch_unwind(mut_weights_knob);
        std::env::remove_var("GEVO_MUT_WEIGHTS");
        assert!(short.is_err(), "six weights must be rejected");
        assert!(zeroed.is_err(), "all-zero weights must be rejected");
        assert!(garbled.is_err(), "unparseable weight must be rejected");
    }

    #[test]
    fn adapt_knob_parses_policies() {
        std::env::remove_var("GEVO_ADAPT");
        assert_eq!(adapt_knob(), AdaptPolicy::Uniform);
        std::env::set_var("GEVO_ADAPT", " ucb1 ");
        assert_eq!(adapt_knob(), AdaptPolicy::Ucb1);
        std::env::set_var("GEVO_ADAPT", "weighted");
        assert_eq!(adapt_knob(), AdaptPolicy::Weighted);
        std::env::set_var("GEVO_ADAPT", "bogus");
        let bad = std::panic::catch_unwind(adapt_knob);
        std::env::remove_var("GEVO_ADAPT");
        assert!(bad.is_err(), "unknown policy must not silently fall back");
    }

    #[test]
    fn objectives_knob_parses_names() {
        std::env::remove_var("GEVO_OBJECTIVES");
        assert_eq!(objectives_knob(), vec![Objective::Cycles]);
        std::env::set_var("GEVO_OBJECTIVES", "cycles, error");
        assert_eq!(objectives_knob(), vec![Objective::Cycles, Objective::Error]);
        std::env::set_var("GEVO_OBJECTIVES", "bogus");
        assert_eq!(objectives_knob(), vec![Objective::Cycles]);
        std::env::remove_var("GEVO_OBJECTIVES");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(2.0, 3.0), "######");
        assert_eq!(bar(0.0, 3.0), "");
    }
}
