//! Shared plumbing for the table/figure harnesses (see DESIGN.md §5 for
//! the experiment index and EXPERIMENTS.md for recorded outputs).
//!
//! The paper's claims that need no GA run (curated fig4/fig5 speedups,
//! the §VI ablations, §IV generality) are measured once, in
//! [`scorecard`], and printed by the `scorecard` binary. Each GA-driven
//! harness binary regenerates one table or figure of the paper's
//! evaluation. Budgets are scaled for laptops by default and can be
//! raised through environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `GEVO_POP` | GA population | harness-specific |
//! | `GEVO_GENS` | GA generations | harness-specific |
//! | `GEVO_RUNS` | repeated runs (Fig. 6) | 10 |
//! | `GEVO_SEED` | base RNG seed | 1 |
//! | `GEVO_THREADS` | evaluation workers (clamped to host cores) | 1 |
//! | `GEVO_OBJECTIVES` | comma-separated [`Objective`]s (two+ = NSGA-II) | `cycles` |
//! | `GEVO_MUT_WEIGHTS` | 7 comma-separated operator weights (see [`mut_weights_knob`]) | built-in |
//! | `GEVO_CHECKPOINT` | checkpoint path (also `--checkpoint`); see [`checkpoint`] | off |
//! | `GEVO_CHECKPOINT_EVERY` | generations between checkpoints | 5 |
//! | `GEVO_STOP_AFTER` | checkpoint + exit(3) after k ≥ 1 generations (needs `GEVO_CHECKPOINT`) | off |
//! | `GEVO_QUARANTINE` | directory for panic-provoking variants (see [`quarantine_knob`]) | off |
//! | `GEVO_CHAOS` | fault-injection plan (see [`chaos`]) | off |
//! | `GEVO_JOB_DEADLINE` / `GEVO_JOB_RETRIES` / `GEVO_JOB_BACKOFF_MS` | `gevo-serve` supervision (see [`supervise`]) | — |
//! | `GEVO_WORKLOAD` | `search_job`'s workload (also `--workload`) | `adept-v0` |
//! | `GEVO_FROM_GA` | `fig7`: 1 runs the pipeline on a fresh GA best | 0 |
//!
//! An unset or empty numeric knob keeps its default; any other value
//! that does not parse panics with the knob's name ([`parse_knob`]).
//! The knobs of removed features (`GEVO_ISLANDS`, `GEVO_MIGRATION`,
//! `--islands`, `GEVO_ADAPT`, `GEVO_OPT`) and any other `GEVO_*`
//! variable not in this table (a misspelt `GEVO_GEN`, say) are refused
//! the same way at startup by [`check_knobs`], rather than ignored.
//!
//! The GA-driven harnesses (fig4, fig5, fig6, pareto) all build their
//! engine session through ONE shared helper, [`harness_spec`] — the
//! env-knob parsing lives here and nowhere else — and run it with
//! [`run_search`], a thin wrapper over `gevo_engine::Search`. With one
//! objective that is exactly the paper's single-population GA; with two
//! or more it is NSGA-II multi-objective selection and the result
//! carries a Pareto front.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::missing_panics_doc)]
#![allow(clippy::cast_precision_loss)]

pub mod chaos;
pub mod checkpoint;
pub mod kernel_gen;
pub mod scorecard;
pub mod supervise;

use gevo_engine::{
    GaConfig, MutationWeights, Objective, Search, SearchResult, SearchSpec, StepStatus, Workload,
};
use gevo_gpu::GpuSpec;
use gevo_workloads::adept::{AdeptConfig, AdeptWorkload, Version};
use gevo_workloads::simcov::{SimcovConfig, SimcovWorkload};
use std::path::{Path, PathBuf};

/// The value of a command-line flag, given as `--flag value` or
/// `--flag=value` (first occurrence wins), or `None` when absent.
#[must_use]
pub fn arg_value(flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// Parses the raw value of the numeric knob `name` (an environment
/// variable or a command-line flag); `None` or empty means unset. A
/// value that does not parse panics, naming the knob and the value: a
/// typo must not silently run the default.
#[must_use]
pub fn parse_knob<T: std::str::FromStr>(name: &str, raw: Option<&str>) -> Option<T> {
    let raw = raw.map(str::trim).filter(|v| !v.is_empty())?;
    Some(
        raw.parse()
            .unwrap_or_else(|_| panic!("{name}: cannot parse {raw:?} as a number")),
    )
}

/// The numeric environment knob `name`, by the [`parse_knob`] rules.
#[must_use]
pub fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    parse_knob(name, Some(&std::env::var_os(name)?.to_string_lossy()))
}

/// Reads an environment override, by the [`parse_knob`] rules.
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    env_knob(name).unwrap_or(default)
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

/// The objectives in force: `GEVO_OBJECTIVES` as a comma-separated
/// list of `cycles`, `error`, `instructions`, `mem_traffic` (empty
/// entries are skipped; empty/unset means the scalar default).
///
/// # Panics
/// Panics on an unknown name — a typo'd objective list must not
/// silently run a different search.
#[must_use]
pub fn objectives_knob() -> Vec<Objective> {
    let Ok(raw) = std::env::var("GEVO_OBJECTIVES") else {
        return vec![Objective::Cycles];
    };
    let objs: Vec<Objective> = raw
        .split(',')
        .filter_map(|name| match name.trim() {
            "" => None,
            "cycles" => Some(Objective::Cycles),
            "error" => Some(Objective::Error),
            "instructions" => Some(Objective::Instructions),
            "mem_traffic" => Some(Objective::MemoryTraffic),
            bad => panic!("GEVO_OBJECTIVES: unknown objective {bad:?} in {raw:?}"),
        })
        .collect();
    if objs.is_empty() {
        vec![Objective::Cycles]
    } else {
        objs
    }
}

/// The mutation-operator weight override in force: `GEVO_MUT_WEIGHTS`
/// as seven comma-separated non-negative numbers in declaration order
/// (`delete,operand_replace,cond_replace,copy,mov,swap,replace`), or
/// `None` when unset (the built-in defaults apply).
///
/// Applied by [`run_search`] to **fresh** sessions
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
        "GEVO_MUT_WEIGHTS: expected 7 comma-separated weights \
         (delete,operand_replace,cond_replace,copy,mov,swap,replace), got {} in {raw:?}",
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

/// The `GEVO_QUARANTINE` directory, if set: the harnesses give it to
/// every evaluator they build, which serializes panic-provoking
/// variants caught by its evaluation isolation into it as
/// `*.quarantine.json` ([`gevo_engine::QuarantineRecord`]) for
/// deterministic replay.
#[must_use]
pub fn quarantine_knob() -> Option<PathBuf> {
    std::env::var("GEVO_QUARANTINE").ok().map(PathBuf::from)
}

/// Knobs of removed features, each with what was removed: the island
/// model read the first three (DESIGN.md §3.4), adaptive mutation
/// scheduling `GEVO_ADAPT` (§3.10) and the process-global lowering
/// level `GEVO_OPT` (§3.8). A harness that ignored one would silently
/// run a different search than the one asked for. Names starting with
/// `--` are command-line flags, the others environment variables.
const REMOVED_KNOBS: [(&str, &str); 5] = [
    ("GEVO_ISLANDS", "the island model"),
    ("GEVO_MIGRATION", "the island model"),
    ("--islands", "the island model"),
    ("GEVO_ADAPT", "adaptive mutation scheduling"),
    ("GEVO_OPT", "the process-global optimization level"),
];

/// The refusal for the first of the [`REMOVED_KNOBS`] that is given:
/// a flag present in `args` (as `--flag` or `--flag=value`), or an
/// environment variable `env` reports as set and non-empty (empty
/// means unset, as for every knob).
fn removed_knob(args: &[String], env: impl Fn(&str) -> Option<String>) -> Option<String> {
    let given = |knob: &str| {
        if knob.starts_with("--") {
            let prefix = format!("{knob}=");
            args.iter().any(|a| a == knob || a.starts_with(&prefix))
        } else {
            env(knob).is_some_and(|v| !v.trim().is_empty())
        }
    };
    REMOVED_KNOBS
        .iter()
        .find(|(knob, _)| given(knob))
        .map(|(knob, what)| format!("{knob} is no longer supported ({what} was removed)"))
}

/// Every `GEVO_*` environment variable some binary of this crate reads:
/// the knob table in the crate docs.
const KNOBS: [&str; 17] = [
    "GEVO_POP",
    "GEVO_GENS",
    "GEVO_RUNS",
    "GEVO_SEED",
    "GEVO_THREADS",
    "GEVO_OBJECTIVES",
    "GEVO_MUT_WEIGHTS",
    "GEVO_CHECKPOINT",
    "GEVO_CHECKPOINT_EVERY",
    "GEVO_STOP_AFTER",
    "GEVO_QUARANTINE",
    "GEVO_CHAOS",
    "GEVO_JOB_DEADLINE",
    "GEVO_JOB_RETRIES",
    "GEVO_JOB_BACKOFF_MS",
    "GEVO_WORKLOAD",
    "GEVO_FROM_GA",
];

/// The refusal for the alphabetically first variable in `vars` (name,
/// value) that is named `GEVO_*`, is set non-empty, and is neither one
/// of the [`KNOBS`] nor one of the [`REMOVED_KNOBS`] (which
/// [`removed_knob`] names with what was removed).
fn unknown_knob(vars: impl IntoIterator<Item = (String, String)>) -> Option<String> {
    let known = |name: &str| KNOBS.contains(&name) || REMOVED_KNOBS.iter().any(|(k, _)| *k == name);
    vars.into_iter()
        .filter(|(name, value)| {
            name.starts_with("GEVO_") && !value.trim().is_empty() && !known(name)
        })
        .map(|(name, _)| name)
        .min()
        .map(|name| format!("{name} is not a known knob (known: {})", KNOBS.join(", ")))
}

/// Refuses, before any work, a knob that would otherwise be silently
/// ignored: the knob of a removed feature, or a `GEVO_*` variable that
/// is not in the knob table of the crate docs. [`harness_spec`] calls
/// it; a binary that reads knobs without building a spec calls it
/// first thing.
///
/// # Panics
/// Panics naming the knob: `GEVO_ISLANDS`, `GEVO_MIGRATION`,
/// `--islands`, `GEVO_ADAPT`, `GEVO_OPT`, or the unknown variable.
pub fn check_knobs() {
    let args: Vec<String> = std::env::args().collect();
    let vars = std::env::vars_os().map(|(name, value)| {
        (
            name.to_string_lossy().into_owned(),
            value.to_string_lossy().into_owned(),
        )
    });
    if let Some(refusal) =
        removed_knob(&args, |name| std::env::var(name).ok()).or_else(|| unknown_knob(vars))
    {
        panic!("{refusal}");
    }
}

/// The ONE place every harness binary's engine configuration is built:
/// the GA budget (`GEVO_POP`/`GEVO_GENS`/`GEVO_SEED`/`GEVO_THREADS`)
/// plus `GEVO_OBJECTIVES`, folded into a `gevo_engine::SearchSpec`
/// ready for [`run_search`].
///
/// # Panics
/// Panics naming the knob when a removed or unknown one is given
/// ([`check_knobs`]).
#[must_use]
pub fn harness_spec(pop: usize, gens: usize) -> SearchSpec {
    check_knobs();
    let mut spec = SearchSpec {
        ga: GaConfig {
            population: env_usize("GEVO_POP", pop),
            generations: env_usize("GEVO_GENS", gens),
            seed: env_knob("GEVO_SEED").unwrap_or(1),
            threads: harness_threads(),
            ..GaConfig::scaled()
        },
        ..SearchSpec::default()
    };
    let objectives = objectives_knob();
    if objectives.len() > 1 {
        spec.selection = gevo_engine::Selection::Nsga2;
    }
    spec.objectives = objectives;
    spec
}

/// Runs the configured search session and returns its result (history,
/// and the Pareto front when multi-objective).
///
/// This is the one checkpoint-aware runner (knob table in
/// [`checkpoint`]): because every GA-driven harness binary runs through
/// it, the `--checkpoint`/`--resume`/`GEVO_CHECKPOINT*` knobs work
/// identically in all of them. It resolves this search's checkpoint
/// file and resumes from `--resume`, or from the checkpoint file itself
/// when it already exists; otherwise it starts a fresh session with
/// `GEVO_MUT_WEIGHTS` applied. It writes a checkpoint every
/// `GEVO_CHECKPOINT_EVERY` generations. At `GEVO_STOP_AFTER` it
/// checkpoints and exits with [`checkpoint::STOPPED_EXIT_CODE`], the
/// deterministic stand-in for a kill that the recovery tests use.
///
/// # Panics
/// Panics before the first generation if `GEVO_STOP_AFTER` is 0 or is
/// set without a checkpoint path. Panics if a resume file is unreadable
/// or undecodable (continuing from scratch would silently discard
/// paid-for generations), if an auto-resumed checkpoint holds a spec
/// other than `spec` (finishing it would silently run a different
/// search; `ga.threads` is exempt and taken from `spec`), or if a
/// checkpoint write fails.
#[must_use]
pub fn run_search(w: &dyn Workload, spec: &SearchSpec) -> SearchResult {
    let ckpt = arg_value("--checkpoint")
        .or_else(|| std::env::var("GEVO_CHECKPOINT").ok())
        .map(|base| checkpoint::resolve_checkpoint_path(Path::new(&base), w.name(), spec));
    let every = env_usize("GEVO_CHECKPOINT_EVERY", 5).max(1);
    let stop_after = env_knob::<usize>("GEVO_STOP_AFTER");
    // Completed generations count from 1, and exit code 3 promises a
    // checkpoint to resume from: refuse a stop that could never fire or
    // would throw its generations away.
    if let Some(k) = stop_after {
        assert!(
            k > 0 && ckpt.is_some(),
            "GEVO_STOP_AFTER={k}: needs k >= 1 and --checkpoint or GEVO_CHECKPOINT"
        );
    }
    let explicit = arg_value("--resume").map(PathBuf::from);
    let auto_resume = explicit.is_none();
    let resume_from = explicit.or_else(|| ckpt.clone().filter(|p| p.exists()));

    let mut search = if let Some(path) = resume_from {
        let (mut state, note) =
            checkpoint::load_state_with_rollback(&path).unwrap_or_else(|e| panic!("{e}"));
        if let Some(note) = note {
            eprintln!("gevo: {note}");
        }
        if auto_resume {
            // The worker count never changes a trajectory: a re-run with
            // another GEVO_THREADS (or on a host with fewer cores) finishes
            // the same search with the workers it asked for.
            state.spec.ga.threads = spec.ga.threads;
        }
        assert!(
            !auto_resume || state.spec == *spec,
            "checkpoint {} holds a different search than the one requested; \
             delete it to start afresh, or pass --resume {} to finish the search it holds",
            path.display(),
            path.display()
        );
        Search::resume(w, &state)
    } else {
        let fresh = Search::from_spec(w, spec.clone());
        // GEVO_MUT_WEIGHTS applies to fresh sessions only: resumed
        // states already carry the weights their run started with.
        match mut_weights_knob() {
            Some(weights) => fresh.weights(weights),
            None => fresh,
        }
    }
    .quarantine(quarantine_knob());

    while let StepStatus::Advanced { gen } = search.step() {
        let completed = gen + 1;
        let stopping = stop_after == Some(completed);
        if let Some(path) = &ckpt {
            if stopping || completed % every == 0 {
                checkpoint::write_checkpoint(path, &search.checkpoint());
            }
        }
        if stopping {
            std::process::exit(checkpoint::STOPPED_EXIT_CODE);
        }
        // Chaos worker panics fire here, at the step boundary *after*
        // any due checkpoint — outside the evaluation isolation, so a
        // rerun resumes from the checkpoint and replays the identical
        // trajectory (the recovery invariant chaos_check asserts).
        chaos::maybe_worker_panic(search.eval_stats().evals);
    }
    search.into_result()
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
    format!(
        "pop {}, {} gens, seed {}{objectives}",
        ga.population, ga.generations, ga.seed
    )
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
    use gevo_engine::Evaluator;

    #[test]
    fn env_overrides_parse() {
        std::env::set_var("GEVO_TEST_X", "17");
        assert_eq!(env_usize("GEVO_TEST_X", 3), 17);
        assert_eq!(env_usize("GEVO_TEST_MISSING", 3), 3);
        std::env::set_var("GEVO_TEST_EMPTY", "");
        assert_eq!(env_usize("GEVO_TEST_EMPTY", 4), 4);
        assert_eq!(parse_knob::<u64>("--n", Some(" 12 ")), Some(12));
        assert!(std::panic::catch_unwind(|| parse_knob::<u64>("--n", Some("-1"))).is_err());
        // A typo panics naming the variable and the value.
        std::env::set_var("GEVO_TEST_BAD", "zzz");
        let typo = std::panic::catch_unwind(|| env_usize("GEVO_TEST_BAD", 5)).unwrap_err();
        let msg = typo.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("GEVO_TEST_BAD") && msg.contains("\"zzz\""),
            "{msg}"
        );
    }

    #[test]
    fn removed_knobs_are_named_not_ignored() {
        let args = |a: &[&str]| a.iter().map(ToString::to_string).collect::<Vec<_>>();
        let unset = |_: &str| None;
        // A removed variable's name as a flag's value is not the variable.
        let plain = args(&["bin", "--workload", "simcov", "--tag", "GEVO_ADAPT"]);
        assert_eq!(removed_knob(&plain, unset), None);
        assert_eq!(
            removed_knob(&[], |_: &str| Some(" ".to_string())),
            None,
            "empty is unset"
        );
        for (knob, what) in REMOVED_KNOBS {
            let refusal = if knob.starts_with("--") {
                assert!(removed_knob(&args(&["bin", &format!("{knob}=4")]), unset).is_some());
                removed_knob(&args(&["bin", knob, "4"]), unset)
            } else {
                removed_knob(&[], |name: &str| (name == knob).then(|| "4".to_string()))
            };
            assert_eq!(
                refusal.as_deref(),
                Some(format!("{knob} is no longer supported ({what} was removed)").as_str())
            );
        }
    }

    #[test]
    fn unknown_gevo_variables_are_named_not_ignored() {
        let vars = |v: &[(&str, &str)]| {
            v.iter()
                .map(|(n, x)| ((*n).to_string(), (*x).to_string()))
                .collect::<Vec<_>>()
        };
        let mut every_knob: Vec<(&str, &str)> = KNOBS.iter().map(|k| (*k, "1")).collect();
        every_knob.extend(REMOVED_KNOBS.iter().map(|(k, _)| (*k, "1")));
        every_knob.extend([("PATH", "/bin"), ("GEVOX", "1"), ("GEVO_EMPTY", " ")]);
        assert_eq!(unknown_knob(vars(&every_knob)), None);
        let typos = vars(&[("GEVO_POP", "6"), ("GEVO_GEN", "5"), ("GEVO_EPOCHS", "2")]);
        let refusal = unknown_knob(typos).expect("refused");
        assert!(
            refusal.starts_with("GEVO_EPOCHS is not a known knob (known: GEVO_POP, "),
            "{refusal}"
        );
        assert!(refusal.contains("GEVO_GENS") && refusal.contains("GEVO_FROM_GA"));
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
        let single = budget_banner(&base);
        assert_eq!(single, "pop 32, 10 gens, seed 0");
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
    fn objectives_knob_parses_names() {
        std::env::remove_var("GEVO_OBJECTIVES");
        assert_eq!(objectives_knob(), vec![Objective::Cycles]);
        std::env::set_var("GEVO_OBJECTIVES", "cycles, error");
        assert_eq!(objectives_knob(), vec![Objective::Cycles, Objective::Error]);
        std::env::set_var("GEVO_OBJECTIVES", "cycles,eror");
        let typo = std::panic::catch_unwind(objectives_knob);
        std::env::remove_var("GEVO_OBJECTIVES");
        let msg = typo.expect_err("unknown objective must panic");
        let msg = msg
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("\"eror\""), "names the bad entry: {msg}");
    }

    #[test]
    fn registry_workloads_evaluate_with_the_o2_passes() {
        // `gevo-serve` builds its jobs from this registry and sets no
        // lowering level, so the library's one pipeline must be the
        // optimizing one.
        for name in ["adept-v0", "adept-v1", "simcov"] {
            let w = workload_by_name(name).expect("registry name");
            let ev = Evaluator::new(w.as_ref());
            assert!(ev.baseline() > 0.0, "{name}: baseline runs");
            assert!(
                ev.stats().uniform_insts > 0,
                "{name}: baseline compiled without the uniformity pass"
            );
        }
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(2.0, 3.0), "######");
        assert_eq!(bar(0.0, 3.0), "");
    }
}
