//! Island-engine measurement harness: 1 island vs N islands at an
//! **equal total evaluation budget** (same population, same
//! generations) on ADEPT-V0 and `SIMCoV`.
//!
//! Reports, per configuration: best speedup, fitness evaluations
//! actually performed (cache misses), sharded-cache hit rate, wall
//! time, evals/sec and interpreter throughput (simulated
//! warp-instructions per wall-second — evals/sec conflates simulator
//! speed with kernel size and cache behaviour; winstr/sec isolates the
//! interpreter) — the numbers recorded in EXPERIMENTS.md.
//!
//! Budget via GEVO_POP / GEVO_GENS / GEVO_SEED; island count via
//! `--islands N` / GEVO_ISLANDS (that count is compared against 1).

use gevo_bench::{
    adept_on, env_usize, harness_spec, islands_knob, row, run_search, scaled_table1_specs,
    simcov_on,
};
use gevo_engine::{SearchResult, SearchSpec, Workload};
use gevo_workloads::adept::Version;
use std::time::Instant;

#[allow(clippy::cast_precision_loss)]
fn measure(w: &dyn Workload, spec: &SearchSpec) -> (SearchResult, f64, f64) {
    let start = Instant::now();
    let res = run_search(w, spec);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let lookups = res.evals + res.cache_hits;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        res.cache_hits as f64 / lookups as f64
    };
    (res, hit_rate, secs)
}

#[allow(clippy::cast_precision_loss)]
fn report(name: &str, w: &dyn Workload, islands: usize, pop: usize, gens: usize) {
    println!("## {name} (pop {pop}, {gens} gens, seed fixed)");
    row(&[
        "islands".into(),
        "best speedup".into(),
        "evals".into(),
        "cache hit-rate".into(),
        "evals/sec".into(),
        "Mwinstr/sec".into(),
        "migrations".into(),
    ]);
    row(&[
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
    ]);
    let mut best = Vec::new();
    for n in [1, islands] {
        let mut spec = harness_spec(pop, gens);
        spec.islands = n;
        let (res, hit_rate, secs) = measure(w, &spec);
        row(&[
            n.to_string(),
            format!("{:.2}x", res.speedup),
            res.evals.to_string(),
            format!("{:.1}%", 100.0 * hit_rate),
            format!("{:.0}", res.evals as f64 / secs),
            format!("{:.2}", res.instructions as f64 / secs / 1e6),
            res.history.migrations.len().to_string(),
        ]);
        best.push(res.best.fitness.expect("best is valid"));
    }
    let [single, multi] = best[..] else {
        unreachable!("two configurations measured")
    };
    println!(
        "{islands}-island best fitness {} the 1-island run ({multi:.1} vs {single:.1} cycles)",
        if multi <= single {
            "matches or beats"
        } else {
            "trails"
        }
    );
    println!();
}

fn main() {
    let islands = match islands_knob() {
        1 => 4, // comparing 1 vs 1 says nothing; default the contrast to 4
        n => n,
    };
    println!(
        "Island engine: 1 vs {islands} islands at equal budget (GEVO_MIGRATION {})",
        env_usize("GEVO_MIGRATION", 5)
    );
    println!();
    let p100 = &scaled_table1_specs()[0];

    let adept = adept_on(Version::V0, p100);
    report(
        "ADEPT-V0 / P100",
        &adept,
        islands,
        env_usize("GEVO_POP", 32),
        env_usize("GEVO_GENS", 14),
    );

    let simcov = simcov_on(p100);
    report(
        "SIMCoV / P100",
        &simcov,
        islands,
        env_usize("GEVO_POP", 32),
        env_usize("GEVO_GENS", 20),
    );

    println!("Shape to check: equal budgets, so evals are comparable; islands");
    println!("trade a panmictic population for parallel basins plus migration,");
    println!("and the sharded cache keeps concurrent lookups from serializing.");
}
