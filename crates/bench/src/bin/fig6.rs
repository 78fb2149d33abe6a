//! Figure 6: distribution of improvements across repeated GEVO runs
//! (ADEPT-V1 and SIMCoV on the P100).
//!
//! The paper runs each configuration ten times and plots the band of
//! best-fitness trajectories (min/mean/max per generation); ADEPT-V1
//! spans 1.10x–1.33x, SIMCoV 1.18x–1.35x. The paper attributes the spread
//! to how completely each run discovers the epistatic subgroups (§V-C).
//!
//! Budget via GEVO_RUNS / GEVO_POP / GEVO_GENS.

use gevo_bench::{adept_on, env_usize, harness_spec, run_search, scaled_table1_specs, simcov_on};
use gevo_engine::{SearchResult, Workload};
use gevo_workloads::adept::Version;

fn band(results: &[SearchResult], gens: usize) {
    println!(
        "| {:>4} | {:>6} | {:>6} | {:>6} |",
        "gen", "min", "mean", "max"
    );
    let stride = (gens / 12).max(1);
    for g in (0..gens).step_by(stride) {
        let at: Vec<f64> = results
            .iter()
            .filter_map(|r| r.history.records.get(g).map(|rec| rec.best_speedup))
            .collect();
        if at.is_empty() {
            continue;
        }
        let min = at.iter().copied().fold(f64::INFINITY, f64::min);
        let max = at.iter().copied().fold(0.0f64, f64::max);
        let mean = at.iter().sum::<f64>() / at.len() as f64;
        println!("| {g:>4} | {min:>5.2}x | {mean:>5.2}x | {max:>5.2}x |");
    }
    let finals: Vec<f64> = results.iter().map(|r| r.speedup).collect();
    let min = finals.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finals.iter().copied().fold(0.0f64, f64::max);
    let mean = finals.iter().sum::<f64>() / finals.len() as f64;
    let var = finals.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / finals.len() as f64;
    println!(
        "final: min {min:.2}x mean {mean:.2}x (±{:.2}) max {max:.2}x over {} runs",
        var.sqrt(),
        finals.len()
    );
}

fn runs(w: &dyn Workload, pop: usize, gens: usize, n: usize) -> Vec<SearchResult> {
    (0..n)
        .map(|i| {
            let spec = harness_spec(pop, gens).with_seed(1 + i as u64);
            run_search(w, &spec)
        })
        .collect()
}

fn main() {
    let n = env_usize("GEVO_RUNS", 10);
    let gens = env_usize("GEVO_GENS", 25);
    let pop = env_usize("GEVO_POP", 20);
    let p100 = &scaled_table1_specs()[0];

    println!("Figure 6(a): ADEPT-V1 on P100, {n} runs (pop {pop}, {gens} gens)");
    let adept = adept_on(Version::V1, p100);
    let a = runs(&adept, pop, gens, n);
    band(&a, gens);
    println!("(paper: min 1.10x, mean 1.20x ±0.08, max 1.33x over 303 generations)");
    println!();

    // SIMCoV's search space rewards longer runs (the paper gave it 130
    // generations); it gets a larger default budget.
    let s_gens = env_usize("GEVO_GENS", 50);
    let s_pop = env_usize("GEVO_POP", 32);
    println!("Figure 6(b): SIMCoV on P100, {n} runs (pop {s_pop}, {s_gens} gens)");
    let simcov = simcov_on(p100);
    let s = runs(&simcov, s_pop, s_gens, n);
    band(&s, s_gens);
    println!("(paper: min 1.18x, mean 1.28x ±0.06, max 1.35x over 130 generations)");
    println!();
    println!("Shape to check: a band, not a line — run-to-run variance driven by");
    println!("which optimizations each run happens to discover (§IV).");
}
