//! Figure 5: SIMCoV performance on the three GPUs.
//!
//! Paper values: 1.29x / 1.43x / 1.17x (P100 / 1080Ti / V100).
//!
//! Reports a budgeted GA run per GPU (the curated optimum: `scorecard`).
//! Budget via GEVO_POP / GEVO_GENS / GEVO_SEED.

use gevo_bench::{bar, budget_banner, harness_spec, run_search, scaled_table1_specs, simcov_on};

fn main() {
    let cfg = harness_spec(40, 50);
    println!(
        "Figure 5: SIMCoV GA speedups (budget: {})",
        budget_banner(&cfg)
    );
    println!();
    println!("| {:<7} | {:>9} | paper |", "GPU", "GA");
    for (spec, paper) in scaled_table1_specs().iter().zip([1.29, 1.43, 1.17]) {
        let ga = run_search(&simcov_on(spec), &cfg);
        println!("| {:<7} | {:>8.2}x | {paper:.2}x |", spec.name, ga.speedup);
        println!("|   {}", bar((ga.speedup - 1.0) * 10.0, 2.0));
    }
    println!();
    println!("The paper's shape: every GPU gains tens of percent, 1080Ti most, V100 least.");
    println!("Whether it holds: the fig5 rows of the `scorecard` bin.");
}
