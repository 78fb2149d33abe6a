//! Figure 4: ADEPT performance on the three GPUs.
//!
//! Paper values (normalized to ADEPT-V0 per GPU):
//!   V0-GEVO 32.8x / 32x / 18.4x, V1 ~20-30x, V1-GEVO adds 1.28x/1.31x/1.17x.
//!
//! This harness runs a budgeted GA on the naive version per GPU; the
//! curated optima and hand-tuned V1 are measured by the `scorecard` bin.
//! Budget via GEVO_POP / GEVO_GENS / GEVO_SEED.

use gevo_bench::{adept_on, bar, budget_banner, harness_spec, run_search, scaled_table1_specs};
use gevo_workloads::adept::Version;

fn main() {
    let cfg = harness_spec(24, 14);
    println!(
        "Figure 4: ADEPT-V0 GA speedups (budget: {})",
        budget_banner(&cfg)
    );
    println!();
    println!("| {:<7} | {:>9} | paper |", "GPU", "V0-GEVO");
    for (spec, paper) in scaled_table1_specs().iter().zip([32.8, 32.0, 18.4]) {
        let ga = run_search(&adept_on(Version::V0, spec), &cfg);
        println!("| {:<7} | {:>8.1}x | {paper:.1}x |", spec.name, ga.speedup);
        println!("|   {}", bar(ga.speedup, 2.0));
    }
    println!();
    println!("The paper's shapes: V0 gains are order-of-magnitude, V1 gains tens of percent,");
    println!("V100 gains least. Whether each holds: the fig4 rows of the `scorecard` bin.");
}
