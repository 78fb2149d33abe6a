//! §V-A: edit-minimization statistics.
//!
//! The paper reduces the best ADEPT-V1 patch from 1394 edits to 17 with a
//! 0.9-percentage-point performance loss (28.9% → 28%). This harness runs
//! Algorithm 1 on a GA result (bloated genome) and reports the same
//! statistics.
//!
//! Budget via GEVO_POP / GEVO_GENS / GEVO_SEED.

use gevo_bench::{adept_on, harness_spec, quarantine_knob, run_search, scaled_table1_specs};
use gevo_engine::{minimize_weak_edits, Evaluator, Workload};
use gevo_workloads::adept::Version;

fn main() {
    let p100 = &scaled_table1_specs()[0];
    for version in [Version::V0, Version::V1] {
        let w = adept_on(version, p100);
        let spec = harness_spec(24, 20);
        println!(
            "{}: evolving (pop {}, {} gens, seed {})...",
            w.name(),
            spec.ga.population,
            spec.ga.generations,
            spec.ga.seed
        );
        let result = run_search(&w, &spec);
        let ev = Evaluator::new(&w).quarantine(quarantine_knob());
        let report = minimize_weak_edits(&ev, &result.best.patch, 0.01);
        println!(
            "  genome: {} edits at {:.3}x -> minimized: {} edits at {:.3}x",
            result.best.patch.len(),
            report.speedup_full,
            report.kept.len(),
            report.speedup_minimized
        );
        println!(
            "  performance retained: {:.1}% of the improvement ({} weak edits dropped)",
            100.0 * (report.speedup_minimized - 1.0) / (report.speedup_full - 1.0).max(1e-9),
            report.removed.len()
        );
        println!("  kept edits:");
        for e in report.kept.edits() {
            println!("    {e}");
        }
        println!();
    }
    println!("(paper: 1394 -> 17 edits, 28.9% -> 28% improvement retained)");
}
