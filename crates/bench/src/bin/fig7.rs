//! Figure 7: the epistatic-edit relation graph for ADEPT-V1 on P100,
//! plus the §V-A/§V-B pipeline numbers that lead to it.
//!
//! Pipeline: best patch → Algorithm 1 (weak-edit minimization) →
//! Algorithm 2 (independent/epistatic split) → exhaustive subset
//! analysis → dependency graph. The paper's run reduces 1394 edits to 17
//! (5 independent @7% + 12 epistatic @17%), finds that edits 8/10 depend
//! on 6, edit 5 on all three, and a second (0, 11) subgroup — with
//! "Exec failed" regions for consumers applied alone.
//!
//! By default the pipeline runs on the curated optimization patch
//! (deterministic); set GEVO_FROM_GA=1 to run it on a fresh GA result.

use gevo_bench::{
    adept_on, check_knobs, env_usize, harness_spec, quarantine_knob, run_search,
    scaled_table1_specs,
};
use gevo_engine::{
    dependency_graph, minimize_weak_edits, split_independent, subset_analysis, Evaluator, Patch,
};
use gevo_workloads::adept::Version;

fn main() {
    check_knobs();
    let p100 = &scaled_table1_specs()[0];
    let w = adept_on(Version::V1, p100);
    let ev = Evaluator::new(&w).quarantine(quarantine_knob());

    let (patch, origin) = if env_usize("GEVO_FROM_GA", 0) == 1 {
        let spec = harness_spec(32, 40);
        println!(
            "(evolving first: pop {}, {} gens...)",
            spec.ga.population, spec.ga.generations
        );
        (run_search(&w, &spec).best.patch, "GA best individual")
    } else {
        (w.curated_patch(), "curated optimization patch")
    };
    println!(
        "Figure 7 pipeline on ADEPT-V1 @ P100 — input: {origin}, {} edits",
        patch.len()
    );
    println!();

    // §V-A: Algorithm 1.
    let min = minimize_weak_edits(&ev, &patch, 0.01);
    println!(
        "Algorithm 1: {} -> {} edits (speedup {:.3}x -> {:.3}x; paper: 1394 -> 17, 28.9% -> 28%)",
        patch.len(),
        min.kept.len(),
        min.speedup_full,
        min.speedup_minimized
    );

    // §V-B: Algorithm 2.
    let split = split_independent(&ev, &min.kept, 0.01);
    println!(
        "Algorithm 2: {} independent ({:.1}% together) + {} epistatic ({:.1}% together)",
        split.independent.len(),
        (split.speedup_independent - 1.0) * 100.0,
        split.epistatic.len(),
        (split.speedup_epistatic - 1.0) * 100.0
    );
    println!("(paper: 5 independent @7% + 12 epistatic @17%)");
    println!();

    // §V-C: exhaustive subsets + graph.
    let epistatic = if split.epistatic.len() > gevo_engine::MAX_SUBSET_EDITS {
        println!(
            "(epistatic set has {} edits; analyzing the first {})",
            split.epistatic.len(),
            gevo_engine::MAX_SUBSET_EDITS
        );
        split.epistatic[..gevo_engine::MAX_SUBSET_EDITS].to_vec()
    } else {
        split.epistatic.clone()
    };
    if epistatic.is_empty() {
        println!("no epistatic edits to analyze in this input");
        return;
    }
    let named: Vec<String> = epistatic
        .iter()
        .map(|e| {
            w.labeled_edits()
                .into_iter()
                .find(|(_, le)| le == e)
                .map_or_else(|| e.to_string(), |(n, _)| n)
        })
        .collect();
    let base = Patch::from_edits(epistatic.clone());
    let table = subset_analysis(&ev, &base, &epistatic);
    let graph = dependency_graph(&table);

    println!("edit legend:");
    for (i, n) in named.iter().enumerate() {
        let solo = match table.outcomes[1 << i] {
            gevo_engine::SubsetOutcome::Failed => "EXEC FAILED".to_string(),
            gevo_engine::SubsetOutcome::Speedup(s) => format!("{:+.1}%", (s - 1.0) * 100.0),
        };
        println!("  [{i}] {n:<12} alone: {solo}");
    }
    println!();
    println!("dependency edges (j requires i):");
    for (j, reqs) in graph.requires.iter().enumerate() {
        for i in reqs {
            println!("  [{j}] {} --> [{i}] {}", named[j], named[*i]);
        }
    }
    println!();
    println!("epistatic subgroups and their best subset speedups:");
    for (g, members) in graph.subgroups.iter().enumerate() {
        let names: Vec<&str> = members.iter().map(|&i| named[i].as_str()).collect();
        println!(
            "  group {g}: {{{}}} -> {:+.1}%",
            names.join(", "),
            (graph.subgroup_speedup[g] - 1.0) * 100.0
        );
    }
    println!();
    println!("selected subset outcomes (the figure's shaded regions):");
    for mask in 0..table.outcomes.len() {
        let popcount = mask.count_ones();
        if popcount == 0 || popcount > 4 && mask + 1 != table.outcomes.len() {
            continue;
        }
        let members: Vec<&str> = (0..epistatic.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| named[i].as_str())
            .collect();
        let label = match table.outcomes[mask] {
            gevo_engine::SubsetOutcome::Failed => "EXEC FAILED".to_string(),
            gevo_engine::SubsetOutcome::Speedup(s) => format!("{:+.1}%", (s - 1.0) * 100.0),
        };
        if popcount <= 2
            || matches!(table.outcomes[mask], gevo_engine::SubsetOutcome::Speedup(s) if s > 1.04)
        {
            println!("  {{{}}}: {label}", members.join(", "));
        }
    }
    println!();
    println!("(paper Fig. 7 regions: exec-failed for 5/8/10/11 alone; <1%; 2%;");
    println!(" 6% for the (0,11) subgroup; 10%; 15%; 17% for the full set)");
}
