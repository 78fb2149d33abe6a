//! Multi-objective (NSGA-II) search harness: evolve a Table-1 workload
//! against two objectives and report the Pareto front.
//!
//! GEVO (Liou et al., TACO 2020) does not rank variants by a single
//! scalar — it runs NSGA-II over runtime *and* error. This harness
//! reproduces that recipe on the reproduction's workloads:
//!
//! * `SIMCoV` against (cycles, error) — the fuzzy per-value validation
//!   gives a real accuracy budget to trade against speed;
//! * ADEPT-V0 against (cycles, `mem_traffic`) — exact-output workload,
//!   so the second axis is the DRAM-traffic proxy instead.
//!
//! Budget via `GEVO_POP` / `GEVO_GENS` / `GEVO_SEED`; objective pair via
//! `GEVO_OBJECTIVES` (defaults per workload as above).
//!
//! `--json` switches to one JSON object per front point (markdown
//! suppressed):
//!
//! ```text
//! {"workload":"SIMCoV / P100","objectives":["cycles","error"],
//!  "front_size":3,"point":0,"cycles":...,"scores":[...,...],
//!  "speedup":...,"edits":...}
//! ```

use gevo_bench::{adept_on, budget_banner, harness_spec, row, run_search};
use gevo_bench::{scaled_table1_specs, simcov_on};
use gevo_engine::{Objective, Workload};
use gevo_workloads::adept::Version;

fn report(name: &str, w: &dyn Workload, objectives: &[Objective], json: bool) {
    // harness_spec already honors GEVO_POP/GEVO_GENS; these are the
    // fallback defaults.
    let mut spec = harness_spec(24, 12);
    // GEVO_OBJECTIVES wins when set; otherwise the per-workload default.
    if std::env::var("GEVO_OBJECTIVES").is_err() {
        spec.objectives = objectives.to_vec();
        spec.selection = gevo_engine::Selection::Nsga2;
    }
    let names: Vec<&str> = spec.objectives.iter().map(|o| o.name()).collect();
    if !json {
        println!("## {name} — NSGA-II ({})", budget_banner(&spec));
        let mut hdr: Vec<String> = vec!["point".into()];
        hdr.extend(names.iter().map(|n| (*n).to_string()));
        hdr.push("speedup".into());
        hdr.push("edits".into());
        row(&hdr);
        row(&vec!["---".into(); hdr.len()]);
    }
    let res = run_search(w, &spec);
    let mut front = res.pareto.clone();
    // Present the front fastest-first (archive order is discovery order).
    front.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
    for (i, p) in front.iter().enumerate() {
        let speedup = res.history.baseline / p.fitness;
        if json {
            let scores: Vec<String> = p.scores.iter().map(|s| format!("{s:.6}")).collect();
            let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            println!(
                "{{\"workload\":\"{name}\",\"objectives\":[{}],\"front_size\":{},\
                 \"point\":{i},\"cycles\":{:.1},\"scores\":[{}],\"speedup\":{speedup:.6},\
                 \"edits\":{}}}",
                quoted.join(","),
                front.len(),
                p.fitness,
                scores.join(","),
                p.patch.len(),
            );
        } else {
            let mut cells: Vec<String> = vec![i.to_string()];
            cells.extend(p.scores.iter().map(|s| format!("{s:.4}")));
            cells.push(format!("{speedup:.2}x"));
            cells.push(p.patch.len().to_string());
            row(&cells);
        }
    }
    if !json {
        println!(
            "front: {} non-dominated points (best scalar speedup {:.2}x)",
            front.len(),
            res.speedup
        );
        println!();
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if !json {
        println!("Pareto fronts: NSGA-II over two objectives (GEVO's selection scheme)");
        println!();
    }
    let p100 = &scaled_table1_specs()[0];

    let simcov = simcov_on(p100);
    report(
        "SIMCoV / P100",
        &simcov,
        &[Objective::Cycles, Objective::Error],
        json,
    );

    let adept = adept_on(Version::V0, p100);
    report(
        "ADEPT-V0 / P100",
        &adept,
        &[Objective::Cycles, Objective::MemoryTraffic],
        json,
    );

    if !json {
        println!("Shape to check: SIMCoV's front trades accuracy (error budget");
        println!("consumed) for cycles; exact-output ADEPT collapses error to 0, so");
        println!("its second axis is memory traffic. A front with one point means");
        println!("one variant dominated everything — raise GEVO_GENS/GEVO_POP.");
    }
}
