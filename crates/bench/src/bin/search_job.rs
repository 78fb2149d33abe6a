//! One search job, end to end, as a single process: build a registry
//! workload, run the configured search, print the
//! [`SearchResult`](gevo_engine::SearchResult) as one JSON line on
//! stdout.
//!
//! This is the smallest checkpoint/resume client — the kill/restart
//! recovery tests run it twice (once with `GEVO_STOP_AFTER=k` +
//! `GEVO_CHECKPOINT`, which exits with code 3 at generation k, then
//! again with the same checkpoint to finish) and compare the final line
//! byte-for-byte against an uninterrupted process.
//!
//! ```text
//! search_job --workload adept-v0|adept-v1|simcov
//!            [--checkpoint <path>] [--resume <path>]
//! ```
//!
//! Budget via `GEVO_POP` / `GEVO_GENS` / `GEVO_SEED`; checkpoint
//! cadence via `GEVO_CHECKPOINT_EVERY`.

use gevo_bench::{arg_value, chaos, harness_spec, run_search, workload_by_name};

fn main() {
    let name = arg_value("--workload")
        .or_else(|| std::env::var("GEVO_WORKLOAD").ok())
        .unwrap_or_else(|| "adept-v0".to_string());
    let Some(w) = workload_by_name(&name) else {
        eprintln!("unknown workload {name:?} (expected adept-v0, adept-v1 or simcov)");
        std::process::exit(2);
    };
    // Fault-injection wrapper (a pass-through unless GEVO_CHAOS names
    // evaluation-level faults): this is the binary the chaos harness
    // drives to assert the recovery invariant.
    let w = chaos::wrap(w);
    let spec = harness_spec(8, 6);
    let result = run_search(w.as_ref(), &spec);
    println!("{}", result.to_json());
}
