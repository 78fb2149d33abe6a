//! Evolve SIMCoV and retrace the paper's §VI-D boundary-check story:
//! the GA finds edits that pass the small fitness grid, and held-out
//! validation on a large grid exposes the out-of-bounds ones (Fig. 10).
//!
//! ```text
//! cargo run --release --example simcov_evolve [generations] [population]
//! ```

use gevo_repro::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let gens: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    let pop: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);

    let workload = SimcovWorkload::new(SimcovConfig::scaled());
    let cfg = GaConfig {
        population: pop,
        generations: gens,
        seed: 2,
        ..GaConfig::scaled()
    };
    println!(
        "== evolving {} (pop {pop}, {gens} gens) ==",
        workload.name()
    );
    let result = Search::new(&workload).config(cfg).run();
    println!(
        "speedup {:.3}x with {} edits",
        result.speedup,
        result.best.patch.len()
    );

    // Which of the known boundary-check sites did the GA hit?
    let hits = workload
        .boundary_edits()
        .iter()
        .filter(|e| result.history.discovered_at(e).is_some())
        .count();
    println!("boundary-check sites among discovered edits: {hits}/16");

    // Minimize, then the Fig. 10 held-out experiment.
    let ev = Evaluator::new(&workload);
    let min = minimize_weak_edits(&ev, &result.best.patch, 0.01);
    println!(
        "minimized: {} -> {} edits at {:.3}x",
        result.best.patch.len(),
        min.kept.len(),
        min.speedup_minimized
    );

    println!();
    println!("== Fig. 10: held-out 64x64 grid, field at the end of device memory ==");
    match workload.validate_heldout(&min.kept, 64, 6) {
        Ok(()) => println!("evolved patch PASSES the large grid"),
        Err(e) => {
            println!("evolved patch FAILS the large grid: {e}");
            println!("(the paper's boundary-check removal segfaulted on 2500x2500 —");
            println!(" the fix is zero padding, compare `SimcovConfig::scaled().padded()`)");
        }
    }
}
