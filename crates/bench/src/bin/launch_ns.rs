//! Per-launch wall-clock probe, one case per process invocation.
//!
//! Prints a single JSON line with the measured ns/launch. The point of
//! the process granularity: interleaving *processes* built from two
//! different commits (`A B A B …`) is the only way to A/B-compare code
//! versions that cannot coexist in one binary, while still sampling both
//! sides under the same minutes-scale machine drift. EXPERIMENTS.md
//! records the methodology; `benches/compile.rs` does the in-process
//! interleaving for contrasts that do coexist (source vs compiled,
//! fresh vs reused scratch).
//!
//! Usage: `launch_ns <adept_v0|simcov_cdiff|simcov_eval> [iters]`
//!
//! The JSON line also records the compiled case's static pass counts,
//! so an A/B of two invocations is self-describing.

use gevo_bench::cases;
use gevo_engine::Workload;
use gevo_gpu::CompiledKernel;
use std::hint::black_box;
use std::time::Instant;

#[allow(clippy::cast_precision_loss)]
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..(iters / 10).max(3) {
        f(); // warmup
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let mut args = std::env::args().skip(1);
    let case = args.next().unwrap_or_else(|| "adept_v0".into());
    let mut iters: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(2000);

    let (ns_per_iter, launches_per_iter, mix) = match case.as_str() {
        "adept_v0" | "simcov_cdiff" => {
            let (mut gpu, kernel, cfg, kargs) = if case == "adept_v0" {
                cases::adept_v0_case()
            } else {
                cases::simcov_cdiff_case()
            };
            let compiled = gpu.compile(&kernel).expect("pristine kernel compiles");
            // GEVO_PROBE_STATS=1 dumps the case's instruction mix to
            // stderr, for sanity-checking what a ns/launch figure is
            // actually amortized over.
            if std::env::var("GEVO_PROBE_STATS").is_ok() {
                let s = gpu.launch_compiled(&compiled, cfg, &kargs).unwrap();
                eprintln!(
                    "insts={} alu={} glob={} shared={} div={} warps/blk={} blocks={}",
                    s.instructions,
                    s.alu_instructions,
                    s.global_accesses,
                    s.shared_accesses,
                    s.divergent_branches,
                    s.warps_per_block,
                    s.blocks
                );
            }
            let ns = time_ns(iters, || {
                black_box(gpu.launch_compiled(&compiled, cfg, &kargs).expect("launch"));
            });
            let mix = static_mix(std::slice::from_ref(&compiled));
            (ns, 1.0, mix)
        }
        "simcov_eval" => {
            let (w, compiled, launches) = cases::simcov_eval_case();
            // Full evaluations are ~10^3x slower than single launches;
            // clamp to a sane sample and report the count actually run.
            iters = iters.clamp(5, 60);
            let ns = time_ns(iters, || {
                assert!(black_box(w.evaluate_compiled(&compiled, 0)).is_valid());
            });
            let mix = static_mix(&compiled);
            (ns, launches, mix)
        }
        other => {
            eprintln!("unknown case {other}; want adept_v0|simcov_cdiff|simcov_eval");
            std::process::exit(2);
        }
    };
    let (insts, uniform, folded) = mix;
    println!(
        "{{\"case\":\"{case}\",\"iters\":{iters},\
         \"ns_per_iter\":{ns_per_iter:.1},\"ns_per_launch\":{:.1},\
         \"insts\":{insts},\"uniform_insts\":{uniform},\"folded_insts\":{folded}}}",
        ns_per_iter / launches_per_iter
    );
}

/// Static pass counts of the compiled case: total instructions lowered,
/// uniform-tagged and folded.
fn static_mix(compiled: &[CompiledKernel]) -> (usize, usize, usize) {
    (
        compiled.iter().map(CompiledKernel::inst_count).sum(),
        compiled
            .iter()
            .map(CompiledKernel::uniform_inst_count)
            .sum(),
        compiled.iter().map(CompiledKernel::folded_inst_count).sum(),
    )
}
