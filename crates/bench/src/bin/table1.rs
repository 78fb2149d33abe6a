//! Table I: architectural characteristics of the GPUs.
//!
//! Prints the paper's table from the simulator's specs, then every
//! other spec and cost-model field whose value is not the same on all
//! three GPUs (the model parameters this reproduction adds, DESIGN.md
//! §3.2).

use gevo_gpu::GpuSpec;

/// Fields the Table I rows already show (`name` is the header).
const TABLE_I_FIELDS: [&str; 7] = [
    "name",
    "family",
    "sm_count",
    "cores_per_sm",
    "clock_mhz",
    "shared_mem_per_block",
    "independent_thread_scheduling",
];

fn row(label: &str, cells: [String; 3]) {
    let [a, b, c] = cells;
    println!("| {label:<30} | {a:>10} | {b:>10} | {c:>10} |");
}

fn rule() {
    println!(
        "|{}|{}|{}|{}|",
        "-".repeat(32),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(12)
    );
}

fn main() {
    println!("Table I: ARCHITECTURAL CHARACTERISTICS OF THE GPUS");
    println!();
    let specs = GpuSpec::table1();
    let per_gpu = |f: &dyn Fn(&GpuSpec) -> String| [0, 1, 2].map(|i| f(&specs[i]));
    row("GPU", per_gpu(&|s| s.name.clone()));
    rule();
    row("Architecture Family", per_gpu(&|s| s.family.clone()));
    row("CUDA cores", per_gpu(&|s| s.cuda_cores().to_string()));
    row(
        "Core Frequency (MHz)",
        per_gpu(&|s| s.clock_mhz.to_string()),
    );
    row("SMs", per_gpu(&|s| s.sm_count.to_string()));
    row("Warp size", per_gpu(&|s| s.warp_size.to_string()));
    row(
        "Shared mem/block (KB)",
        per_gpu(&|s| (s.shared_mem_per_block / 1024).to_string()),
    );
    row(
        "Indep. thread sched.",
        per_gpu(&|s| {
            if s.independent_thread_scheduling {
                "yes"
            } else {
                "no"
            }
            .to_string()
        }),
    );
    println!();
    println!("Model parameters that differ between the GPUs (costs in cycles):");
    println!();
    row("field", per_gpu(&|s| s.name.clone()));
    rule();
    let differing = GpuSpec::differing_fields(&specs);
    let fields: Vec<_> = specs.iter().map(GpuSpec::fields).collect();
    for (i, (name, _)) in fields[0].iter().enumerate() {
        if differing.contains(name) && !TABLE_I_FIELDS.contains(name) {
            row(name, [0, 1, 2].map(|k| fields[k][i].1.clone()));
        }
    }
    println!();
    println!("(paper values: P100/1080Ti/V100 = Pascal/Pascal/Volta, 3584/3584/5120 cores,");
    println!(" 1386/1999/1530 MHz, 16GB HBM / 11GB GDDR5X / 16GB HBM2)");
}
