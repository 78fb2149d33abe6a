//! GPU architecture descriptions (the paper's Table I).
//!
//! A [`GpuSpec`] bundles the microarchitectural parameters the timing
//! model consumes. Three built-in specs mirror the paper's evaluation
//! hardware; the numbers are *shape-preserving*, not cycle-exact for the
//! real parts: what matters for reproducing the paper is the relative cost
//! structure (shared vs. global vs. register exchange, divergence
//! serialization, Volta's expensive warp-synchronization) — see DESIGN.md
//! §2.

/// Latency/cost table, in SM cycles, consumed by the timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Simple integer/logic op.
    pub alu: u64,
    /// Integer multiply.
    pub imul: u64,
    /// Integer divide/remainder.
    pub idiv: u64,
    /// Simple float op.
    pub falu: u64,
    /// Float divide.
    pub fdiv: u64,
    /// Shared-memory **load** latency (conflict-free). Loads stall the
    /// warp until data returns.
    pub shared: u64,
    /// Shared-memory **store** issue cost. Stores are fire-and-forget
    /// (drained by a write buffer), so they cost far less than loads.
    pub shared_store: u64,
    /// Additional serialization cost per extra conflicting way in a
    /// shared-memory access.
    pub shared_conflict: u64,
    /// Scalarized shared **store** by a single active lane 0: the
    /// uniform-datapath fast path; see DESIGN.md §3.2 (stands in for the
    /// paper's unexplained edit-5 scheduling effect).
    pub shared_scalar: u64,
    /// Global **store** issue cost (write-buffered; cache/row state still
    /// updates, which is what makes §VI-E's dead-write effect possible).
    pub global_store: u64,
    /// Global access that hits in the per-SM cache.
    pub global_hit: u64,
    /// Global access that misses cache but hits the open DRAM row.
    pub global_row_hit: u64,
    /// Global access that misses cache and the open row.
    pub global_row_miss: u64,
    /// Issue cost per extra coalesced segment in a global access.
    pub global_segment: u64,
    /// Warp shuffle.
    pub shfl: u64,
    /// `ballot_sync` on this architecture. Volta-class parts pay a warp
    /// reconvergence here (paper §VI-B); Pascal-class parts treat it as a
    /// cheap vote.
    pub ballot: u64,
    /// `activemask` query.
    pub activemask: u64,
    /// Barrier base cost, plus [`CostModel::barrier_per_warp`] × warps.
    pub barrier: u64,
    /// Per-warp component of a barrier.
    pub barrier_per_warp: u64,
    /// Atomic on shared memory.
    pub atomic_shared: u64,
    /// Atomic on global memory.
    pub atomic_global: u64,
    /// `rng.next` (a handful of ALU ops on hardware).
    pub rng: u64,
    /// Taken-branch / reconvergence overhead charged per divergent branch.
    pub divergence: u64,
    /// Fixed kernel-launch overhead in cycles.
    pub launch_overhead: u64,
    /// Warp-instructions the SM can issue per cycle; the throughput bound
    /// of the roofline timing model (DESIGN.md §3.2).
    pub issue_width: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            imul: 2,
            idiv: 12,
            falu: 2,
            fdiv: 16,
            shared: 12,
            shared_store: 2,
            shared_conflict: 4,
            shared_scalar: 1,
            global_hit: 14,
            global_row_hit: 160,
            global_row_miss: 320,
            global_segment: 8,
            global_store: 24,
            shfl: 10,
            ballot: 2,
            activemask: 1,
            barrier: 6,
            barrier_per_warp: 1,
            atomic_shared: 16,
            atomic_global: 40,
            rng: 8,
            divergence: 20,
            launch_overhead: 50,
            issue_width: 4,
        }
    }
}

/// One GPU model: execution geometry, memory system and cost table.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"P100"`.
    pub name: String,
    /// Architecture family, e.g. `"Pascal"` (Table I row 1).
    pub family: String,
    /// Streaming multiprocessors; thread blocks are distributed over these
    /// round-robin.
    pub sm_count: u32,
    /// Lanes per warp. Real parts use 32; the scaled search specs use 8 to
    /// stretch the same kernels across multiple warps with fewer simulated
    /// lanes (DESIGN.md §4.4).
    pub warp_size: u32,
    /// CUDA cores per SM (64 on GP100/GV100, 128 on consumer Pascal).
    pub cores_per_sm: u32,
    /// Maximum threads per block accepted by a launch.
    pub max_threads_per_block: u32,
    /// Shared memory capacity per block in bytes.
    pub shared_mem_per_block: u32,
    /// Core clock in MHz (Table I), used to convert cycles to milliseconds.
    pub clock_mhz: u32,
    /// Device-memory arena size in bytes.
    pub device_mem_bytes: u64,
    /// Shared-memory banks (conflict granularity is a 4-byte word).
    pub shared_banks: u32,
    /// Coalescing segment size in bytes for global accesses.
    pub coalesce_bytes: u64,
    /// Per-SM cache: line size in bytes.
    pub cache_line_bytes: u64,
    /// Per-SM cache: number of direct-mapped lines.
    pub cache_lines: u64,
    /// DRAM row size in bytes (row-buffer locality granularity).
    pub dram_row_bytes: u64,
    /// Volta-and-later independent thread scheduling. Affects the cost of
    /// `ballot_sync` (paper §VI-B) and enables sub-warp progress rules.
    pub independent_thread_scheduling: bool,
    /// Instruction cost table.
    pub costs: CostModel,
    /// Upper bound on executed warp-steps per block, the timeout that
    /// catches mutation-induced infinite loops. The workloads' fitness
    /// runs use a tighter per-block budget measured from the pristine
    /// program (DESIGN.md §3.1); this is that budget's absolute
    /// ceiling, and the limit every other run (held-out validation,
    /// direct launches) keeps.
    pub step_limit: u64,
    /// Maximum simultaneously resident blocks per SM used by the occupancy
    /// model when serializing block waves.
    pub blocks_per_sm: u32,
}

impl GpuSpec {
    /// NVIDIA Tesla P100 (Pascal), per Table I: 3584 cores, 1386 MHz,
    /// 16 GB HBM (arena scaled down; see `device_mem_bytes`).
    #[must_use]
    pub fn p100() -> GpuSpec {
        GpuSpec {
            name: "P100".into(),
            family: "Pascal".into(),
            sm_count: 56,
            warp_size: 32,
            cores_per_sm: 64,
            max_threads_per_block: 1024,
            shared_mem_per_block: 48 * 1024,
            clock_mhz: 1386,
            device_mem_bytes: 64 << 20,
            shared_banks: 32,
            coalesce_bytes: 128,
            cache_line_bytes: 128,
            cache_lines: 512,
            dram_row_bytes: 2048,
            independent_thread_scheduling: false,
            costs: CostModel::default(),
            step_limit: 64_000_000,
            blocks_per_sm: 8,
        }
    }

    /// NVIDIA `GeForce` 1080Ti (Pascal), per Table I: 3584 cores, 1999 MHz,
    /// 11 GB GDDR5X. Same family as the P100 but higher clock and a
    /// GDDR-flavored memory system (smaller rows, slightly worse row-miss).
    #[must_use]
    pub fn gtx1080ti() -> GpuSpec {
        let costs = CostModel {
            global_row_hit: 140,
            global_row_miss: 360,
            ..CostModel::default()
        };
        GpuSpec {
            name: "1080Ti".into(),
            family: "Pascal".into(),
            sm_count: 28,
            warp_size: 32,
            cores_per_sm: 128,
            max_threads_per_block: 1024,
            shared_mem_per_block: 48 * 1024,
            clock_mhz: 1999,
            device_mem_bytes: 44 << 20,
            shared_banks: 32,
            coalesce_bytes: 128,
            cache_line_bytes: 128,
            cache_lines: 384,
            dram_row_bytes: 1024,
            independent_thread_scheduling: false,
            costs,
            step_limit: 64_000_000,
            blocks_per_sm: 8,
        }
    }

    /// NVIDIA Tesla V100 (Volta), per Table I: 5120 cores, 1530 MHz,
    /// 16 GB HBM2. Volta's independent thread scheduling makes
    /// `ballot_sync` a genuine warp synchronization (paper §VI-B).
    #[must_use]
    pub fn v100() -> GpuSpec {
        let costs = CostModel {
            ballot: 14,
            shared: 10,
            global_row_hit: 140,
            global_row_miss: 280,
            ..CostModel::default()
        };
        GpuSpec {
            name: "V100".into(),
            family: "Volta".into(),
            sm_count: 80,
            warp_size: 32,
            cores_per_sm: 64,
            max_threads_per_block: 1024,
            shared_mem_per_block: 48 * 1024,
            clock_mhz: 1530,
            device_mem_bytes: 64 << 20,
            shared_banks: 32,
            coalesce_bytes: 128,
            cache_line_bytes: 128,
            cache_lines: 640,
            dram_row_bytes: 2048,
            independent_thread_scheduling: true,
            costs,
            step_limit: 64_000_000,
            blocks_per_sm: 8,
        }
    }

    /// All three evaluation GPUs, in the paper's Table I order.
    #[must_use]
    pub fn table1() -> Vec<GpuSpec> {
        vec![GpuSpec::p100(), GpuSpec::gtx1080ti(), GpuSpec::v100()]
    }

    /// A down-scaled variant of this spec for fast evolutionary search:
    /// same cost structure, but `warp_size` lanes per warp and fewer SMs,
    /// so the scaled kernels still exercise intra-warp *and* cross-warp
    /// code paths with an order of magnitude fewer simulated lanes
    /// (DESIGN.md §4.4).
    #[must_use]
    pub fn scaled(&self, warp_size: u32) -> GpuSpec {
        let mut s = self.clone();
        s.name = format!("{}-scaled", self.name);
        s.warp_size = warp_size;
        s.sm_count = 4;
        s.shared_banks = warp_size;
        s.step_limit = 8_000_000;
        s
    }

    /// Total CUDA cores (Table I row 2).
    #[must_use]
    pub fn cuda_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }

    /// Every field of the spec and its cost table, as `(name, value)`
    /// in declaration order; cost fields are named `costs.<field>`.
    /// Both structs are destructured without `..`, so a new field does
    /// not compile until it is listed here.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let GpuSpec {
            name,
            family,
            sm_count,
            warp_size,
            cores_per_sm,
            max_threads_per_block,
            shared_mem_per_block,
            clock_mhz,
            device_mem_bytes,
            shared_banks,
            coalesce_bytes,
            cache_line_bytes,
            cache_lines,
            dram_row_bytes,
            independent_thread_scheduling,
            costs,
            step_limit,
            blocks_per_sm,
        } = self;
        let CostModel {
            alu,
            imul,
            idiv,
            falu,
            fdiv,
            shared,
            shared_store,
            shared_conflict,
            shared_scalar,
            global_store,
            global_hit,
            global_row_hit,
            global_row_miss,
            global_segment,
            shfl,
            ballot,
            activemask,
            barrier,
            barrier_per_warp,
            atomic_shared,
            atomic_global,
            rng,
            divergence,
            launch_overhead,
            issue_width,
        } = costs;
        macro_rules! fields {
            ($($label:literal => $v:expr),+ $(,)?) => {
                vec![$(($label, $v.to_string())),+]
            };
        }
        fields![
            "name" => name,
            "family" => family,
            "sm_count" => sm_count,
            "warp_size" => warp_size,
            "cores_per_sm" => cores_per_sm,
            "max_threads_per_block" => max_threads_per_block,
            "shared_mem_per_block" => shared_mem_per_block,
            "clock_mhz" => clock_mhz,
            "device_mem_bytes" => device_mem_bytes,
            "shared_banks" => shared_banks,
            "coalesce_bytes" => coalesce_bytes,
            "cache_line_bytes" => cache_line_bytes,
            "cache_lines" => cache_lines,
            "dram_row_bytes" => dram_row_bytes,
            "independent_thread_scheduling" => independent_thread_scheduling,
            "costs.alu" => alu,
            "costs.imul" => imul,
            "costs.idiv" => idiv,
            "costs.falu" => falu,
            "costs.fdiv" => fdiv,
            "costs.shared" => shared,
            "costs.shared_store" => shared_store,
            "costs.shared_conflict" => shared_conflict,
            "costs.shared_scalar" => shared_scalar,
            "costs.global_store" => global_store,
            "costs.global_hit" => global_hit,
            "costs.global_row_hit" => global_row_hit,
            "costs.global_row_miss" => global_row_miss,
            "costs.global_segment" => global_segment,
            "costs.shfl" => shfl,
            "costs.ballot" => ballot,
            "costs.activemask" => activemask,
            "costs.barrier" => barrier,
            "costs.barrier_per_warp" => barrier_per_warp,
            "costs.atomic_shared" => atomic_shared,
            "costs.atomic_global" => atomic_global,
            "costs.rng" => rng,
            "costs.divergence" => divergence,
            "costs.launch_overhead" => launch_overhead,
            "costs.issue_width" => issue_width,
            "step_limit" => step_limit,
            "blocks_per_sm" => blocks_per_sm,
        ]
    }

    /// The [`GpuSpec::fields`] whose values are not the same in all of
    /// `specs`, in declaration order.
    #[must_use]
    pub fn differing_fields(specs: &[GpuSpec]) -> Vec<&'static str> {
        let all: Vec<_> = specs.iter().map(GpuSpec::fields).collect();
        let Some(first) = all.first() else {
            return Vec::new();
        };
        first
            .iter()
            .enumerate()
            .filter(|&(i, (_, v))| all.iter().any(|f| f[i].1 != *v))
            .map(|(_, &(name, _))| name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_families() {
        let specs = GpuSpec::table1();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].family, "Pascal");
        assert_eq!(specs[1].family, "Pascal");
        assert_eq!(specs[2].family, "Volta");
        assert_eq!(specs[0].clock_mhz, 1386);
        assert_eq!(specs[1].clock_mhz, 1999);
        assert_eq!(specs[2].clock_mhz, 1530);
    }

    #[test]
    fn volta_ballot_is_expensive() {
        assert!(GpuSpec::v100().costs.ballot > 4 * GpuSpec::p100().costs.ballot);
        assert!(GpuSpec::v100().independent_thread_scheduling);
        assert!(!GpuSpec::p100().independent_thread_scheduling);
    }

    #[test]
    fn p100_and_v100_differ_in_exactly_these_fields() {
        assert_eq!(
            GpuSpec::differing_fields(&[GpuSpec::p100(), GpuSpec::v100()]),
            [
                "name",
                "family",
                "sm_count",
                "clock_mhz",
                "cache_lines",
                "independent_thread_scheduling",
                "costs.shared",
                "costs.global_row_hit",
                "costs.global_row_miss",
                "costs.ballot",
            ]
        );
        let p100 = GpuSpec::p100();
        assert_eq!(GpuSpec::differing_fields(&[p100.clone(), p100]), [""; 0]);
        // Every field is listed once.
        let names: Vec<_> = GpuSpec::p100()
            .fields()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn scaled_spec_preserves_cost_structure() {
        let p = GpuSpec::p100();
        let s = p.scaled(8);
        assert_eq!(s.warp_size, 8);
        assert_eq!(s.costs, p.costs);
        assert_eq!(s.clock_mhz, p.clock_mhz);
    }
}
