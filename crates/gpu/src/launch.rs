//! Launch configuration, arguments and the per-launch profile.

use crate::mem::Buffer;
use crate::value::Value;
use std::fmt;

/// An actual argument passed to a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// Scalar `i32`.
    I32(i32),
    /// Scalar `i64`.
    I64(i64),
    /// Scalar `f32`.
    F32(f32),
    /// Device buffer (passed as its base address).
    Buf(Buffer),
}

impl KernelArg {
    /// The register-level value the kernel sees.
    #[must_use]
    pub fn value(&self) -> Value {
        match self {
            KernelArg::I32(v) => Value::I32(*v),
            KernelArg::I64(v) => Value::I64(*v),
            KernelArg::F32(v) => Value::F32(*v),
            KernelArg::Buf(b) => Value::I64(b.base()),
        }
    }

    /// True when this argument satisfies a formal parameter of type `ty`
    /// (buffers and raw `i64` addresses both satisfy pointer parameters).
    #[must_use]
    pub fn matches(&self, ty: gevo_ir::ParamTy) -> bool {
        use gevo_ir::{ParamTy, Ty};
        matches!(
            (self, ty),
            (KernelArg::I32(_), ParamTy::Val(Ty::I32))
                | (KernelArg::I64(_), ParamTy::Val(Ty::I64) | ParamTy::Ptr(_))
                | (KernelArg::F32(_), ParamTy::Val(Ty::F32))
                | (KernelArg::Buf(_), ParamTy::Ptr(_))
        )
    }
}

impl From<Buffer> for KernelArg {
    fn from(b: Buffer) -> Self {
        KernelArg::Buf(b)
    }
}

/// Grid geometry plus the deterministic scheduler seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Thread blocks in the grid.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Seed permuting warp issue order within each block. Different seeds
    /// surface different outcomes for racy kernels — the reproduction's
    /// stand-in for the architecture-dependent warp scheduler the paper
    /// discusses in §II-C2.
    pub sched_seed: u64,
}

impl LaunchConfig {
    /// A launch with the default scheduler seed.
    #[must_use]
    pub fn new(grid: u32, block: u32) -> LaunchConfig {
        LaunchConfig {
            grid,
            block,
            sched_seed: 0,
        }
    }

    /// Same geometry, different scheduler interleaving.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> LaunchConfig {
        self.sched_seed = seed;
        self
    }
}

/// Counters collected during one launch — the reproduction's `nvprof`.
///
/// `cycles` is the fitness signal the evolutionary engine optimizes; the
/// rest feed the analysis sections (instruction-mix shifts, §VI-D's "31% of
/// kernel instructions were boundary logic", divergence accounting for
/// §VI-A, row-buffer behaviour for §VI-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaunchStats {
    /// Modeled execution time in SM cycles.
    pub cycles: u64,
    /// Dynamic warp-instructions executed.
    pub instructions: u64,
    /// Dynamic ALU-class warp-instructions (arithmetic, compares, moves).
    pub alu_instructions: u64,
    /// Shared-memory accesses (warp-level).
    pub shared_accesses: u64,
    /// Extra serialization ways caused by shared bank conflicts.
    pub shared_conflicts: u64,
    /// Global-memory warp accesses.
    pub global_accesses: u64,
    /// Coalesced segments transferred for those accesses.
    pub global_segments: u64,
    /// Per-SM cache hits (segment granularity).
    pub cache_hits: u64,
    /// Per-SM cache misses.
    pub cache_misses: u64,
    /// DRAM row-buffer hits among cache misses.
    pub row_hits: u64,
    /// DRAM row-buffer misses among cache misses.
    pub row_misses: u64,
    /// Divergent branches executed (both paths serialized).
    pub divergent_branches: u64,
    /// Block-wide barriers released.
    pub barriers: u64,
    /// `ballot_sync` executions.
    pub ballots: u64,
    /// Warp shuffles executed.
    pub shfls: u64,
    /// Atomic operations executed (lane-level).
    pub atomics: u64,
    /// Blocks launched.
    pub blocks: u32,
    /// Warps per block.
    pub warps_per_block: u32,
}

impl LaunchStats {
    /// Merge counters from another launch (used to total multi-kernel
    /// pipelines like `SIMCoV`'s per-step kernel sequence).
    pub fn accumulate(&mut self, other: &LaunchStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.alu_instructions += other.alu_instructions;
        self.shared_accesses += other.shared_accesses;
        self.shared_conflicts += other.shared_conflicts;
        self.global_accesses += other.global_accesses;
        self.global_segments += other.global_segments;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.divergent_branches += other.divergent_branches;
        self.barriers += other.barriers;
        self.ballots += other.ballots;
        self.shfls += other.shfls;
        self.atomics += other.atomics;
        self.blocks += other.blocks;
        self.warps_per_block = self.warps_per_block.max(other.warps_per_block);
    }

    /// Field table shared by the JSON conversions so the two directions
    /// cannot drift apart.
    fn counter_fields(&mut self) -> [(&'static str, &mut u64); 16] {
        [
            ("cycles", &mut self.cycles),
            ("instructions", &mut self.instructions),
            ("alu_instructions", &mut self.alu_instructions),
            ("shared_accesses", &mut self.shared_accesses),
            ("shared_conflicts", &mut self.shared_conflicts),
            ("global_accesses", &mut self.global_accesses),
            ("global_segments", &mut self.global_segments),
            ("cache_hits", &mut self.cache_hits),
            ("cache_misses", &mut self.cache_misses),
            ("row_hits", &mut self.row_hits),
            ("row_misses", &mut self.row_misses),
            ("divergent_branches", &mut self.divergent_branches),
            ("barriers", &mut self.barriers),
            ("ballots", &mut self.ballots),
            ("shfls", &mut self.shfls),
            ("atomics", &mut self.atomics),
        ]
    }

    /// Serializes every counter to a flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut copy = *self;
        let mut obj = serde_json::Map::new();
        for (name, value) in copy.counter_fields() {
            obj.insert(name, *value);
        }
        obj.insert("blocks", self.blocks);
        obj.insert("warps_per_block", self.warps_per_block);
        serde_json::Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let mut stats = LaunchStats::default();
        for (name, value) in stats.counter_fields() {
            *value = v
                .get(name)
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| format!("LaunchStats: missing or invalid field {name:?}"))?;
        }
        for (name, slot) in [
            ("blocks", &mut stats.blocks),
            ("warps_per_block", &mut stats.warps_per_block),
        ] {
            *slot = v
                .get(name)
                .and_then(serde_json::Value::as_u64)
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| format!("LaunchStats: missing or invalid field {name:?}"))?;
        }
        Ok(stats)
    }
}

impl fmt::Display for LaunchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:              {:>12}", self.cycles)?;
        writeln!(f, "warp instructions:   {:>12}", self.instructions)?;
        writeln!(f, "  alu:               {:>12}", self.alu_instructions)?;
        writeln!(f, "shared accesses:     {:>12}", self.shared_accesses)?;
        writeln!(f, "  conflicts:         {:>12}", self.shared_conflicts)?;
        writeln!(f, "global accesses:     {:>12}", self.global_accesses)?;
        writeln!(f, "  segments:          {:>12}", self.global_segments)?;
        writeln!(
            f,
            "  cache hit/miss:    {:>6}/{}",
            self.cache_hits, self.cache_misses
        )?;
        writeln!(
            f,
            "  row hit/miss:      {:>6}/{}",
            self.row_hits, self.row_misses
        )?;
        writeln!(f, "divergent branches:  {:>12}", self.divergent_branches)?;
        writeln!(f, "barriers:            {:>12}", self.barriers)?;
        writeln!(f, "ballots:             {:>12}", self.ballots)?;
        writeln!(f, "shfls:               {:>12}", self.shfls)?;
        write!(f, "atomics:             {:>12}", self.atomics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_values() {
        assert_eq!(KernelArg::I32(3).value(), Value::I32(3));
        assert_eq!(KernelArg::F32(0.5).value(), Value::F32(0.5));
        let b = Buffer { addr: 512, len: 64 };
        assert_eq!(KernelArg::from(b).value(), Value::I64(512));
    }

    #[test]
    fn launch_stats_json_round_trips() {
        let mut stats = LaunchStats::default();
        // Make every field distinct so a swapped pair of keys would fail.
        for (i, (_, value)) in stats.counter_fields().iter_mut().enumerate() {
            **value = (i as u64 + 1) * 1_000_000_007;
        }
        stats.blocks = 96;
        stats.warps_per_block = 8;
        let text = stats.to_json().to_string();
        let reparsed = serde_json::from_str(&text).unwrap();
        assert_eq!(LaunchStats::from_json(&reparsed).unwrap(), stats);
        assert!(LaunchStats::from_json(&serde_json::Value::Null).is_err());
    }

    #[test]
    fn accumulate_sums_counters() {
        let mut a = LaunchStats {
            cycles: 10,
            instructions: 5,
            ..LaunchStats::default()
        };
        let b = LaunchStats {
            cycles: 7,
            instructions: 2,
            barriers: 1,
            ..LaunchStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cycles, 17);
        assert_eq!(a.instructions, 7);
        assert_eq!(a.barriers, 1);
    }

    #[test]
    fn stats_display_mentions_cycles() {
        let s = LaunchStats::default();
        assert!(s.to_string().contains("cycles"));
    }
}
