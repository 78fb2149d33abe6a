//! Reproduction package for *Understanding the Power of Evolutionary
//! Computation for GPU Code Optimization* (IISWC 2022).
//!
//! This crate hosts the workspace-level examples (`examples/`) and
//! cross-crate integration tests (`tests/`); the substance lives in the
//! member crates:
//!
//! * [`gevo_ir`] — the mutable kernel IR,
//! * [`gevo_gpu`] — the SIMT timing simulator,
//! * [`gevo_engine`] — evolutionary search + the Section V analysis
//!   pipeline,
//! * [`gevo_workloads`] — ADEPT and SIMCoV.
//!
//! See DESIGN.md for the paper→code map and EXPERIMENTS.md for
//! paper-vs-measured numbers.

pub use gevo_engine as engine;
pub use gevo_gpu as gpu;
pub use gevo_ir as ir;
pub use gevo_workloads as workloads;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use gevo_engine::{
        dependency_graph, minimize_weak_edits, split_independent, subset_analysis, AdaptPolicy,
        AdaptReport, Edit, EvalOutcome, EvalStats, Evaluator, EvaluatorSnapshot, GaConfig,
        GaResult, IslandConfig, IslandResult, IslandSnapshot, MigrationEvent, Objective,
        ParetoPoint, Patch, Search, SearchObserver, SearchResult, SearchSpec, SearchState,
        Selection, StepStatus, Topology, Workload,
    };
    pub use gevo_gpu::{CompiledKernel, Gpu, GpuSpec, LaunchConfig};
    pub use gevo_workloads::adept::{AdeptConfig, AdeptWorkload, Version};
    pub use gevo_workloads::simcov::{SimcovConfig, SimcovWorkload};
}
