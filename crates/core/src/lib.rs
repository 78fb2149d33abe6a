//! # gevo-engine
//!
//! The primary contribution of the reproduced paper: **evolutionary
//! search over GPU-kernel IR** plus the **optimization-analysis pipeline**
//! that explains what the search found.
//!
//! > *Understanding the Power of Evolutionary Computation for GPU Code
//! > Optimization*, Liou, Awan, Hofmeyr, Forrest, Wu — IISWC 2022.
//!
//! ## The pieces
//!
//! * [`Edit`] / [`Patch`] — GEVO's genome: an ordered list of IR edits
//!   (instruction copy/delete/move/replace/swap, operand replacement,
//!   branch-condition replacement), addressed by stable instruction IDs so
//!   any *subset* of a patch is applicable — the property Algorithms 1/2
//!   rest on.
//! * [`MutationSpace`] / crossover — operator sampling with
//!   type-compatible operand pools, one-point patch crossover.
//! * [`Workload`] / [`Evaluator`] — fitness = mean simulated kernel
//!   cycles over the test set; failing variants are invalid (§III-E).
//! * [`Search`] — **the engine's one entry point**: a composable session
//!   (`Search::new(&w).config(ga).islands(4).objectives(&[...])`) over
//!   the generational loop with elitism, tournament or NSGA-II
//!   selection, island migration, streaming [`SearchObserver`]
//!   callbacks and full history recording (Figs. 6 and 8).
//! * [`Objective`] — the minimized dimensions (cycles, correctness
//!   error, memory-traffic/instruction proxies); two or more switch the
//!   selector to NSGA-II non-dominated sorting and the run surfaces its
//!   Pareto front ([`SearchResult::pareto`]).
//! * [`analysis`] — Algorithm 1 (weak-edit minimization), Algorithm 2
//!   (independent/epistatic split), exhaustive subset analysis and the
//!   Fig. 7 dependency graph.
//!
//! ## Example: evolve a toy workload
//!
//! ```
//! use gevo_engine::{Search, GaConfig, Workload, EvalOutcome, Patch};
//! use gevo_ir::{Kernel, KernelBuilder, Operand, Special, AddrSpace};
//! use gevo_gpu::LaunchStats;
//!
//! // A workload whose fitness is just "instructions remaining" — the GA
//! // learns to delete dead code.
//! struct DeadCode { kernels: Vec<Kernel>, store: gevo_ir::InstId }
//! impl Workload for DeadCode {
//!     fn name(&self) -> &str { "dead-code" }
//!     fn kernels(&self) -> &[Kernel] { &self.kernels }
//!     fn evaluate(&self, ks: &[Kernel], _seed: u64) -> EvalOutcome {
//!         if ks[0].locate(self.store).is_none() {
//!             return EvalOutcome::fail("store removed");
//!         }
//!         EvalOutcome::pass(ks[0].inst_count() as f64, LaunchStats::default())
//!     }
//! }
//!
//! let mut b = KernelBuilder::new("toy");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let dead = b.add(tid.into(), Operand::ImmI32(9)); // dead code
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! let store = b.peek_next_id();
//! b.store_global_i32(addr.into(), tid.into());
//! b.ret();
//! let w = DeadCode { kernels: vec![b.finish()], store };
//!
//! let cfg = GaConfig { population: 16, generations: 10, ..GaConfig::scaled() };
//! let result = Search::new(&w).config(cfg).run();
//! assert!(result.speedup >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::missing_panics_doc)]
// GA plumbing follows the paper's notation (edit lists a/b, registers
// r, fitness f); fitness values are exact simulated-cycle counts, so
// equality comparison is meaningful and deliberate.
#![allow(clippy::many_single_char_names)]
#![allow(clippy::float_cmp)]
#![allow(clippy::too_many_lines)]

pub mod adapt;
pub mod analysis;
pub mod edit;
pub mod fitness;
pub mod ga;
pub mod island;
pub mod mutation;
pub mod quarantine;
pub mod search;
pub mod state;

pub use adapt::{
    AdaptPolicy, AdaptReport, AdaptSnapshot, OperatorReport, OperatorStats, PendingCredit,
    OPERATORS, OPERATOR_NAMES,
};
pub use analysis::{
    dependency_graph, minimize_weak_edits, split_independent, subset_analysis, EpistasisGraph,
    MinimizeReport, SplitReport, SubsetOutcome, SubsetTable, MAX_SUBSET_EDITS,
};
pub use edit::{Edit, Patch};
pub use fitness::{
    EvalOutcome, EvalStats, Evaluator, EvaluatorSnapshot, FaultClass, FaultTallies, Workload,
    CACHE_SHARDS,
};
pub use ga::{GaConfig, GaResult, GenerationRecord, History, Individual};
pub use island::{IslandConfig, IslandResult, MigrationEvent, Topology};
pub use mutation::{
    crossover_one_point, crossover_uniform, MutationSpace, MutationWeights, SiteBias,
};
pub use quarantine::QuarantineRecord;
pub use search::{
    crowding_distances, dominates, non_dominated_sort, nsga2_order, Objective, ParetoPoint, Search,
    SearchObserver, SearchResult, SearchSpec, Selection, StepStatus,
};
pub use state::{IslandSnapshot, SearchState, STATE_FORMAT};
