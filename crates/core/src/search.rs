//! The unified `Search` engine API: one composable session object in
//! front of the whole evolutionary machinery.
//!
//! Historically the engine surface was four parallel free functions
//! (single-population and islands, each with and without explicit
//! mutation weights) hard-wired to one scalar fitness; every new knob
//! had to fan out across all of them. [`Search`] replaces that with a
//! builder over a single [`SearchSpec`]:
//!
//! ```
//! use gevo_engine::{Search, GaConfig, Workload, EvalOutcome};
//! use gevo_gpu::LaunchStats;
//! use gevo_ir::{AddrSpace, Kernel, KernelBuilder, Operand, Special};
//!
//! /// Fitness = instructions remaining; the search deletes what it can.
//! struct Toy { kernels: Vec<Kernel> }
//! impl Workload for Toy {
//!     fn name(&self) -> &str { "toy" }
//!     fn kernels(&self) -> &[Kernel] { &self.kernels }
//!     fn evaluate(&self, ks: &[Kernel], _seed: u64) -> EvalOutcome {
//!         EvalOutcome::pass(5.0 + ks[0].inst_count() as f64, LaunchStats::default())
//!     }
//! }
//!
//! let mut b = KernelBuilder::new("t");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let x = b.add(tid.into(), Operand::ImmI32(1));
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! b.store_global_i32(addr.into(), x.into());
//! b.ret();
//! let w = Toy { kernels: vec![b.finish()] };
//!
//! let ga = GaConfig { population: 16, generations: 8, threads: 1, ..GaConfig::scaled() };
//! let res = Search::new(&w).config(ga).islands(4).run();
//! assert_eq!(res.history.records.len(), 8);
//! assert_eq!(res.islands.len(), 4);
//! assert!(res.speedup >= 1.0);
//! ```
//!
//! With a single objective ([`Objective::Cycles`], the default) and
//! [`Selection::Tournament`], `Search` runs the exact loop the four old
//! entrypoints ran — bit-for-bit, including the island/migration RNG
//! streams, so historical seeds reproduce their published trajectories.
//! Passing two or more [`Objective`]s switches [`Selection::Nsga2`] on:
//! per-island ranking becomes NSGA-II non-dominated sorting with
//! crowding-distance tie-breaking (GEVO's actual selection scheme —
//! Liou et al., TACO 2020, rank variants by runtime *and* error), and
//! the maintained Pareto archive is surfaced as
//! [`SearchResult::pareto`].
//!
//! A streaming [`SearchObserver`] receives per-generation records and
//! migration events as they happen, so harnesses and serving layers no
//! longer post-hoc mine [`History`].
//!
//! ## The session as an explicit state machine
//!
//! [`Search::run`] is now sugar over a stepwise API: [`Search::step`]
//! executes exactly one generation (evaluate → rank → record → observe →
//! migrate-if-due → breed) and reports [`StepStatus`];
//! [`Search::into_result`] finalizes. Between steps the *entire* run
//! state — per-island populations and histories, RNG streams captured as
//! `(seed, word position)` pairs, the Pareto archive, the evaluator's
//! outcome cache and counters, the generation index — can be captured
//! with [`Search::checkpoint`] into a serializable
//! [`crate::state::SearchState`] and later rebuilt with
//! [`Search::resume`], in the same process or a fresh one. The contract,
//! pinned by tier-1 tests: *checkpoint at any generation k, resume, and
//! the remaining trajectory — the final [`SearchResult`] and the
//! observer event stream — is bit-identical to the uninterrupted run.*

use crate::adapt::{AdaptPolicy, AdaptReport, IslandAdapt, OperatorStats, PendingCredit, DECAY};
use crate::edit::Patch;
use crate::fitness::{EvalOutcome, Evaluator, Workload};
use crate::ga::{GaConfig, GenerationRecord, History, Individual};
use crate::island::{IslandConfig, MigrationEvent, Topology};
use crate::mutation::{crossover_one_point, MutationSpace, MutationWeights, SiteBias};
use crate::state::{IslandSnapshot, SearchState};
use gevo_ir::StreamState;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One dimension of the (possibly multi-objective) fitness. All
/// objectives are **minimized**; each extracts its score from a passing
/// [`EvalOutcome`] (invalid variants stay excluded from selection
/// entirely, exactly as in the scalar engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Mean simulated kernel cycles over the test set — the paper's
    /// scalar fitness (§III-E) and the engine's default.
    Cycles,
    /// Normalized correctness deviation ([`EvalOutcome::error`]): 0 is
    /// exact, 1 sits on the workload's acceptance threshold. GEVO's
    /// second objective — lets the front trade accuracy for speed on
    /// fuzzy-validated (approximate-computing) workloads.
    Error,
    /// Dynamic warp-instructions executed
    /// (`LaunchStats::instructions`) — a static-energy proxy.
    Instructions,
    /// Coalesced global-memory segments transferred
    /// (`LaunchStats::global_segments`) — the DRAM-traffic proxy.
    MemoryTraffic,
}

impl Objective {
    /// This objective's (minimized) score for a passing outcome, `None`
    /// for an invalid one.
    #[must_use]
    pub fn score(self, outcome: &EvalOutcome) -> Option<f64> {
        outcome.fitness?;
        #[allow(clippy::cast_precision_loss)]
        Some(match self {
            Objective::Cycles => outcome.fitness.expect("checked above"),
            Objective::Error => outcome.error,
            Objective::Instructions => outcome
                .stats
                .as_ref()
                .map_or(0.0, |s| s.instructions as f64),
            Objective::MemoryTraffic => outcome
                .stats
                .as_ref()
                .map_or(0.0, |s| s.global_segments as f64),
        })
    }

    /// Short lowercase name for reports (`cycles`, `error`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Objective::Cycles => "cycles",
            Objective::Error => "error",
            Objective::Instructions => "instructions",
            Objective::MemoryTraffic => "mem_traffic",
        }
    }
}

/// How parents (and elites) are ranked within an island.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Selection {
    /// Scalar tournament on the first objective — the paper's §III-E
    /// scheme and the bit-identical legacy path.
    Tournament,
    /// NSGA-II: non-dominated sorting with crowding-distance
    /// tie-breaking, binary-ish tournament on (front, crowding).
    Nsga2,
}

/// The full declarative description of a search session — everything
/// [`Search`] runs is a deterministic function of this spec (plus the
/// workload). Serializable so harnesses can log exactly what they ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpec {
    /// The GA knobs. `population` is the **total** across islands.
    pub ga: GaConfig,
    /// Number of subpopulations (1 = the classic panmictic GA).
    pub islands: usize,
    /// Generations between migrations (0 = never migrate).
    pub migration_interval: usize,
    /// Elite individuals each island emits per migration.
    pub emigrants: usize,
    /// Destination pattern for emigrants.
    pub topology: Topology,
    /// The minimized objectives, in report order. The first objective
    /// also names the scalar recorded in [`History`] trajectories.
    pub objectives: Vec<Objective>,
    /// Ranking scheme. [`Selection::Tournament`] requires exactly one
    /// objective to reproduce legacy trajectories; [`Search::objectives`]
    /// flips this to [`Selection::Nsga2`] automatically when given two
    /// or more.
    pub selection: Selection,
    /// Adaptive mutation scheduling policy ([`crate::adapt`]).
    /// [`AdaptPolicy::Uniform`] (the default) runs the legacy static
    /// weight-table draw, byte-identical to the pre-adapt engine.
    pub adapt: AdaptPolicy,
}

impl Default for SearchSpec {
    fn default() -> Self {
        SearchSpec {
            ga: GaConfig::default(),
            islands: 1,
            migration_interval: 5,
            emigrants: 2,
            topology: Topology::Ring,
            objectives: vec![Objective::Cycles],
            selection: Selection::Tournament,
            adapt: AdaptPolicy::Uniform,
        }
    }
}

impl From<IslandConfig> for SearchSpec {
    fn from(cfg: IslandConfig) -> SearchSpec {
        SearchSpec {
            ga: cfg.ga,
            islands: cfg.islands,
            migration_interval: cfg.migration_interval,
            emigrants: cfg.emigrants,
            topology: cfg.topology,
            ..SearchSpec::default()
        }
    }
}

impl SearchSpec {
    /// Per-island population sizes: the total [`GaConfig::population`]
    /// budget split as evenly as possible, clamped so no island starts
    /// empty (identical to [`IslandConfig::island_populations`]).
    #[must_use]
    pub fn island_populations(&self) -> Vec<usize> {
        split_budget(self.ga.population, self.islands)
    }

    /// Same spec with a different master seed (repeated-run sweeps).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SearchSpec {
        self.ga.seed = seed;
        self
    }
}

/// Splits a total budget across `islands` as evenly as possible (the
/// first `total % n` islands take one extra), clamping the island count
/// to the population so no island starts empty.
pub(crate) fn split_budget(total: usize, islands: usize) -> Vec<usize> {
    let total = total.max(1);
    let n = islands.clamp(1, total);
    let base = total / n;
    let extra = total % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// Streaming callbacks fired while a search runs, so consumers see
/// progress without post-hoc mining [`History`]. All methods default to
/// no-ops; implement what you need. Callbacks never influence the
/// search (the RNG streams are untouched by observation).
pub trait SearchObserver {
    /// Fired once per generation with the global (cross-island) record,
    /// right after it is appended to the history.
    fn on_generation(&mut self, record: &GenerationRecord) {
        let _ = record;
    }

    /// Fired for every *delivered* migration, in log order.
    fn on_migration(&mut self, event: &MigrationEvent) {
        let _ = event;
    }
}

/// One non-dominated point of a multi-objective run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The genome.
    pub patch: Patch,
    /// Mean cycles (the variant is valid by construction).
    pub fitness: f64,
    /// Per-objective scores, aligned with [`SearchSpec::objectives`].
    pub scores: Vec<f64>,
    /// Generation at which this point entered the archive.
    pub gen: usize,
    /// Island that produced it.
    pub island: usize,
    /// Population slot it occupied on that island at offer time.
    pub slot: usize,
}

/// Everything a [`Search`] run records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The lowest-cycles individual across all islands over the run.
    pub best: Individual,
    /// Speedup of `best` over the pristine program.
    pub speedup: f64,
    /// The global trajectory (per generation, the best individual
    /// across islands) plus every migration event.
    pub history: History,
    /// Per-island trajectories, one per island actually run.
    pub islands: Vec<History>,
    /// Fitness evaluations actually performed (cache misses).
    pub evals: usize,
    /// Evaluations served from the sharded cache.
    pub cache_hits: usize,
    /// Simulated warp-instructions across the performed evaluations.
    pub instructions: u64,
    /// The objectives this run minimized (copied from the spec).
    pub objectives: Vec<Objective>,
    /// The final Pareto archive: every non-dominated (patch, scores)
    /// point seen across the whole run. Empty in single-objective mode
    /// (the scalar optimum is [`SearchResult::best`]).
    pub pareto: Vec<ParetoPoint>,
}

impl SearchResult {
    /// Collapses to the legacy single-population result shape.
    #[must_use]
    pub fn into_ga_result(self) -> crate::ga::GaResult {
        crate::ga::GaResult {
            best: self.best,
            speedup: self.speedup,
            history: self.history,
            evals: self.evals,
        }
    }

    /// Collapses to the legacy island result shape.
    #[must_use]
    pub fn into_island_result(self) -> crate::island::IslandResult {
        crate::island::IslandResult {
            best: self.best,
            speedup: self.speedup,
            history: self.history,
            islands: self.islands,
            evals: self.evals,
            cache_hits: self.cache_hits,
            instructions: self.instructions,
        }
    }
}

/// What one [`Search::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// Generation `gen` (0-based) was executed; more remain or this was
    /// the last one — either way the next call reports [`StepStatus::Done`]
    /// once the budget is spent.
    Advanced {
        /// The generation index that just completed.
        gen: usize,
    },
    /// The generation budget is exhausted; [`Search::into_result`] (or
    /// [`Search::run`]) finalizes.
    Done,
}

/// A composable search session: workload + [`SearchSpec`] + mutation
/// weights + optional streaming observer. Build with the fluent
/// methods, then [`Search::run`] — or drive it one generation at a time
/// with [`Search::step`], capturing [`Search::checkpoint`]s along the
/// way. See the [module docs](self) for the full example and the
/// legacy-equivalence and checkpoint/resume guarantees.
pub struct Search<'a> {
    workload: &'a dyn Workload,
    spec: SearchSpec,
    weights: MutationWeights,
    observer: Option<&'a mut dyn SearchObserver>,
    /// The live run state, materialized lazily on the first
    /// [`Search::step`]/[`Search::checkpoint`] (or rebuilt by
    /// [`Search::resume`]). `None` while the session is still being
    /// configured.
    engine: Option<Engine<'a>>,
}

impl<'a> Search<'a> {
    /// A session with default spec: one island, scalar cycles objective,
    /// tournament selection, [`GaConfig::default`] budget.
    #[must_use]
    pub fn new(workload: &'a dyn Workload) -> Search<'a> {
        Search {
            workload,
            spec: SearchSpec::default(),
            weights: MutationWeights::default(),
            observer: None,
            engine: None,
        }
    }

    /// A session from a fully explicit [`SearchSpec`] (what the
    /// harnesses build from their env knobs).
    #[must_use]
    pub fn from_spec(workload: &'a dyn Workload, spec: SearchSpec) -> Search<'a> {
        Search {
            workload,
            spec,
            weights: MutationWeights::default(),
            observer: None,
            engine: None,
        }
    }

    /// Rebuilds a session from a [`SearchState`] checkpoint, positioned
    /// to run generation `state.gen` next. Stepping it to completion
    /// reproduces the uninterrupted run's remaining trajectory
    /// bit-identically (same [`SearchResult`], same observer events).
    ///
    /// # Panics
    /// Panics if `workload` is not the workload the state was captured
    /// from (names must match — resuming against a different program
    /// would silently misinterpret every cached patch).
    #[must_use]
    pub fn resume(workload: &'a dyn Workload, state: &SearchState) -> Search<'a> {
        assert_eq!(
            workload.name(),
            state.workload,
            "checkpoint was captured from a different workload"
        );
        let engine = Engine::restore(workload, state);
        Search {
            workload,
            spec: state.spec.clone(),
            weights: state.weights.clone(),
            observer: None,
            engine: Some(engine),
        }
    }

    /// Guards the builder methods: reconfiguring after the engine has
    /// materialized would silently not apply (the run state was built
    /// from the old spec).
    fn assert_unstarted(&self) {
        assert!(
            self.engine.is_none(),
            "Search cannot be reconfigured after stepping, checkpointing or resuming"
        );
    }

    /// Sets the GA hyper-parameters.
    #[must_use]
    pub fn config(mut self, ga: GaConfig) -> Search<'a> {
        self.assert_unstarted();
        self.spec.ga = ga;
        self
    }

    /// Sets the island count (1 = single panmictic population).
    #[must_use]
    pub fn islands(mut self, n: usize) -> Search<'a> {
        self.assert_unstarted();
        self.spec.islands = n.max(1);
        self
    }

    /// Sets the migration cadence (generations between waves; 0 never
    /// migrates).
    #[must_use]
    pub fn migration_interval(mut self, gens: usize) -> Search<'a> {
        self.assert_unstarted();
        self.spec.migration_interval = gens;
        self
    }

    /// Sets how many elites each island emits per migration wave.
    #[must_use]
    pub fn emigrants(mut self, n: usize) -> Search<'a> {
        self.assert_unstarted();
        self.spec.emigrants = n;
        self
    }

    /// Sets the migration topology.
    #[must_use]
    pub fn topology(mut self, t: Topology) -> Search<'a> {
        self.assert_unstarted();
        self.spec.topology = t;
        self
    }

    /// Sets the master seed (overrides the one in the [`GaConfig`]).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Search<'a> {
        self.assert_unstarted();
        self.spec.ga.seed = seed;
        self
    }

    /// Sets the mutation-operator weights.
    #[must_use]
    pub fn weights(mut self, weights: MutationWeights) -> Search<'a> {
        self.assert_unstarted();
        self.weights = weights;
        self
    }

    /// Sets the adaptive mutation-scheduling policy ([`crate::adapt`]).
    /// The default, [`AdaptPolicy::Uniform`], is the legacy static
    /// weight-table draw.
    #[must_use]
    pub fn adapt(mut self, policy: AdaptPolicy) -> Search<'a> {
        self.assert_unstarted();
        self.spec.adapt = policy;
        self
    }

    /// Sets the minimized objectives, and the selection scheme to
    /// match: two or more objectives select [`Selection::Nsga2`], one
    /// (or an empty slice, which resets to the scalar default
    /// [`Objective::Cycles`]) selects [`Selection::Tournament`]. Call
    /// [`Search::selection`] *after* this to override the inference.
    #[must_use]
    pub fn objectives(mut self, objectives: &[Objective]) -> Search<'a> {
        self.assert_unstarted();
        if objectives.is_empty() {
            self.spec.objectives = vec![Objective::Cycles];
        } else {
            self.spec.objectives = objectives.to_vec();
        }
        self.spec.selection = if self.spec.objectives.len() > 1 {
            Selection::Nsga2
        } else {
            Selection::Tournament
        };
        self
    }

    /// Overrides the selection scheme (normally inferred by
    /// [`Search::objectives`]).
    #[must_use]
    pub fn selection(mut self, selection: Selection) -> Search<'a> {
        self.assert_unstarted();
        self.spec.selection = selection;
        self
    }

    /// Attaches a streaming observer for per-generation records and
    /// migration events. Unlike the spec setters this is valid at any
    /// point — a resumed session attaches its observer here and the
    /// stream continues from the resumed generation.
    #[must_use]
    pub fn observer(mut self, observer: &'a mut dyn SearchObserver) -> Search<'a> {
        self.observer = Some(observer);
        self
    }

    /// The spec this session will run (for banners and logs).
    #[must_use]
    pub fn spec(&self) -> &SearchSpec {
        &self.spec
    }

    /// The next generation index to execute (0 before the first step).
    /// Materializes the engine, like [`Search::step`].
    pub fn generation(&mut self) -> usize {
        self.ensure_engine();
        self.engine.as_ref().expect("just ensured").gen
    }

    /// The evaluator's throughput counters so far — evals, cache hits,
    /// compiles and lowering-pass counts, plus the per-class fault
    /// tallies ([`crate::EvalStats`], [`crate::FaultTallies`]: how many
    /// mutants the step budget killed, failed verification, faulted,
    /// mis-computed, or panicked into quarantine). The bench harnesses
    /// read these to report how much lowering work ran and how hostile
    /// the mutant population was; none of these
    /// counters are result-visible (see [`crate::EvaluatorSnapshot`]).
    /// Materializes the engine, like [`Search::step`].
    pub fn eval_stats(&mut self) -> crate::EvalStats {
        self.ensure_engine();
        self.engine
            .as_ref()
            .expect("just ensured")
            .evaluator
            .stats()
    }

    /// The merged cross-island scheduler tallies and weights
    /// ([`AdaptReport`]), or `None` under [`AdaptPolicy::Uniform`] (no
    /// scheduler runs). Purely observational — the report is
    /// **deliberately absent** from [`SearchResult`] and the evaluator
    /// snapshot so the checkpoint byte-identity contract never covers
    /// it. Materializes the engine, like [`Search::step`].
    pub fn adapt_report(&mut self) -> Option<AdaptReport> {
        self.ensure_engine();
        self.engine
            .as_ref()
            .expect("just ensured")
            .adapt_report(&self.spec)
    }

    /// Materializes the run state (baseline evaluation, initial
    /// populations, RNG streams) if this session has not started yet.
    fn ensure_engine(&mut self) {
        if self.engine.is_none() {
            self.engine = Some(Engine::new(self.workload, &self.spec, &self.weights));
        }
    }

    /// Executes exactly one generation: evaluate → rank → record →
    /// observer → (unless this was the final generation) migrate-if-due
    /// → breed. Returns [`StepStatus::Done`] without doing anything once
    /// the budget is exhausted.
    ///
    /// # Panics
    /// Panics if the pristine program fails its own test set (workload
    /// bug).
    pub fn step(&mut self) -> StepStatus {
        self.ensure_engine();
        let engine = self.engine.as_mut().expect("just ensured");
        engine.step(&self.spec, self.observer.as_deref_mut())
    }

    /// Captures the complete run state as a serializable
    /// [`SearchState`], positioned to run generation `gen` next.
    /// Materializes the engine if needed, so a checkpoint before any
    /// step captures the initial state (generation 0).
    ///
    /// # Panics
    /// Panics if the pristine program fails its own test set (workload
    /// bug).
    pub fn checkpoint(&mut self) -> SearchState {
        self.ensure_engine();
        let engine = self.engine.as_ref().expect("just ensured");
        engine.snapshot(self.workload, &self.spec, &self.weights)
    }

    /// Finalizes the session into its [`SearchResult`]: fans the
    /// migration log out to per-island histories, orders the Pareto
    /// archive by provenance, computes the speedup. Valid at any point —
    /// finishing early yields the result of the generations run so far.
    ///
    /// # Panics
    /// Panics if the pristine program fails its own test set (workload
    /// bug).
    #[must_use]
    pub fn into_result(mut self) -> SearchResult {
        self.ensure_engine();
        let engine = self.engine.take().expect("just ensured");
        engine.into_result(&self.spec)
    }

    /// Runs the session to completion: [`Search::step`] until the budget
    /// is spent, then [`Search::into_result`].
    ///
    /// # Panics
    /// Panics if the pristine program fails its own test set (workload
    /// bug).
    #[must_use]
    pub fn run(mut self) -> SearchResult {
        while matches!(self.step(), StepStatus::Advanced { .. }) {}
        self.into_result()
    }
}

// ---------------------------------------------------------------------
// NSGA-II primitives (public: the bench harnesses and tests use them on
// raw score sets, not just through `Search`).
// ---------------------------------------------------------------------

/// Pareto domination over minimized score vectors: `a` dominates `b`
/// when it is no worse in every objective and strictly better in at
/// least one. A partial order — irreflexive, asymmetric, transitive.
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Fast non-dominated sort (Deb et al., 2002): partitions `scores` into
/// fronts — front 0 is the Pareto set, front `k+1` is the Pareto set
/// after removing fronts `0..=k`. Fronts are disjoint and exhaustive;
/// within a front, members are listed in ascending input index.
#[must_use]
pub fn non_dominated_sort(scores: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    // dominated_by[i] = how many points dominate i;
    // dominating[i] = the points i dominates.
    let mut dominated_by = vec![0usize; n];
    let mut dominating: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&scores[i], &scores[j]) {
                dominating[i].push(j);
                dominated_by[j] += 1;
            } else if dominates(&scores[j], &scores[i]) {
                dominating[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &i in &current {
            for &j in &dominating[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance of each `front` member (aligned with the `front`
/// slice). This implementation measures spacing over the front's
/// **distinct** values per objective — holders of an objective's
/// extreme value get `INFINITY`, interior points get the normalized gap
/// between the nearest distinct neighbors — which makes the distance a
/// pure function of a point's score vector relative to the front's
/// value set: permuting the input order (or duplicating points) never
/// changes any point's distance, so downstream tie-breaking is
/// deterministic under permutation.
#[must_use]
pub fn crowding_distances(scores: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let mut dist = vec![0.0f64; front.len()];
    if front.is_empty() {
        return dist;
    }
    let m = scores[front[0]].len();
    // `obj` indexes a column across two row-major tables (`scores[i]`
    // and the per-objective value set) — a plain range is the clearest
    // way to walk it.
    #[allow(clippy::needless_range_loop)]
    for obj in 0..m {
        let mut vals: Vec<f64> = front.iter().map(|&i| scores[i][obj]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue; // one distinct value: no spread to measure
        }
        let lo = vals[0];
        let hi = vals[vals.len() - 1];
        let range = hi - lo;
        for (k, &i) in front.iter().enumerate() {
            let v = scores[i][obj];
            if v == lo || v == hi {
                dist[k] = f64::INFINITY;
            } else if dist[k].is_finite() {
                let pos = vals.partition_point(|&x| x < v);
                dist[k] += (vals[pos + 1] - vals[pos - 1]) / range;
            }
        }
    }
    dist
}

/// Lexicographic comparison of two score vectors (total order on
/// floats, so NaN-free inputs sort deterministically).
fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// The full NSGA-II ranking: indices ordered best-first by
/// (non-dominated front, crowding distance descending), ties broken by
/// score vector lexicographically and finally by input index. For any
/// permutation of the same multiset of score vectors, the *sequence of
/// score vectors* this order visits is identical (see
/// [`crowding_distances`] for why).
#[must_use]
pub fn nsga2_order(scores: &[Vec<f64>]) -> Vec<usize> {
    let fronts = non_dominated_sort(scores);
    let mut order: Vec<usize> = Vec::with_capacity(scores.len());
    for front in &fronts {
        let dist = crowding_distances(scores, front);
        let mut members: Vec<(usize, f64)> =
            front.iter().copied().zip(dist.iter().copied()).collect();
        members.sort_by(|&(i, di), &(j, dj)| {
            dj.total_cmp(&di)
                .then_with(|| lex_cmp(&scores[i], &scores[j]))
                .then_with(|| i.cmp(&j))
        });
        order.extend(members.into_iter().map(|(i, _)| i));
    }
    order
}

// ---------------------------------------------------------------------
// The engine loop (moved here from `island.rs`, generalized with
// multi-objective ranking, the Pareto archive and observer hooks).
// ---------------------------------------------------------------------

/// `SplitMix64` — used to derive independent island seeds from the
/// master seed (island 0 keeps the master seed itself so N=1 reproduces
/// the original single-population stream), and by [`crate::adapt`] to
/// salt the per-island scheduler streams.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn island_seed(master: u64, island: usize) -> u64 {
    if island == 0 {
        master
    } else {
        splitmix64(master ^ (island as u64).wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Hotspot site-bias tables for adaptive runs: the workload's pristine
/// per-block cycle profile folded through
/// [`MutationSpace::site_bias`]. `None` for the uniform policy (the
/// profile is never even collected — the legacy engine must not gain a
/// pristine evaluation) and for workloads without a compiled profile.
fn hotspot_bias(
    workload: &dyn Workload,
    spec: &SearchSpec,
    space: &MutationSpace,
) -> Option<SiteBias> {
    if spec.adapt == AdaptPolicy::Uniform {
        return None;
    }
    let profile = workload.hotspot_profile()?;
    Some(space.site_bias(workload.kernels(), &profile))
}

/// One subpopulation plus its private RNG stream and trajectory.
struct Island {
    rng: ChaCha8Rng,
    population: Vec<Individual>,
    /// Per-individual objective scores (empty vec = invalid), parallel
    /// to `population`. Only maintained under [`Selection::Nsga2`].
    scores: Vec<Vec<f64>>,
    /// Valid individuals, best first — refreshed every generation.
    ranked: Vec<usize>,
    history: History,
    best: Individual,
    /// The island's adaptive mutation scheduler — `Some` only when the
    /// spec's policy is not [`AdaptPolicy::Uniform`], so the uniform
    /// engine stays structurally identical to the pre-adapt one.
    adapt: Option<IslandAdapt>,
}

impl Island {
    fn new(seed: u64, pop: usize, baseline: f64, space: &MutationSpace) -> Island {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut population: Vec<Individual> = Vec::with_capacity(pop);
        population.push(Individual {
            patch: Patch::empty(),
            fitness: Some(baseline),
        });
        while population.len() < pop {
            let mut p = Patch::empty();
            space.mutate(&mut p, &mut rng);
            population.push(Individual {
                patch: p,
                fitness: None,
            });
        }
        Island {
            rng,
            population,
            scores: Vec::new(),
            ranked: Vec::new(),
            history: History {
                baseline,
                records: Vec::new(),
                first_seen_in_best: HashMap::new(),
                migrations: Vec::new(),
            },
            best: Individual {
                patch: Patch::empty(),
                fitness: Some(baseline),
            },
            // The initial population is bred by the legacy sampler in
            // both arms (no diagnostics exist before generation 0);
            // Engine construction attaches the scheduler afterwards.
            adapt: None,
        }
    }

    /// Re-ranks the valid individuals. Under [`Selection::Tournament`]
    /// this is the historical stable sort by scalar fitness (lower
    /// cycles = better), bit-identical to the legacy engine; under
    /// [`Selection::Nsga2`] it is non-dominated fronts ordered by
    /// crowding distance.
    fn rank(&mut self, selection: Selection) {
        let valid: Vec<usize> = (0..self.population.len())
            .filter(|&i| self.population[i].fitness.is_some())
            .collect();
        match selection {
            Selection::Tournament => {
                self.ranked = valid;
                self.ranked.sort_by(|&a, &b| {
                    self.population[a]
                        .fitness
                        .partial_cmp(&self.population[b].fitness)
                        .expect("valid fitness is never NaN")
                });
            }
            Selection::Nsga2 => {
                let vecs: Vec<Vec<f64>> = valid.iter().map(|&i| self.scores[i].clone()).collect();
                self.ranked = nsga2_order(&vecs).into_iter().map(|k| valid[k]).collect();
            }
        }
    }

    /// This generation's best-cycles individual among the valid ones
    /// (scalar mode: exactly `ranked[0]`, including tie resolution —
    /// the stable sort puts the first-indexed minimum first, which is
    /// also the first strict minimum this scan keeps).
    fn gen_best(&self) -> Option<&Individual> {
        let mut best: Option<&Individual> = None;
        for &i in &self.ranked {
            let ind = &self.population[i];
            match best {
                None => best = Some(ind),
                Some(cur) if ind.fitness < cur.fitness => best = Some(ind),
                Some(_) => {}
            }
        }
        best
    }

    /// Appends this generation to the island's own trajectory.
    fn record(&mut self, gen: usize, id: usize, baseline: f64) {
        if let Some(gb) = self.gen_best().cloned() {
            let f = gb.fitness.expect("ranked individuals are valid");
            if f < self.best.fitness.expect("island best is always valid") {
                self.best = gb.clone();
            }
            for e in gb.patch.edits() {
                self.history.first_seen_in_best.entry(*e).or_insert(gen);
            }
            self.history.records.push(GenerationRecord {
                gen,
                island: id,
                best_fitness: f,
                best_speedup: baseline / f,
                best_patch: gb.patch,
                valid: self.ranked.len(),
            });
        } else {
            self.history.records.push(GenerationRecord {
                gen,
                island: id,
                best_fitness: baseline,
                best_speedup: 1.0,
                best_patch: Patch::empty(),
                valid: 0,
            });
        }
    }

    /// Elites + offspring, exactly the single-population breeding loop.
    /// `elitism` arrives pre-split across islands: at least one elite
    /// per island when elitism is enabled (so every island's trajectory
    /// stays monotone), exactly zero when the caller disabled elitism.
    /// The adaptive arm draws the operator kind from the scheduler's
    /// dedicated stream and banks a [`PendingCredit`] per mutated child;
    /// under [`AdaptPolicy::Uniform`] (`self.adapt` is `None`) every
    /// draw below is byte-identical to the legacy loop.
    #[allow(clippy::too_many_arguments)]
    fn breed(
        &mut self,
        cfg: &GaConfig,
        pop: usize,
        elitism: usize,
        baseline: f64,
        space: &MutationSpace,
        selection: Selection,
        policy: AdaptPolicy,
        bias: Option<&SiteBias>,
    ) {
        // Take the scheduler out for the duration so `select_parent`
        // (which borrows all of `self`) stays callable.
        let mut adapt = self.adapt.take();
        let mut next: Vec<Individual> = self
            .ranked
            .iter()
            .take(elitism)
            .map(|&i| self.population[i].clone())
            .collect();
        if next.is_empty() {
            next.push(Individual {
                patch: Patch::empty(),
                fitness: Some(baseline),
            });
        }
        // Per-slot credits, parallel to `next` (None for the elite /
        // fallback prefix and for unmutated offspring).
        let mut pending: Vec<Option<PendingCredit>> = vec![None; next.len()];
        while next.len() < pop {
            let (parent_a, parent_fitness) = self.select_parent(cfg, selection);
            let mut child = if self.rng.gen_bool(cfg.crossover_p) && self.ranked.len() >= 2 {
                let (parent_b, _) = self.select_parent(cfg, selection);
                crossover_one_point(&parent_a, &parent_b, &mut self.rng)
            } else {
                parent_a
            };
            let mut credit = None;
            if self.rng.gen_bool(cfg.mutation_p) {
                if let Some(ad) = adapt.as_mut() {
                    let kind = policy.choose(&ad.stats, &mut ad.rng);
                    if space.mutate_directed(&mut child, &mut self.rng, kind, bias) {
                        credit = Some(PendingCredit {
                            op: kind,
                            parent_fitness,
                        });
                    }
                } else {
                    space.mutate(&mut child, &mut self.rng);
                }
            }
            if child.len() > cfg.max_patch_len {
                let edits = child.edits()[child.len() - cfg.max_patch_len..].to_vec();
                child = Patch::from_edits(edits);
            }
            next.push(Individual {
                patch: child,
                fitness: None,
            });
            pending.push(credit);
        }
        if let Some(ad) = adapt.as_mut() {
            ad.pending = pending;
        }
        self.population = next;
        self.adapt = adapt;
    }

    /// One tournament draw, returning the winning parent's genome and
    /// its fitness (the adaptive arm's improvement reference; the
    /// fitness read adds no RNG draws, so the uniform arm is unchanged).
    fn select_parent(&mut self, cfg: &GaConfig, selection: Selection) -> (Patch, Option<f64>) {
        match selection {
            Selection::Tournament => {
                let winner = tournament(
                    &self.population,
                    &self.ranked,
                    cfg.tournament,
                    &mut self.rng,
                );
                (winner.patch.clone(), winner.fitness)
            }
            Selection::Nsga2 => {
                // Crowded-comparison tournament: `ranked` already embeds
                // (front, crowding), so the smaller ranked position wins.
                if self.ranked.is_empty() {
                    let pick = self
                        .population
                        .choose(&mut self.rng)
                        .expect("population non-empty");
                    return (pick.patch.clone(), pick.fitness);
                }
                let mut best_pos = self.rng.gen_range(0..self.ranked.len());
                for _ in 1..cfg.tournament.max(1) {
                    let pos = self.rng.gen_range(0..self.ranked.len());
                    if pos < best_pos {
                        best_pos = pos;
                    }
                }
                let winner = &self.population[self.ranked[best_pos]];
                (winner.patch.clone(), winner.fitness)
            }
        }
    }

    /// Replaceable slots under a given protection level: everything but
    /// the island's `protect` best-ranked individuals. Callers truncate
    /// an inbound wave to this before delivering (and before logging).
    fn receive_capacity(&self, protect: usize) -> usize {
        self.population.len() - protect.min(self.ranked.len())
    }

    /// Overwrites this island's worst individuals with immigrants.
    /// Invalid individuals go first, then the weakest valid ones; the
    /// island's `protect` best-ranked individuals are never replaced
    /// (migration adds diversity, it must not evict the local champion).
    /// Callers pre-truncate to [`Island::receive_capacity`]. The ranking
    /// is refreshed afterwards so immigrants can be elites.
    fn receive(
        &mut self,
        immigrants: Vec<(Individual, Vec<f64>)>,
        protect: usize,
        selection: Selection,
    ) {
        if immigrants.is_empty() {
            return;
        }
        let keep = protect.min(self.ranked.len());
        let mut worst_first: Vec<usize> = (0..self.population.len())
            .filter(|i| !self.ranked.contains(i))
            .collect();
        worst_first.extend(self.ranked.iter().skip(keep).rev().copied());
        for (slot, (imm, scores)) in worst_first.into_iter().zip(immigrants) {
            // Immigrants carry their score vector from the source
            // island so the post-delivery re-rank can place them.
            if let Some(s) = self.scores.get_mut(slot) {
                *s = scores;
            }
            self.population[slot] = imm;
        }
        self.rank(selection);
    }
}

/// A Pareto archive over (patch, scores): keeps every non-dominated
/// point seen so far, first-seen order preserved among survivors.
struct ParetoArchive {
    points: Vec<ParetoPoint>,
    seen: std::collections::HashSet<u64>,
}

impl ParetoArchive {
    fn new() -> ParetoArchive {
        ParetoArchive {
            points: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn offer(
        &mut self,
        patch: &Patch,
        fitness: f64,
        scores: &[f64],
        gen: usize,
        island: usize,
        slot: usize,
    ) {
        if !self.seen.insert(patch.content_hash()) {
            return; // already offered (identical genome)
        }
        if self
            .points
            .iter()
            .any(|p| dominates(&p.scores, scores) || p.scores == scores)
        {
            return;
        }
        self.points.retain(|p| !dominates(scores, &p.scores));
        self.points.push(ParetoPoint {
            patch: patch.clone(),
            fitness,
            scores: scores.to_vec(),
            gen,
            island,
            slot,
        });
    }
}

/// Elitism split across `n` islands: totals divide with a floor of one
/// elite per island — otherwise an island could lose its best between
/// generations — except when the caller disabled elitism outright,
/// which is honored everywhere.
fn split_elitism(total: usize, n: usize) -> usize {
    if n == 1 || total == 0 {
        total
    } else {
        (total / n).max(1)
    }
}

/// The live state of a running search: what used to be the local
/// variables of the old monolithic loop, now an explicit machine that
/// [`Search::step`] advances one generation at a time and
/// [`Search::checkpoint`]/[`Engine::restore`] move across process
/// boundaries. With one objective and tournament selection the step
/// sequence is line-for-line the legacy island loop (same RNG streams,
/// same history).
struct Engine<'a> {
    evaluator: Evaluator<'a>,
    space: MutationSpace,
    baseline: f64,
    /// Per-island population sizes (fixed for the whole run).
    pops: Vec<usize>,
    /// Per-island elitism (see [`split_elitism`]).
    elitism: usize,
    islands: Vec<Island>,
    /// Random-topology draws come from a dedicated stream so migration
    /// policy never perturbs the islands' evolutionary randomness.
    mig_rng: ChaCha8Rng,
    history: History,
    best: Individual,
    archive: ParetoArchive,
    /// The next generation to execute.
    gen: usize,
    /// Hotspot site-bias tables, derived once from the pristine
    /// program's per-block cycle profile. `None` under
    /// [`AdaptPolicy::Uniform`] or when the workload has no profile
    /// (the directed sampler then falls back to uniform sites). A pure
    /// function of the workload, so fresh and resumed engines agree.
    bias: Option<SiteBias>,
}

impl<'a> Engine<'a> {
    /// Fresh-run construction: evaluates the baseline, seeds the
    /// initial populations and RNG streams. Identical to the preamble
    /// of the old monolithic loop.
    fn new(workload: &'a dyn Workload, spec: &SearchSpec, weights: &MutationWeights) -> Engine<'a> {
        let evaluator = Evaluator::new(workload);
        let baseline = evaluator.baseline();
        let space = MutationSpace::new(workload.kernels(), weights.clone());
        let ga = &spec.ga;
        let pops = spec.island_populations();
        let elitism = split_elitism(ga.elitism, pops.len());
        let adaptive = spec.adapt != AdaptPolicy::Uniform;
        let islands: Vec<Island> = pops
            .iter()
            .enumerate()
            .map(|(i, &pop)| {
                let seed = island_seed(ga.seed, i);
                let mut isl = Island::new(seed, pop, baseline, &space);
                if adaptive {
                    isl.adapt = Some(IslandAdapt::new(seed));
                }
                isl
            })
            .collect();
        let bias = hotspot_bias(workload, spec, &space);
        let mig_rng = ChaCha8Rng::seed_from_u64(splitmix64(ga.seed ^ 0x4D69_6772_6174_6521));
        Engine {
            evaluator,
            space,
            baseline,
            pops,
            elitism,
            islands,
            mig_rng,
            history: History {
                baseline,
                records: Vec::with_capacity(ga.generations),
                first_seen_in_best: HashMap::new(),
                migrations: Vec::new(),
            },
            best: Individual {
                patch: Patch::empty(),
                fitness: Some(baseline),
            },
            archive: ParetoArchive::new(),
            gen: 0,
            bias,
        }
    }

    /// Rebuilds the machine a [`SearchState`] describes: every stream at
    /// its captured word position, the evaluator cache re-imported, the
    /// mutation space re-derived (it is a pure function of workload ×
    /// weights).
    fn restore(workload: &'a dyn Workload, state: &SearchState) -> Engine<'a> {
        let evaluator = Evaluator::new(workload);
        evaluator.import_snapshot(&state.evaluator);
        let space = MutationSpace::new(workload.kernels(), state.weights.clone());
        let pops = state.spec.island_populations();
        let elitism = split_elitism(state.spec.ga.elitism, pops.len());
        let islands: Vec<Island> = state
            .islands
            .iter()
            .map(|snap| Island {
                rng: snap.rng.restore(),
                population: snap.population.clone(),
                scores: snap.scores.clone(),
                ranked: snap.ranked.clone(),
                history: snap.history.clone(),
                best: snap.best.clone(),
                adapt: snap.adapt.as_ref().map(IslandAdapt::restore),
            })
            .collect();
        let bias = hotspot_bias(workload, &state.spec, &space);
        Engine {
            evaluator,
            space,
            baseline: state.baseline,
            pops,
            elitism,
            islands,
            mig_rng: state.mig_rng.restore(),
            history: state.history.clone(),
            best: state.best.clone(),
            archive: ParetoArchive {
                points: state.pareto.clone(),
                seen: state.pareto_seen.iter().copied().collect(),
            },
            gen: state.gen,
            bias,
        }
    }

    /// Captures the machine as a serializable [`SearchState`] (the
    /// inverse of [`Engine::restore`]).
    fn snapshot(
        &self,
        workload: &dyn Workload,
        spec: &SearchSpec,
        weights: &MutationWeights,
    ) -> SearchState {
        let mut pareto_seen: Vec<u64> = self.archive.seen.iter().copied().collect();
        pareto_seen.sort_unstable();
        SearchState {
            workload: workload.name().to_string(),
            spec: spec.clone(),
            weights: weights.clone(),
            gen: self.gen,
            baseline: self.baseline,
            islands: self
                .islands
                .iter()
                .map(|isl| IslandSnapshot {
                    rng: StreamState::capture(&isl.rng),
                    population: isl.population.clone(),
                    scores: isl.scores.clone(),
                    ranked: isl.ranked.clone(),
                    history: isl.history.clone(),
                    best: isl.best.clone(),
                    adapt: isl.adapt.as_ref().map(IslandAdapt::snapshot),
                })
                .collect(),
            mig_rng: StreamState::capture(&self.mig_rng),
            history: self.history.clone(),
            best: self.best.clone(),
            pareto: self.archive.points.clone(),
            pareto_seen,
            evaluator: self.evaluator.export_snapshot(),
        }
    }

    /// One full generation — the body of the old loop, verbatim in RNG
    /// consumption order (the bit-identity pins depend on it):
    /// evaluate → rank → record → observer → (unless final) migrate →
    /// breed.
    fn step(
        &mut self,
        spec: &SearchSpec,
        mut observer: Option<&mut (dyn SearchObserver + '_)>,
    ) -> StepStatus {
        let ga = &spec.ga;
        if self.gen >= ga.generations {
            return StepStatus::Done;
        }
        let gen = self.gen;
        let selection = spec.selection;
        let multi = spec.objectives.len() > 1;
        let n = self.islands.len();

        // Evaluate every island's population through one shared batch so
        // the worker pool (and the sharded cache) sees all of it at once.
        let patches: Vec<Patch> = self
            .islands
            .iter()
            .flat_map(|isl| isl.population.iter().map(|ind| ind.patch.clone()))
            .collect();
        let outcomes = self.evaluator.evaluate_batch(&patches, ga.threads);
        let mut cursor = 0;
        for (island_id, isl) in self.islands.iter_mut().enumerate() {
            if selection == Selection::Nsga2 {
                isl.scores = vec![Vec::new(); isl.population.len()];
            }
            for (slot, ind) in isl.population.iter_mut().enumerate() {
                let outcome = &outcomes[cursor];
                ind.fitness = outcome.fitness;
                // Score vectors are only materialized when someone
                // consumes them — the scalar/tournament path stays as
                // allocation-free as the legacy engine.
                let scoring = multi || selection == Selection::Nsga2;
                if let (Some(f), true) = (outcome.fitness, scoring) {
                    let scores: Vec<f64> = spec
                        .objectives
                        .iter()
                        .map(|o| o.score(outcome).expect("outcome is valid"))
                        .collect();
                    if multi {
                        self.archive
                            .offer(&ind.patch, f, &scores, gen, island_id, slot);
                    }
                    if selection == Selection::Nsga2 {
                        isl.scores[slot] = scores;
                    }
                }
                cursor += 1;
            }
            isl.rank(selection);
            // Resolve the credits bred into this population now that it
            // is measured: decay first so the new evidence lands at full
            // weight in the sliding window.
            if let Some(ad) = isl.adapt.as_mut() {
                ad.stats.decay(DECAY);
                for (slot, credit) in std::mem::take(&mut ad.pending).into_iter().enumerate() {
                    let Some(c) = credit else { continue };
                    let child = isl.population[slot].fitness;
                    let improved =
                        matches!((child, c.parent_fitness), (Some(cf), Some(pf)) if cf < pf);
                    ad.stats.record(c.op, child.is_some(), improved);
                }
            }
        }
        for (id, isl) in self.islands.iter_mut().enumerate() {
            isl.record(gen, id, self.baseline);
        }

        // Global record: the best island this generation.
        let winner = self
            .islands
            .iter()
            .enumerate()
            .filter_map(|(id, isl)| isl.gen_best().map(|gb| (id, gb)))
            .min_by(|(_, a), (_, b)| {
                a.fitness
                    .partial_cmp(&b.fitness)
                    .expect("valid fitness is never NaN")
            });
        let valid_total: usize = self.islands.iter().map(|isl| isl.ranked.len()).sum();
        let record = if let Some((id, gb)) = winner {
            let gb = gb.clone();
            let f = gb.fitness.expect("winner is valid");
            if f < self.best.fitness.expect("baseline valid") {
                self.best = gb.clone();
            }
            for e in gb.patch.edits() {
                self.history.first_seen_in_best.entry(*e).or_insert(gen);
            }
            GenerationRecord {
                gen,
                island: id,
                best_fitness: f,
                best_speedup: self.baseline / f,
                best_patch: gb.patch,
                valid: valid_total,
            }
        } else {
            GenerationRecord {
                gen,
                island: 0,
                best_fitness: self.baseline,
                best_speedup: 1.0,
                best_patch: Patch::empty(),
                valid: 0,
            }
        };
        self.history.records.push(record);
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_generation(self.history.records.last().expect("just pushed"));
        }

        self.gen = gen + 1;
        if self.gen == ga.generations {
            // The final generation skips migration and breeding, exactly
            // as the old loop's `break` did.
            return StepStatus::Advanced { gen };
        }

        // Migration: collect everything against the pre-migration
        // populations first, then deliver, so a fast individual cannot
        // hop two islands in one wave.
        if n > 1 && spec.migration_interval > 0 && (gen + 1).is_multiple_of(spec.migration_interval)
        {
            let mut inboxes: Vec<Vec<(MigrationEvent, Individual, Vec<f64>)>> = vec![Vec::new(); n];
            for (src, isl) in self.islands.iter().enumerate() {
                let dst = match spec.topology {
                    Topology::Ring => (src + 1) % n,
                    Topology::Random => {
                        let pick = self.mig_rng.gen_range(0..n - 1);
                        if pick >= src {
                            pick + 1
                        } else {
                            pick
                        }
                    }
                };
                for &i in isl.ranked.iter().take(spec.emigrants) {
                    let emigrant = isl.population[i].clone();
                    let event = MigrationEvent {
                        gen,
                        from: src,
                        to: dst,
                        fitness: emigrant.fitness.expect("ranked emigrant is valid"),
                        patch: emigrant.patch.clone(),
                    };
                    let scores = isl.scores.get(i).cloned().unwrap_or_default();
                    inboxes[dst].push((event, emigrant, scores));
                }
            }
            // Even with elitism disabled, an island's current champion
            // survives the wave — migration fills weak slots only, and
            // the log records only the crossings actually delivered.
            let protect = self.elitism.max(1);
            for (isl, inbox) in self.islands.iter_mut().zip(inboxes) {
                let capacity = isl.receive_capacity(protect);
                let mut delivered = Vec::with_capacity(inbox.len().min(capacity));
                for (event, imm, scores) in inbox.into_iter().take(capacity) {
                    if let Some(obs) = observer.as_deref_mut() {
                        obs.on_migration(&event);
                    }
                    self.history.migrations.push(event);
                    delivered.push((imm, scores));
                }
                isl.receive(delivered, protect, selection);
            }
        }

        let elitism = self.elitism;
        let baseline = self.baseline;
        for (isl, &pop) in self.islands.iter_mut().zip(&self.pops) {
            isl.breed(
                ga,
                pop,
                elitism,
                baseline,
                &self.space,
                selection,
                spec.adapt,
                self.bias.as_ref(),
            );
        }
        StepStatus::Advanced { gen }
    }

    /// Merged cross-island scheduler report (`None` when no island runs
    /// a scheduler — i.e. under [`AdaptPolicy::Uniform`]).
    fn adapt_report(&self, spec: &SearchSpec) -> Option<AdaptReport> {
        let mut merged = OperatorStats::default();
        let mut any = false;
        for isl in &self.islands {
            if let Some(ad) = &isl.adapt {
                merged.merge(&ad.stats);
                any = true;
            }
        }
        any.then(|| AdaptReport::new(spec.adapt, &merged))
    }

    /// Finalization: fan the migration log out to per-island histories,
    /// order the archive by provenance, compute the speedup.
    fn into_result(mut self, spec: &SearchSpec) -> SearchResult {
        for (id, isl) in self.islands.iter_mut().enumerate() {
            isl.history.migrations = self
                .history
                .migrations
                .iter()
                .filter(|m| m.from == id || m.to == id)
                .cloned()
                .collect();
        }
        // Offers happen in (gen, island, slot) order, and the archive
        // preserves relative order among survivors, so this sort is a
        // stable no-op in-process. It is the *invariant* that matters:
        // the final front is ordered by provenance, never by archive
        // internals, so a resumed run cannot reorder it.
        let mut pareto = self.archive.points;
        pareto.sort_by_key(|p| (p.gen, p.island, p.slot));
        let speedup = self.baseline / self.best.fitness.expect("best individual is always valid");
        SearchResult {
            best: self.best,
            speedup,
            history: self.history,
            islands: self.islands.into_iter().map(|isl| isl.history).collect(),
            evals: self.evaluator.evals_performed(),
            cache_hits: self.evaluator.cache_hits(),
            instructions: self.evaluator.instructions_simulated(),
            objectives: spec.objectives.clone(),
            pareto,
        }
    }
}

/// Tournament selection over the valid individuals; falls back to a
/// random (possibly invalid) individual when nothing is valid yet.
fn tournament<'p, R: Rng>(
    population: &'p [Individual],
    ranked: &[usize],
    k: usize,
    rng: &mut R,
) -> &'p Individual {
    if ranked.is_empty() {
        return population.choose(rng).expect("population non-empty");
    }
    let mut best: Option<usize> = None;
    for _ in 0..k.max(1) {
        let cand = *ranked.choose(rng).expect("ranked non-empty");
        best = Some(match best {
            None => cand,
            Some(cur) => {
                if population[cand].fitness < population[cur].fitness {
                    cand
                } else {
                    cur
                }
            }
        });
    }
    &population[best.expect("at least one round ran")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_gpu::LaunchStats;
    use gevo_ir::{AddrSpace, Kernel, KernelBuilder, Operand, Special};
    use proptest::prelude::*;

    /// Toy workload with a built-in speed/accuracy trade-off: each
    /// deleted instruction shaves 10 cycles but costs 0.05 normalized
    /// error — an approximate-computing stand-in with a known Pareto
    /// staircase. The store must survive.
    struct Approx {
        kernels: Vec<Kernel>,
        store_id: gevo_ir::InstId,
        base_insts: usize,
    }

    impl Approx {
        fn new() -> Approx {
            let mut b = KernelBuilder::new("approx");
            let out = b.param_ptr("out", AddrSpace::Global);
            let tid = b.special_i32(Special::ThreadId);
            let mut acc = b.mov(Operand::ImmI32(0));
            for _ in 0..6 {
                acc = b.add(acc.into(), Operand::ImmI32(1));
            }
            let _ = acc;
            let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
            let store_probe = b.peek_next_id();
            b.store_global_i32(addr.into(), tid.into());
            b.ret();
            let kernels = vec![b.finish()];
            let base_insts = kernels[0].inst_count();
            Approx {
                kernels,
                store_id: store_probe,
                base_insts,
            }
        }
    }

    impl Workload for Approx {
        fn name(&self) -> &'static str {
            "approx"
        }
        fn kernels(&self) -> &[Kernel] {
            &self.kernels
        }
        fn evaluate(&self, kernels: &[Kernel], _seed: u64) -> EvalOutcome {
            let k = &kernels[0];
            if k.locate(self.store_id).is_none() {
                return EvalOutcome::fail("store deleted");
            }
            if gevo_ir::verify::verify(k).is_err() {
                return EvalOutcome::fail("verification");
            }
            let deleted = self.base_insts.saturating_sub(k.inst_count());
            #[allow(clippy::cast_precision_loss)]
            EvalOutcome::pass_with_error(
                100.0 + 10.0 * k.inst_count() as f64,
                0.05 * deleted as f64,
                LaunchStats::default(),
            )
        }
    }

    fn quick_ga(seed: u64) -> GaConfig {
        GaConfig {
            population: 24,
            elitism: 2,
            crossover_p: 0.8,
            mutation_p: 0.9,
            generations: 12,
            tournament: 3,
            seed,
            threads: 1,
            max_patch_len: 64,
        }
    }

    // ----- NSGA-II primitives ---------------------------------------

    #[test]
    fn domination_is_a_strict_partial_order() {
        let a = vec![1.0, 1.0];
        let b = vec![2.0, 2.0];
        let c = vec![1.0, 3.0];
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a), "irreflexive");
        assert!(!dominates(&a, &c) || !dominates(&c, &a), "asymmetric");
        assert!(!dominates(&b, &c) && !dominates(&c, &b), "incomparable");
    }

    #[test]
    fn non_dominated_sort_layers_a_known_set() {
        // Front 0: (1,4), (2,2), (4,1). Front 1: (3,4), (4,3). Front 2: (5,5).
        let scores = vec![
            vec![3.0, 4.0],
            vec![1.0, 4.0],
            vec![5.0, 5.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![4.0, 3.0],
        ];
        let fronts = non_dominated_sort(&scores);
        assert_eq!(fronts, vec![vec![1, 3, 4], vec![0, 5], vec![2]]);
    }

    #[test]
    fn crowding_gives_extremes_infinity_and_interiors_gaps() {
        let scores = vec![vec![1.0, 5.0], vec![2.0, 3.0], vec![5.0, 1.0]];
        let front = vec![0, 1, 2];
        let d = crowding_distances(&scores, &front);
        assert!(d[0].is_infinite() && d[2].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    #[test]
    fn crowding_is_a_pure_function_of_the_score_vector() {
        // Duplicate of an extreme point: both copies get INFINITY (the
        // distinct-value rule), so permuting input order cannot move the
        // boundary bonus between them.
        let scores = vec![
            vec![1.0, 5.0],
            vec![1.0, 5.0],
            vec![3.0, 3.0],
            vec![5.0, 1.0],
        ];
        let d = crowding_distances(&scores, &[0, 1, 2, 3]);
        assert_eq!(d[0], d[1]);
        assert!(d[0].is_infinite());
    }

    #[test]
    fn nsga2_order_ranks_front_then_crowding() {
        let scores = vec![
            vec![3.0, 3.0], // front 1
            vec![1.0, 5.0], // front 0, extreme
            vec![2.9, 2.9], // front 0, interior (crowded)
            vec![5.0, 1.0], // front 0, extreme
        ];
        let order = nsga2_order(&scores);
        assert_eq!(order[3], 0, "dominated point ranks last");
        assert!(order[..3].contains(&1) && order[..3].contains(&2) && order[..3].contains(&3));
        assert_eq!(
            order[2], 2,
            "the crowded interior point ranks behind the extremes"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x4E5A_6A11))]

        /// Fronts are disjoint and exhaustive; no member dominates
        /// another inside its front; every member of front k+1 is
        /// dominated by someone in front k.
        #[test]
        fn fronts_partition_and_respect_domination(
            raw in prop::collection::vec(prop::collection::vec(0u8..6, 3), 1..24)
        ) {
            let scores: Vec<Vec<f64>> =
                raw.iter().map(|v| v.iter().map(|&x| f64::from(x)).collect()).collect();
            let fronts = non_dominated_sort(&scores);

            let mut seen = vec![false; scores.len()];
            for front in &fronts {
                for &i in front {
                    prop_assert!(!seen[i], "fronts are disjoint");
                    seen[i] = true;
                }
                for &i in front {
                    for &j in front {
                        prop_assert!(!dominates(&scores[i], &scores[j]),
                            "no intra-front domination");
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "fronts are exhaustive");

            for k in 1..fronts.len() {
                for &j in &fronts[k] {
                    prop_assert!(
                        fronts[k - 1].iter().any(|&i| dominates(&scores[i], &scores[j])),
                        "front {k} member {j} must be dominated from front {}", k - 1
                    );
                }
            }
        }

        /// Permuting the input never changes the *sequence of score
        /// vectors* the NSGA-II ranking visits — crowding-distance
        /// tie-breaking is deterministic under permutation.
        #[test]
        fn nsga2_order_is_permutation_deterministic(
            raw in prop::collection::vec(prop::collection::vec(0u8..5, 2), 1..16),
            rot in 0usize..16,
        ) {
            let scores: Vec<Vec<f64>> =
                raw.iter().map(|v| v.iter().map(|&x| f64::from(x)).collect()).collect();
            let mut permuted = scores.clone();
            let shift = rot % permuted.len().max(1);
            permuted.rotate_left(shift);

            let visit = |s: &[Vec<f64>]| -> Vec<Vec<f64>> {
                nsga2_order(s).into_iter().map(|i| s[i].clone()).collect()
            };
            prop_assert_eq!(visit(&scores), visit(&permuted));
        }
    }

    // ----- The Search session ---------------------------------------

    #[test]
    fn objectives_switch_selection_to_nsga2() {
        let w = Approx::new();
        let s = Search::new(&w).objectives(&[Objective::Cycles, Objective::Error]);
        assert_eq!(s.spec().selection, Selection::Nsga2);
        let s = Search::new(&w).objectives(&[Objective::Cycles]);
        assert_eq!(s.spec().selection, Selection::Tournament);
        let s = Search::new(&w).objectives(&[]);
        assert_eq!(s.spec().objectives, vec![Objective::Cycles]);
    }

    #[test]
    fn single_objective_search_has_empty_pareto() {
        let w = Approx::new();
        let res = Search::new(&w).config(quick_ga(1)).run();
        assert!(res.pareto.is_empty());
        assert_eq!(res.objectives, vec![Objective::Cycles]);
    }

    #[test]
    fn two_objective_search_surfaces_a_multi_point_front() {
        let w = Approx::new();
        let res = Search::new(&w)
            .config(quick_ga(5))
            .objectives(&[Objective::Cycles, Objective::Error])
            .run();
        assert!(
            res.pareto.len() >= 2,
            "speed/accuracy staircase must yield a real front, got {}",
            res.pareto.len()
        );
        // Mutually non-dominated, and every point is valid.
        for (i, p) in res.pareto.iter().enumerate() {
            assert_eq!(p.scores.len(), 2);
            assert_eq!(p.scores[0], p.fitness, "first objective is cycles");
            for (j, q) in res.pareto.iter().enumerate() {
                if i != j {
                    assert!(!dominates(&p.scores, &q.scores), "archive point dominated");
                }
            }
        }
        // The exact-output point (error 0) is on the front: nothing can
        // dominate the baseline's error.
        assert!(res.pareto.iter().any(|p| p.scores[1] == 0.0));
        // And so is something strictly faster-but-sloppier.
        assert!(
            res.pareto
                .iter()
                .any(|p| p.scores[1] > 0.0 && p.fitness < res.history.baseline),
            "the search found an approximate faster variant"
        );
    }

    #[test]
    fn nsga2_runs_are_deterministic_per_seed() {
        let w = Approx::new();
        let run = || {
            Search::new(&w)
                .config(quick_ga(9))
                .islands(3)
                .objectives(&[Objective::Cycles, Objective::Error])
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.pareto, b.pareto);
        assert_eq!(a.history, b.history);
        assert_eq!(a.best.patch, b.best.patch);
    }

    #[test]
    fn nsga2_island_run_keeps_history_shape() {
        let w = Approx::new();
        let mut ga = quick_ga(3);
        ga.generations = 8;
        let res = Search::new(&w)
            .config(ga)
            .islands(3)
            .migration_interval(2)
            .objectives(&[Objective::Cycles, Objective::Error])
            .run();
        assert_eq!(res.history.records.len(), 8);
        assert_eq!(res.islands.len(), 3);
        for (id, h) in res.islands.iter().enumerate() {
            assert_eq!(h.records.len(), 8);
            assert!(h.records.iter().all(|r| r.island == id));
        }
        assert!(res.speedup >= 1.0);
    }

    /// Collects everything streamed during a run.
    #[derive(Default)]
    struct Tape {
        gens: Vec<GenerationRecord>,
        migrations: Vec<MigrationEvent>,
    }

    impl SearchObserver for Tape {
        fn on_generation(&mut self, record: &GenerationRecord) {
            self.gens.push(record.clone());
        }
        fn on_migration(&mut self, event: &MigrationEvent) {
            self.migrations.push(event.clone());
        }
    }

    #[test]
    fn observer_streams_exactly_what_history_records() {
        let w = Approx::new();
        let mut tape = Tape::default();
        let res = Search::new(&w)
            .config(quick_ga(2))
            .islands(3)
            .migration_interval(2)
            .observer(&mut tape)
            .run();
        assert_eq!(tape.gens, res.history.records);
        assert_eq!(tape.migrations, res.history.migrations);
        assert!(
            !tape.migrations.is_empty(),
            "migration happened and streamed"
        );
    }

    #[test]
    fn observer_does_not_perturb_the_run() {
        let w = Approx::new();
        let mut tape = Tape::default();
        let observed = Search::new(&w)
            .config(quick_ga(4))
            .islands(2)
            .observer(&mut tape)
            .run();
        let silent = Search::new(&w).config(quick_ga(4)).islands(2).run();
        assert_eq!(observed.history, silent.history);
        assert_eq!(observed.best.patch, silent.best.patch);
    }

    #[test]
    fn objective_scores_read_the_outcome() {
        let stats = LaunchStats {
            instructions: 42,
            global_segments: 7,
            ..LaunchStats::default()
        };
        let pass = EvalOutcome::pass_with_error(123.0, 0.25, stats);
        assert_eq!(Objective::Cycles.score(&pass), Some(123.0));
        assert_eq!(Objective::Error.score(&pass), Some(0.25));
        assert_eq!(Objective::Instructions.score(&pass), Some(42.0));
        assert_eq!(Objective::MemoryTraffic.score(&pass), Some(7.0));
        let fail = EvalOutcome::fail("nope");
        assert_eq!(Objective::Cycles.score(&fail), None);
        assert_eq!(Objective::Error.score(&fail), None);
    }

    #[test]
    fn spec_roundtrips_island_config() {
        let cfg = IslandConfig::new(quick_ga(0), 4);
        let spec: SearchSpec = cfg.clone().into();
        assert_eq!(spec.ga, cfg.ga);
        assert_eq!(spec.islands, 4);
        assert_eq!(spec.island_populations(), cfg.island_populations());
        assert_eq!(spec.objectives, vec![Objective::Cycles]);
        assert_eq!(spec.selection, Selection::Tournament);
    }
}
