//! Workload abstraction and fitness evaluation.
//!
//! The paper's fitness function (§III-E): kernel execution time averaged
//! over the test set; individuals failing any test are invalid and
//! excluded from selection. Here "execution time" is the simulator's
//! modeled cycles.
//!
//! [`Evaluator`] memoizes outcomes in a **sharded cache**: a fixed
//! power-of-two array of locks, each guarding one slice of the hash
//! space, selected by the low bits of the patch's content hash. The
//! single-population GA, the island engine ([`crate::island`]) and the
//! [`Evaluator::evaluate_batch`] worker pool all hit the cache
//! concurrently; sharding keeps those lookups from serializing on one
//! mutex.
//!
//! On a cache miss an evaluation is apply → compile → run: the patch is
//! applied to the pristine kernels, [`Workload::compile`] lowers them and
//! [`Workload::evaluate_compiled`] runs the test set.
//!
//! ```
//! use gevo_engine::{Evaluator, EvalOutcome, Patch, Workload};
//! use gevo_gpu::LaunchStats;
//! use gevo_ir::{AddrSpace, Kernel, KernelBuilder, Operand, Special};
//!
//! /// Fitness = instruction count: fewer instructions, faster "kernel".
//! struct CountWork { kernels: Vec<Kernel> }
//! impl Workload for CountWork {
//!     fn name(&self) -> &str { "count" }
//!     fn kernels(&self) -> &[Kernel] { &self.kernels }
//!     fn evaluate(&self, ks: &[Kernel], _seed: u64) -> EvalOutcome {
//!         EvalOutcome::pass(ks[0].inst_count() as f64, LaunchStats::default())
//!     }
//! }
//!
//! let mut b = KernelBuilder::new("k");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! b.store_global_i32(addr.into(), tid.into());
//! b.ret();
//! let w = CountWork { kernels: vec![b.finish()] };
//!
//! let ev = Evaluator::new(&w);
//! let base = ev.baseline();
//! assert!(base > 0.0);
//! let again = ev.evaluate(&Patch::empty());
//! assert_eq!(again.fitness, Some(base));
//! assert_eq!(ev.evals_performed(), 1, "second lookup is a cache hit");
//! assert_eq!(ev.cache_hits(), 1);
//! ```

use crate::edit::Patch;
use gevo_gpu::{CompiledKernel, LaunchStats};
use gevo_ir::Kernel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// The outcome of evaluating one program variant on the full test set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Mean kernel cycles across test cases; `None` when any test failed
    /// (wrong output, fault, timeout, verification error).
    pub fitness: Option<f64>,
    /// Human-readable reason for failure, when failed.
    pub failure: Option<String>,
    /// Aggregated launch statistics for the (passing) evaluation.
    pub stats: Option<LaunchStats>,
    /// Measured correctness deviation of a *passing* variant, normalized
    /// so `0.0` is an exact match and `1.0` sits on the workload's
    /// acceptance threshold. Workloads with bit-exact validation always
    /// report `0.0`; fuzzy-validated workloads (`SIMCoV`'s per-value
    /// mean/variance bounds) report how much of the tolerance budget the
    /// variant consumed. This is the paper's second GEVO objective
    /// (runtime *and* error — [`crate::search::Objective::Error`]).
    pub error: f64,
}

impl EvalOutcome {
    /// A passing outcome with an exact output match (`error = 0`).
    #[must_use]
    pub fn pass(cycles: f64, stats: LaunchStats) -> EvalOutcome {
        EvalOutcome::pass_with_error(cycles, 0.0, stats)
    }

    /// A passing outcome that consumed part of its tolerance budget
    /// (`error` is the normalized deviation; see [`EvalOutcome::error`]).
    #[must_use]
    pub fn pass_with_error(cycles: f64, error: f64, stats: LaunchStats) -> EvalOutcome {
        EvalOutcome {
            fitness: Some(cycles),
            failure: None,
            stats: Some(stats),
            error,
        }
    }

    /// A failing outcome with a reason.
    #[must_use]
    pub fn fail(reason: impl Into<String>) -> EvalOutcome {
        EvalOutcome {
            fitness: None,
            failure: Some(reason.into()),
            stats: None,
            error: f64::INFINITY,
        }
    }

    /// True if every test passed.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.fitness.is_some()
    }

    /// Serializes to a JSON object. `None` fields are omitted; a
    /// non-finite `error` (every failing outcome carries
    /// `f64::INFINITY`) is encoded as the string `"inf"` since JSON has
    /// no infinities.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        if let Some(f) = self.fitness {
            obj.insert("fitness", f);
        }
        if let Some(reason) = &self.failure {
            obj.insert("failure", reason.clone());
        }
        if let Some(stats) = &self.stats {
            obj.insert("stats", stats.to_json());
        }
        if self.error.is_finite() {
            obj.insert("error", self.error);
        } else {
            obj.insert("error", "inf");
        }
        serde_json::Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the malformed field.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        if v.as_object().is_none() {
            return Err(format!("EvalOutcome: expected object, got {v}"));
        }
        let error = match v.get("error") {
            Some(serde_json::Value::String(s)) if s == "inf" => f64::INFINITY,
            Some(e) => e
                .as_f64()
                .ok_or_else(|| format!("EvalOutcome: invalid error {e}"))?,
            None => return Err("EvalOutcome: missing error".to_string()),
        };
        let fitness = match v.get("fitness") {
            None => None,
            Some(f) => Some(
                f.as_f64()
                    .ok_or_else(|| format!("EvalOutcome: invalid fitness {f}"))?,
            ),
        };
        let failure = match v.get("failure") {
            None => None,
            Some(s) => Some(
                s.as_str()
                    .ok_or_else(|| format!("EvalOutcome: invalid failure {s}"))?
                    .to_string(),
            ),
        };
        let stats = match v.get("stats") {
            None => None,
            Some(s) => Some(gevo_gpu::LaunchStats::from_json(s)?),
        };
        Ok(EvalOutcome {
            fitness,
            failure,
            stats,
            error,
        })
    }
}

/// The serializable logical content of an [`Evaluator`]: seed, counters
/// and the outcome cache's entries.
///
/// Checkpointing this alongside the search state is what keeps a
/// resumed run's `SearchResult` **bit-identical** to the uninterrupted
/// one: elites re-scored after a restart must hit the cache exactly as
/// they would have in-process, or the `evals`/`cache_hits`/
/// `instructions` counters (all part of the result) drift.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatorSnapshot {
    /// Scheduler seed in force ([`Evaluator::set_eval_seed`]).
    pub eval_seed: u64,
    /// Evaluations actually performed so far.
    pub evals: u64,
    /// Cache hits served so far.
    pub cache_hits: u64,
    /// Warp-instructions simulated so far.
    pub instructions: u64,
    /// Outcome-cache entries as `(content_hash, outcome)` pairs, sorted
    /// by hash so the serialized form is independent of `HashMap`
    /// iteration order (which varies across processes).
    pub outcomes: Vec<(u64, EvalOutcome)>,
}

impl EvaluatorSnapshot {
    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert("eval_seed", self.eval_seed);
        obj.insert("evals", self.evals);
        obj.insert("cache_hits", self.cache_hits);
        obj.insert("instructions", self.instructions);
        let outcomes: Vec<serde_json::Value> = self
            .outcomes
            .iter()
            .map(|(key, outcome)| {
                serde_json::Value::Array(vec![serde_json::Value::from(*key), outcome.to_json()])
            })
            .collect();
        obj.insert("outcomes", serde_json::Value::Array(outcomes));
        serde_json::Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the malformed field.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let want_u64 = |name: &str| {
            v.get(name)
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| format!("EvaluatorSnapshot: missing or invalid {name}"))
        };
        let outcomes = v
            .get("outcomes")
            .and_then(serde_json::Value::as_array)
            .ok_or("EvaluatorSnapshot: missing outcomes")?
            .iter()
            .map(|pair| {
                let items = pair
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| format!("EvaluatorSnapshot: bad outcome pair {pair}"))?;
                let key = items[0]
                    .as_u64()
                    .ok_or_else(|| format!("EvaluatorSnapshot: bad outcome key {}", items[0]))?;
                Ok((key, EvalOutcome::from_json(&items[1])?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(EvaluatorSnapshot {
            eval_seed: want_u64("eval_seed")?,
            evals: want_u64("evals")?,
            cache_hits: want_u64("cache_hits")?,
            instructions: want_u64("instructions")?,
            outcomes,
        })
    }
}

/// A program under optimization: pristine kernels plus the machinery to
/// score a variant against the test set.
///
/// Implementations live in `gevo-workloads` (ADEPT-V0/V1, `SIMCoV`); the
/// engine is generic over this trait.
pub trait Workload: Sync {
    /// Identifier used in reports.
    fn name(&self) -> &str;

    /// The pristine kernels (the genome's reference frame). Order is
    /// significant: [`crate::Edit::kernel`] indexes this slice.
    fn kernels(&self) -> &[Kernel];

    /// Runs the variant on every test case and scores it. `eval_seed`
    /// perturbs scheduler interleaving for stochastic workloads
    /// (paper §II-C2); deterministic workloads may ignore it.
    fn evaluate(&self, kernels: &[Kernel], eval_seed: u64) -> EvalOutcome;

    /// Lowers variant kernels into their compiled form for repeated
    /// launching (verification, CFG analysis and operand resolution paid
    /// once — see `gevo_gpu::compile`).
    ///
    /// Returning `None` (the default) means this workload has no
    /// compiled path and [`Workload::evaluate`] is used directly; tests
    /// and synthetic workloads that never touch the simulator keep the
    /// default. `Some(Err(_))` is a rejected variant (e.g. failed
    /// verification) and is scored as invalid without execution.
    fn compile(&self, kernels: &[Kernel]) -> Option<Result<Vec<CompiledKernel>, String>> {
        let _ = kernels;
        None
    }

    /// Scores a variant from its compiled form. Only called with the
    /// output of this workload's [`Workload::compile`]; the default is
    /// unreachable for workloads whose `compile` returns `None`.
    fn evaluate_compiled(&self, compiled: &[CompiledKernel], eval_seed: u64) -> EvalOutcome {
        let _ = (compiled, eval_seed);
        EvalOutcome::fail("workload has no compiled-launch path")
    }

    /// Inert: nothing in this workspace calls or overrides it; `perfbench/` forwards it.
    fn supports_delta_patch(&self) -> bool {
        false
    }

    /// Per-kernel, per-block cycle attribution of the **pristine**
    /// program: `profile[k][b]` = simulated cycles charged to block `b`
    /// of kernel `k` across the whole test set, from
    /// [`gevo_gpu::collect_profiles`]. The adaptive engine
    /// (DESIGN.md §3.10) feeds this into
    /// [`crate::MutationSpace::site_bias`] to bias edit sites toward
    /// hot blocks.
    ///
    /// The default runs one profiled evaluation of the pristine
    /// compiled form — a pure function of the workload (never of search
    /// state), so fresh and resumed sessions derive the identical bias.
    /// It deliberately bypasses the [`Evaluator`] : no cache entries, no
    /// counters, no eval-seed perturbation. Workloads without a compiled
    /// path (or whose pristine form fails) return `None` and the engine
    /// falls back to uniform site selection.
    fn hotspot_profile(&self) -> Option<Vec<Vec<u64>>> {
        let Ok(compiled) = self.compile(self.kernels())? else {
            return None;
        };
        let (outcome, profiles) =
            gevo_gpu::collect_profiles(|| self.evaluate_compiled(&compiled, 0));
        outcome.fitness?;
        let mut per_kernel: Vec<Vec<u64>> = vec![Vec::new(); compiled.len()];
        for p in &profiles {
            let Some(k) = compiled.iter().position(|c| c.name() == p.kernel) else {
                continue;
            };
            let dst = &mut per_kernel[k];
            if dst.len() < p.block_cycles.len() {
                dst.resize(p.block_cycles.len(), 0);
            }
            for (d, &c) in dst.iter_mut().zip(&p.block_cycles) {
                *d += c;
            }
        }
        Some(per_kernel)
    }
}

/// Number of cache shards. A fixed power of two so shard selection is a
/// mask of the patch hash's low bits; 16 comfortably out-scales the
/// worker pools the engine spawns (islands × batch threads) on the
/// machines this runs on.
pub const CACHE_SHARDS: usize = 16;

/// Extracts the human-readable message from a caught panic payload
/// (`panic!("...")` carries `&str` or `String`; anything else is
/// opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload.downcast_ref::<&'static str>().map_or_else(
        || {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "opaque panic payload".to_string())
        },
        |s| (*s).to_string(),
    )
}

/// Coarse classification of an evaluation failure, recovered from the
/// failure string [`EvalOutcome::failure`] carries (the outcome itself
/// stays a plain string — its serialized form is checkpointed and must
/// not change shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The interpreter's step budget killed a runaway mutant
    /// (`gevo_gpu::ExecError::StepLimit`) — the paper's timeout analog.
    StepLimit,
    /// Static verification rejected the variant before it ran.
    Verify,
    /// A simulated runtime fault (memory fault, misaligned access,
    /// barrier divergence, invalid launch, ...).
    Exec,
    /// The variant ran to completion but produced wrong output.
    Mismatch,
    /// The evaluation itself panicked and was caught by the
    /// [`Evaluator`]'s isolation boundary (see [`crate::quarantine`]).
    Panic,
    /// Anything else.
    Other,
}

impl FaultClass {
    /// Classifies a failure string. The match is on the stable phrasing
    /// each layer uses: `ExecError::StepLimit` displays "step limit",
    /// the shared compile pipeline prefixes verification failures with
    /// "verify:", launch-time exec errors all mention "fault",
    /// "misaligned", "barrier", "launch", "deadlock" or "type mismatch",
    /// and the isolation boundary prefixes caught panics with "panic:".
    /// Oracle rejections are mismatches: ADEPT phrases them as
    /// "... expected ...", `SIMCoV`'s tolerance check as "... exceeds
    /// ...", "... cells differ ...", "stats[...]: a vs oracle b" or
    /// "field size mismatch".
    #[must_use]
    pub fn classify(reason: &str) -> FaultClass {
        let has = |kws: &[&str]| kws.iter().any(|kw| reason.contains(kw));
        if reason.starts_with("panic:") {
            FaultClass::Panic
        } else if reason.contains("step limit") {
            FaultClass::StepLimit
        } else if reason.starts_with("verify:") || reason.contains("verification failed") {
            FaultClass::Verify
        } else if has(&[
            "fault",
            "misaligned",
            "barrier",
            "launch",
            "deadlock",
            "type mismatch",
        ]) {
            FaultClass::Exec
        } else if has(&[
            "expected",
            "exceeds",
            "cells differ",
            "vs oracle",
            "size mismatch",
        ]) {
            FaultClass::Mismatch
        } else {
            FaultClass::Other
        }
    }

    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            FaultClass::StepLimit => 0,
            FaultClass::Verify => 1,
            FaultClass::Exec => 2,
            FaultClass::Mismatch => 3,
            FaultClass::Panic => 4,
            FaultClass::Other => 5,
        }
    }
}

/// Per-class counts of failing evaluations actually performed.
/// Observability only: like the lowering counters these are
/// process-local (they reset on resume) and are deliberately absent
/// from [`EvaluatorSnapshot`] and [`crate::SearchResult`], so
/// checkpointed runs stay byte-identical to uninterrupted ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTallies {
    /// Runaway mutants killed by the interpreter's step budget.
    pub step_limit: usize,
    /// Variants rejected by static verification.
    pub verify: usize,
    /// Simulated runtime faults.
    pub exec: usize,
    /// Wrong-output variants.
    pub mismatch: usize,
    /// Evaluation panics caught at the isolation boundary.
    pub panic: usize,
    /// Unclassified failures.
    pub other: usize,
}

impl FaultTallies {
    /// Total failing evaluations across all classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.step_limit + self.verify + self.exec + self.mismatch + self.panic + self.other
    }

    /// Serializes to a JSON object (one integer field per class).
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert("step_limit", self.step_limit as u64);
        obj.insert("verify", self.verify as u64);
        obj.insert("exec", self.exec as u64);
        obj.insert("mismatch", self.mismatch as u64);
        obj.insert("panic", self.panic as u64);
        obj.insert("other", self.other as u64);
        serde_json::Value::Object(obj)
    }
}

/// Point-in-time view of the [`Evaluator`]'s throughput counters, for
/// benches and tests. Only `evals`, `cache_hits` and `instructions` are
/// result-visible (checkpointed in [`EvaluatorSnapshot`]); the rest
/// are observability only and never influence a trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Evaluations actually performed (outcome-cache misses).
    pub evals: usize,
    /// Outcome-cache hits served.
    pub cache_hits: usize,
    /// Full compilations performed ([`Workload::compile`] calls).
    pub compiles: usize,
    /// Inert, always 0; kept only because `perfbench/` reads it.
    pub compiled_hits: usize,
    /// Inert, always 0; kept only because `perfbench/` reads it.
    pub delta_patched: usize,
    /// Inert, always 0; kept only because `perfbench/` reads it.
    pub delta_fallbacks: usize,
    /// Warp-instructions simulated across performed evaluations.
    pub instructions: u64,
    /// Statically lowered instructions across every compiled image this
    /// evaluator produced — the denominator for the scalarization
    /// fraction.
    pub lowered_insts: u64,
    /// Of those, instructions the O2 uniformity pass scalarized
    /// (executed once per warp with a broadcast write). Zero at O0.
    pub uniform_insts: u64,
    /// Compile-time-folded facts across those images (constant-folded
    /// instructions plus branch terminators resolved to jumps). Zero
    /// at O0.
    pub folded_insts: u64,
    /// Failing evaluations actually performed, classified by fault
    /// class — the paper's timeout-kill analog made visible
    /// (`step_limit` counts runaway mutants the interpreter's step
    /// budget killed). Cache hits re-serving a failure add nothing.
    pub faults: FaultTallies,
}

impl EvalStats {
    /// Fraction of lowered instructions the uniformity pass scalarized,
    /// over every compiled image produced (0 when nothing compiled).
    #[must_use]
    pub fn scalarized_fraction(&self) -> f64 {
        if self.lowered_insts == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.uniform_insts as f64 / self.lowered_insts as f64
        }
    }
}

/// Memoizing evaluator: maps patches to outcomes through a workload,
/// caching by patch content hash. The analysis algorithms (§V) re-evaluate
/// heavily overlapping subsets; the cache keeps that tractable.
///
/// # Concurrency
///
/// The cache is split into [`CACHE_SHARDS`] independently locked shards,
/// selected by the low bits of [`Patch::content_hash`], so concurrent
/// islands and `evaluate_batch` workers do not contend on one mutex.
/// The evaluation seed is guarded by an [`RwLock`] that every
/// [`Evaluator::evaluate`] call holds in *read* mode across its whole
/// lookup–evaluate–insert sequence, and [`Evaluator::set_eval_seed`]
/// holds in *write* mode across its reseed-and-clear: a reseed can never
/// interleave with an in-flight evaluation, so the cache never holds an
/// outcome computed under a seed other than the one currently in force.
/// Readers don't block each other, so evaluations still run in parallel.
pub struct Evaluator<'w> {
    workload: &'w dyn Workload,
    shards: Vec<Mutex<HashMap<u64, EvalOutcome>>>,
    evals: AtomicUsize,
    cache_hits: AtomicUsize,
    compiles: AtomicUsize,
    /// Total simulated warp-instructions across performed evaluations
    /// (cache hits simulate nothing and add nothing).
    instructions: AtomicU64,
    /// Lowering-pass counters, accumulated over every compiled image
    /// this evaluator produces. Observability only — never
    /// checkpointed, so O0 and O2 runs keep byte-identical snapshots.
    lowered_insts: AtomicU64,
    uniform_insts: AtomicU64,
    folded_insts: AtomicU64,
    /// Failing performed evaluations by [`FaultClass`] index. Like the
    /// lowering counters: observability only, never checkpointed.
    faults: [AtomicUsize; FaultClass::COUNT],
    eval_seed: RwLock<u64>,
}

impl<'w> Evaluator<'w> {
    /// Wraps a workload.
    #[must_use]
    pub fn new(workload: &'w dyn Workload) -> Evaluator<'w> {
        Evaluator {
            workload,
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            evals: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            compiles: AtomicUsize::new(0),
            instructions: AtomicU64::new(0),
            lowered_insts: AtomicU64::new(0),
            uniform_insts: AtomicU64::new(0),
            folded_insts: AtomicU64::new(0),
            faults: std::array::from_fn(|_| AtomicUsize::new(0)),
            eval_seed: RwLock::new(0),
        }
    }

    /// The wrapped workload.
    #[must_use]
    pub fn workload(&self) -> &dyn Workload {
        self.workload
    }

    /// The shard holding a given patch hash.
    #[allow(clippy::cast_possible_truncation)]
    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, EvalOutcome>> {
        &self.shards[(key as usize) & (CACHE_SHARDS - 1)]
    }

    /// Accumulates the lowering-pass counters over a newly produced
    /// compiled image set (all zeros at O0; see [`EvalStats`]).
    fn count_pass_facts(&self, compiled: &[CompiledKernel]) {
        let as_u64 = |n: usize| u64::try_from(n).expect("count fits u64");
        let (mut lowered, mut uniform, mut folded) = (0u64, 0u64, 0u64);
        for ck in compiled {
            lowered += as_u64(ck.inst_count());
            uniform += as_u64(ck.uniform_inst_count());
            folded += as_u64(ck.folded_inst_count());
        }
        self.lowered_insts.fetch_add(lowered, Ordering::Relaxed);
        self.uniform_insts.fetch_add(uniform, Ordering::Relaxed);
        self.folded_insts.fetch_add(folded, Ordering::Relaxed);
    }

    /// Sets the scheduler seed used for subsequent evaluations and clears
    /// the outcome cache (outcomes may differ under the new seed).
    ///
    /// The reseed and the clear happen under the seed's write lock, which
    /// excludes every concurrent [`Evaluator::evaluate`] (they hold the
    /// read lock for their full duration): no stale-seed outcome can be
    /// inserted into the freshly cleared cache.
    pub fn set_eval_seed(&self, seed: u64) {
        let mut guard = self.eval_seed.write().expect("seed lock");
        *guard = seed;
        for shard in &self.shards {
            shard.lock().expect("cache shard").clear();
        }
    }

    /// Evaluates a patch (cached).
    pub fn evaluate(&self, patch: &Patch) -> EvalOutcome {
        let key = patch.content_hash();
        // Hold the seed read-lock across lookup, evaluation and insert so
        // a concurrent set_eval_seed cannot slip its clear between our
        // evaluation and our insert (see the type-level docs).
        let seed_guard = self.eval_seed.read().expect("seed lock");
        if let Some(hit) = self.shard(key).lock().expect("cache shard").get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        // Apply → compile → run; workloads without a compiled path
        // interpret the applied kernels directly.
        //
        // The whole computation runs behind `catch_unwind`: a mutant
        // that finds a simulator or compiler panic is a worst-fitness
        // individual (quarantined for replay), never a dead search.
        // The caught failure is cached and checkpointed like any other
        // outcome, so a genuine (deterministic) panic scores the same
        // across resume — byte-identity holds.
        let seed = *seed_guard;
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (kernels, _) = patch.apply(self.workload.kernels());
            match self.workload.compile(&kernels) {
                Some(Ok(compiled)) => {
                    self.compiles.fetch_add(1, Ordering::Relaxed);
                    self.count_pass_facts(&compiled);
                    self.workload.evaluate_compiled(&compiled, seed)
                }
                Some(Err(reason)) => EvalOutcome::fail(reason),
                None => self.workload.evaluate(&kernels, seed),
            }
        }));
        let outcome = computed.unwrap_or_else(|payload| {
            let reason = format!("panic: {}", panic_message(payload.as_ref()));
            crate::quarantine::quarantine(&crate::quarantine::QuarantineRecord {
                workload: self.workload.name().to_string(),
                patch: patch.clone(),
                eval_seed: seed,
                reason: reason.clone(),
            });
            EvalOutcome::fail(reason)
        });
        if let Some(reason) = &outcome.failure {
            let class = FaultClass::classify(reason);
            self.faults[class.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.evals.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &outcome.stats {
            self.instructions
                .fetch_add(stats.instructions, Ordering::Relaxed);
        }
        self.shard(key)
            .lock()
            .expect("cache shard")
            .insert(key, outcome.clone());
        outcome
    }

    /// Mean cycles of the variant, `None` if invalid.
    pub fn fitness(&self, patch: &Patch) -> Option<f64> {
        self.evaluate(patch).fitness
    }

    /// Cycles of the unmodified program.
    ///
    /// # Panics
    /// Panics if the pristine program fails its own tests — that is a
    /// workload bug, not an evolutionary outcome.
    pub fn baseline(&self) -> f64 {
        self.fitness(&Patch::empty())
            .expect("pristine program must pass its own test set")
    }

    /// Speedup of the variant over the pristine program (>1 is faster),
    /// `None` if invalid.
    pub fn speedup(&self, patch: &Patch) -> Option<f64> {
        let base = self.baseline();
        self.fitness(patch).map(|f| base / f)
    }

    /// Evaluations actually performed (cache misses).
    #[must_use]
    pub fn evals_performed(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    /// Cache hits served.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Total simulated warp-instructions across evaluations actually
    /// performed ([`gevo_gpu::LaunchStats::instructions`], summed over
    /// every passing evaluation's launches). Dividing by wall time gives
    /// the interpreter's throughput — the harnesses report it alongside
    /// evals/sec, which conflates simulation speed with kernel size and
    /// cache behaviour.
    #[must_use]
    pub fn instructions_simulated(&self) -> u64 {
        self.instructions.load(Ordering::Relaxed)
    }

    /// Successful kernel compilations performed (one per performed
    /// evaluation on workloads with a compiled path).
    #[must_use]
    pub fn compiles_performed(&self) -> usize {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Instructions statically lowered across every compiled image this
    /// evaluator produced (see [`EvalStats::lowered_insts`]).
    #[must_use]
    pub fn insts_lowered(&self) -> u64 {
        self.lowered_insts.load(Ordering::Relaxed)
    }

    /// Instructions the O2 uniformity pass scalarized across those
    /// images (zero at O0).
    #[must_use]
    pub fn insts_scalarized(&self) -> u64 {
        self.uniform_insts.load(Ordering::Relaxed)
    }

    /// Compile-time-folded facts across those images (zero at O0).
    #[must_use]
    pub fn insts_folded(&self) -> u64 {
        self.folded_insts.load(Ordering::Relaxed)
    }

    /// Per-class counts of failing evaluations actually performed.
    #[must_use]
    pub fn fault_tallies(&self) -> FaultTallies {
        let load = |class: FaultClass| self.faults[class.index()].load(Ordering::Relaxed);
        FaultTallies {
            step_limit: load(FaultClass::StepLimit),
            verify: load(FaultClass::Verify),
            exec: load(FaultClass::Exec),
            mismatch: load(FaultClass::Mismatch),
            panic: load(FaultClass::Panic),
            other: load(FaultClass::Other),
        }
    }

    /// All throughput counters in one consistent-enough view (each
    /// counter is read atomically; the set is not a single snapshot).
    #[must_use]
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evals: self.evals_performed(),
            cache_hits: self.cache_hits(),
            compiles: self.compiles_performed(),
            compiled_hits: 0,
            delta_patched: 0,
            delta_fallbacks: 0,
            instructions: self.instructions_simulated(),
            lowered_insts: self.insts_lowered(),
            uniform_insts: self.insts_scalarized(),
            folded_insts: self.insts_folded(),
            faults: self.fault_tallies(),
        }
    }

    /// Cache hit rate over all lookups so far (0 when nothing looked up).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits();
        let total = hits + self.evals_performed();
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            hits as f64 / total as f64
        }
    }

    /// Entries currently cached, summed over every shard.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// Captures the evaluator's logical content — seed, result-visible
    /// counters, outcome-cache entries — for checkpointing. Entries are
    /// sorted by content hash so the snapshot (and anything serialized
    /// from it) is byte-stable across processes.
    ///
    /// # Panics
    /// Panics if a cache lock is poisoned.
    #[must_use]
    pub fn export_snapshot(&self) -> EvaluatorSnapshot {
        let mut outcomes: Vec<(u64, EvalOutcome)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("cache shard")
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        outcomes.sort_by_key(|(k, _)| *k);
        EvaluatorSnapshot {
            eval_seed: *self.eval_seed.read().expect("seed lock"),
            evals: self.evals.load(Ordering::Relaxed) as u64,
            cache_hits: self.cache_hits.load(Ordering::Relaxed) as u64,
            instructions: self.instructions.load(Ordering::Relaxed),
            outcomes,
        }
    }

    /// Restores a snapshot taken by [`Evaluator::export_snapshot`]:
    /// replaces the outcome cache, seed, and counters so subsequent
    /// evaluations hit and count exactly as they would have had the
    /// original evaluator kept running.
    ///
    /// # Panics
    /// Panics if a snapshot counter exceeds `usize` on this platform or
    /// a cache lock is poisoned.
    pub fn import_snapshot(&self, snapshot: &EvaluatorSnapshot) {
        // Write-lock the seed for the whole restore so no concurrent
        // evaluate() can interleave with a half-imported cache.
        let mut seed = self.eval_seed.write().expect("seed lock");
        *seed = snapshot.eval_seed;
        for shard in &self.shards {
            shard.lock().expect("cache shard").clear();
        }
        for (key, outcome) in &snapshot.outcomes {
            self.shard(*key)
                .lock()
                .expect("cache shard")
                .insert(*key, outcome.clone());
        }
        self.evals.store(
            usize::try_from(snapshot.evals).expect("evals fits usize"),
            Ordering::Relaxed,
        );
        self.cache_hits.store(
            usize::try_from(snapshot.cache_hits).expect("cache_hits fits usize"),
            Ordering::Relaxed,
        );
        self.instructions
            .store(snapshot.instructions, Ordering::Relaxed);
    }

    /// Evaluates many patches in parallel with `threads` workers,
    /// preserving order. Results are cached like single evaluations.
    ///
    /// Duplicate patches (the island engine's batches routinely carry
    /// the same champion on several islands) are deduplicated by content
    /// hash *before* dispatch: each unique patch is evaluated exactly
    /// once, so two workers can never race the same uncached key and
    /// [`Evaluator::evals_performed`] stays deterministic across thread
    /// schedules. Unique patches are dispatched in first-seen order.
    pub fn evaluate_batch(&self, patches: &[Patch], threads: usize) -> Vec<EvalOutcome> {
        let mut first_seen: HashMap<u64, usize> = HashMap::new();
        let mut reps: Vec<&Patch> = Vec::new();
        let mut assign: Vec<usize> = Vec::with_capacity(patches.len());
        for p in patches {
            let key = p.content_hash();
            if let Some(&r) = first_seen.get(&key) {
                assign.push(r);
            } else {
                first_seen.insert(key, reps.len());
                assign.push(reps.len());
                reps.push(p);
            }
        }

        let rep_outcomes: Vec<EvalOutcome> = if threads <= 1 || reps.len() <= 1 {
            reps.iter().map(|p| self.evaluate(p)).collect()
        } else {
            let next = AtomicUsize::new(0);
            let results: Vec<Mutex<Option<EvalOutcome>>> =
                reps.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..threads.min(reps.len()) {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reps.len() {
                            break;
                        }
                        let out = self.evaluate(reps[i]);
                        *results[i].lock().expect("result slot") = Some(out);
                    });
                }
            });
            results
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("slot lock")
                        .expect("worker filled slot")
                })
                .collect()
        };
        assign
            .into_iter()
            .map(|r| rep_outcomes[r].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::Edit;
    use gevo_ir::{AddrSpace, KernelBuilder, Operand, Special};
    use proptest::prelude::*;

    /// A stub workload: fitness = 1000 - 10×(applied deletions), variants
    /// deleting the store "fail".
    struct Stub {
        kernels: Vec<Kernel>,
        store_id: gevo_ir::InstId,
    }

    impl Stub {
        fn new() -> Stub {
            let mut b = KernelBuilder::new("stub");
            let out = b.param_ptr("out", AddrSpace::Global);
            let tid = b.special_i32(Special::ThreadId);
            let a = b.add(tid.into(), Operand::ImmI32(1));
            let c = b.add(a.into(), Operand::ImmI32(2));
            let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
            let store_probe = b.peek_next_id();
            b.store_global_i32(addr.into(), c.into());
            b.ret();
            Stub {
                kernels: vec![b.finish()],
                store_id: store_probe,
            }
        }
    }

    impl Workload for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn kernels(&self) -> &[Kernel] {
            &self.kernels
        }
        fn evaluate(&self, kernels: &[Kernel], _seed: u64) -> EvalOutcome {
            let k = &kernels[0];
            if k.locate(self.store_id).is_none() {
                return EvalOutcome::fail("output never written");
            }
            #[allow(clippy::cast_precision_loss)]
            let fitness = 900.0 + 10.0 * k.inst_count() as f64;
            EvalOutcome::pass(fitness, LaunchStats::default())
        }
    }

    /// A workload with a real compiled path: counts instructions from the
    /// lowered form and tracks how often `compile` actually runs.
    struct CompilingStub {
        kernels: Vec<Kernel>,
        spec: gevo_gpu::GpuSpec,
        compiles: AtomicUsize,
    }

    impl CompilingStub {
        fn new() -> CompilingStub {
            CompilingStub {
                kernels: Stub::new().kernels,
                spec: gevo_gpu::GpuSpec::p100().scaled(8),
                compiles: AtomicUsize::new(0),
            }
        }
    }

    impl Workload for CompilingStub {
        fn name(&self) -> &'static str {
            "compiling-stub"
        }
        fn kernels(&self) -> &[Kernel] {
            &self.kernels
        }
        fn evaluate(&self, kernels: &[Kernel], seed: u64) -> EvalOutcome {
            match self.compile(kernels).expect("has a compiled path") {
                Ok(compiled) => self.evaluate_compiled(&compiled, seed),
                Err(reason) => EvalOutcome::fail(reason),
            }
        }
        fn compile(&self, kernels: &[Kernel]) -> Option<Result<Vec<CompiledKernel>, String>> {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            Some(
                kernels
                    .iter()
                    .map(|k| {
                        CompiledKernel::compile(k, &self.spec).map_err(|e| format!("verify: {e}"))
                    })
                    .collect(),
            )
        }
        #[allow(clippy::cast_precision_loss)]
        fn evaluate_compiled(&self, compiled: &[CompiledKernel], seed: u64) -> EvalOutcome {
            let insts: usize = compiled.iter().map(CompiledKernel::inst_count).sum();
            EvalOutcome::pass(
                1000.0 * (1.0 + seed as f64) + insts as f64,
                LaunchStats::default(),
            )
        }
    }

    /// A workload whose fitness encodes the evaluation seed, to observe
    /// which seed an outcome was computed under.
    struct SeedEcho {
        kernels: Vec<Kernel>,
    }

    impl SeedEcho {
        fn new() -> SeedEcho {
            SeedEcho {
                kernels: Stub::new().kernels,
            }
        }
    }

    impl Workload for SeedEcho {
        fn name(&self) -> &'static str {
            "seed-echo"
        }
        fn kernels(&self) -> &[Kernel] {
            &self.kernels
        }
        #[allow(clippy::cast_precision_loss)]
        fn evaluate(&self, _kernels: &[Kernel], seed: u64) -> EvalOutcome {
            EvalOutcome::pass(1.0 + seed as f64, LaunchStats::default())
        }
    }

    /// Distinct single-edit patches, one per deletable instruction, plus
    /// index-tagged duplicates to grow the set to `n`.
    fn distinct_patches(n: usize) -> Vec<Patch> {
        let w = Stub::new();
        let ids = w.kernels[0].inst_ids();
        (0..n)
            .map(|i| {
                let mut p = Patch::empty();
                for _ in 0..=(i / ids.len()) {
                    p.push(Edit::Delete {
                        kernel: 0,
                        target: ids[i % ids.len()],
                    });
                }
                p
            })
            .collect()
    }

    #[test]
    fn baseline_and_speedup() {
        let w = Stub::new();
        let ev = Evaluator::new(&w);
        let base = ev.baseline();
        let del = Edit::Delete {
            kernel: 0,
            target: w.kernels[0].inst_ids()[1],
        };
        let p = Patch::from_edits(vec![del]);
        let s = ev.speedup(&p).unwrap();
        assert!(s > 1.0, "deleting an instruction speeds the stub up");
        assert!(ev.fitness(&p).unwrap() < base);
    }

    #[test]
    fn failures_are_invalid() {
        let w = Stub::new();
        let ev = Evaluator::new(&w);
        let p = Patch::from_edits(vec![Edit::Delete {
            kernel: 0,
            target: w.store_id,
        }]);
        let out = ev.evaluate(&p);
        assert!(!out.is_valid());
        assert!(out.failure.unwrap().contains("never written"));
        assert_eq!(ev.speedup(&p), None);
    }

    #[test]
    fn instruction_counter_tracks_performed_evals_only() {
        struct Counting {
            kernels: Vec<Kernel>,
        }
        impl Workload for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn kernels(&self) -> &[Kernel] {
                &self.kernels
            }
            fn evaluate(&self, _kernels: &[Kernel], _seed: u64) -> EvalOutcome {
                EvalOutcome::pass(
                    1.0,
                    LaunchStats {
                        instructions: 7,
                        ..LaunchStats::default()
                    },
                )
            }
        }
        let w = Counting {
            kernels: Stub::new().kernels,
        };
        let ev = Evaluator::new(&w);
        let _ = ev.evaluate(&Patch::empty());
        let _ = ev.evaluate(&Patch::empty()); // cache hit: simulates nothing
        assert_eq!(ev.instructions_simulated(), 7);
        ev.set_eval_seed(3);
        let _ = ev.evaluate(&Patch::empty()); // re-simulated under new seed
        assert_eq!(ev.instructions_simulated(), 14);
    }

    #[test]
    fn cache_avoids_reevaluation() {
        let w = Stub::new();
        let ev = Evaluator::new(&w);
        let p = Patch::empty();
        let _ = ev.evaluate(&p);
        let _ = ev.evaluate(&p);
        let _ = ev.evaluate(&p);
        assert_eq!(ev.evals_performed(), 1);
        assert_eq!(ev.cache_hits(), 2);
        assert_eq!(ev.cache_len(), 1);
        assert!((ev.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn batch_matches_serial() {
        let w = Stub::new();
        let ids = w.kernels[0].inst_ids();
        let patches: Vec<Patch> = ids
            .iter()
            .map(|id| {
                Patch::from_edits(vec![Edit::Delete {
                    kernel: 0,
                    target: *id,
                }])
            })
            .collect();
        let serial = Evaluator::new(&w);
        let expected: Vec<EvalOutcome> = patches.iter().map(|p| serial.evaluate(p)).collect();
        let parallel = Evaluator::new(&w);
        let got = parallel.evaluate_batch(&patches, 4);
        assert_eq!(expected, got);
    }

    #[test]
    fn every_performed_evaluation_compiles_once() {
        let w = CompilingStub::new();
        let ev = Evaluator::new(&w);
        let ids = w.kernels[0].inst_ids();
        let patches = [
            Patch::empty(),
            Patch::from_edits(vec![Edit::Delete {
                kernel: 0,
                target: ids[1],
            }]),
        ];
        let first: Vec<EvalOutcome> = patches.iter().map(|p| ev.evaluate(p)).collect();
        assert_eq!(ev.compiles_performed(), 2);
        assert_eq!(w.compiles.load(Ordering::Relaxed), 2);

        // Same patches under a new seed: the outcome cache was cleared
        // and the fitness encodes the seed, so both are applied,
        // compiled and run again.
        ev.set_eval_seed(5);
        let second: Vec<EvalOutcome> = patches.iter().map(|p| ev.evaluate(p)).collect();
        assert_eq!(ev.evals_performed(), 4, "re-evaluated under new seed");
        assert_eq!(ev.compiles_performed(), 4);
        assert_eq!(w.compiles.load(Ordering::Relaxed), 4);
        for (a, b) in first.iter().zip(&second) {
            assert_ne!(a.fitness, b.fitness, "fitness tracks the new seed");
        }
    }

    #[test]
    fn outcome_cache_hits_skip_compilation() {
        let w = CompilingStub::new();
        let ev = Evaluator::new(&w);
        let ids = w.kernels[0].inst_ids();
        let patch = Patch::from_edits(vec![Edit::Delete {
            kernel: 0,
            target: ids[1],
        }]);
        for _ in 0..3 {
            let _ = ev.evaluate(&patch);
        }
        assert_eq!(ev.cache_hits(), 2, "outcome cache served the repeats");
        assert_eq!(ev.compiles_performed(), 1);
        assert_eq!(w.compiles.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_dispatches_in_first_seen_order() {
        /// Records the patch length of every kernel set it evaluates.
        struct Recording {
            kernels: Vec<Kernel>,
            seen: Mutex<Vec<usize>>,
        }
        impl Workload for Recording {
            fn name(&self) -> &'static str {
                "recording"
            }
            fn kernels(&self) -> &[Kernel] {
                &self.kernels
            }
            #[allow(clippy::cast_precision_loss)]
            fn evaluate(&self, kernels: &[Kernel], _seed: u64) -> EvalOutcome {
                let n = kernels[0].inst_count();
                self.seen.lock().unwrap().push(n);
                EvalOutcome::pass(n as f64, LaunchStats::default())
            }
        }
        let w = Recording {
            kernels: Stub::new().kernels,
            seen: Mutex::new(Vec::new()),
        };
        let ids = w.kernels[0].inst_ids();
        let del = |i: usize| Edit::Delete {
            kernel: 0,
            target: ids[i],
        };
        let full = w.kernels[0].inst_count();
        let child = Patch::from_edits(vec![del(1), del(2)]);
        let parent = Patch::from_edits(vec![del(1)]);

        // Child listed first (and again at the end): it runs first, the
        // duplicate is served from the batch's own dedup.
        let ev = Evaluator::new(&w);
        let out = ev.evaluate_batch(&[child.clone(), parent.clone(), child], 1);
        assert_eq!(*w.seen.lock().unwrap(), vec![full - 2, full - 1]);
        assert_eq!(ev.evals_performed(), 2);
        assert_eq!(out[0], out[2]);
        assert!(out[0].fitness < out[1].fitness, "outcomes in input order");
    }

    #[test]
    fn compile_failure_is_an_invalid_outcome() {
        // Deleting the store leaves a verifying kernel, so break it
        // structurally instead: clear an operand list post-application.
        struct Broken(CompilingStub);
        impl Workload for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn kernels(&self) -> &[Kernel] {
                self.0.kernels()
            }
            fn evaluate(&self, kernels: &[Kernel], seed: u64) -> EvalOutcome {
                self.0.evaluate(kernels, seed)
            }
            fn compile(&self, kernels: &[Kernel]) -> Option<Result<Vec<CompiledKernel>, String>> {
                let mut ks = kernels.to_vec();
                ks[0].blocks[0].instrs[0].args.clear();
                self.0.compile(&ks)
            }
        }
        let w = Broken(CompilingStub::new());
        let ev = Evaluator::new(&w);
        let out = ev.evaluate(&Patch::empty());
        assert!(!out.is_valid());
        assert!(out.failure.unwrap().starts_with("verify:"));
        assert_eq!(ev.compiles_performed(), 0, "only successes count");
    }

    #[test]
    fn snapshot_restores_cache_and_counters() {
        let w = Stub::new();
        let ev = Evaluator::new(&w);
        let patches = distinct_patches(6);
        let originals: Vec<EvalOutcome> = patches.iter().map(|p| ev.evaluate(p)).collect();
        let _ = ev.evaluate(&patches[0]); // one cache hit
        let snap = ev.export_snapshot();

        // Round-trip the snapshot through its JSON form, as a real
        // checkpoint file would.
        let reparsed = serde_json::from_str(&snap.to_json().to_string()).unwrap();
        let snap2 = EvaluatorSnapshot::from_json(&reparsed).unwrap();
        assert_eq!(snap2, snap);

        // A fresh evaluator with the snapshot imported behaves as if it
        // had done all the work: same counters, all lookups hit.
        let fresh = Evaluator::new(&w);
        fresh.import_snapshot(&snap2);
        assert_eq!(fresh.evals_performed(), ev.evals_performed());
        assert_eq!(fresh.cache_hits(), ev.cache_hits());
        assert_eq!(fresh.instructions_simulated(), ev.instructions_simulated());
        for (p, expect) in patches.iter().zip(&originals) {
            assert_eq!(&fresh.evaluate(p), expect);
        }
        assert_eq!(fresh.evals_performed(), ev.evals_performed(), "all hits");
    }

    #[test]
    fn snapshot_captures_failing_outcomes() {
        let w = Stub::new();
        let ev = Evaluator::new(&w);
        let bad = Patch::from_edits(vec![Edit::Delete {
            kernel: 0,
            target: w.store_id,
        }]);
        let out = ev.evaluate(&bad);
        assert!(!out.is_valid());
        assert!(out.error.is_infinite());
        let snap = ev.export_snapshot();
        let reparsed = serde_json::from_str(&snap.to_json().to_string()).unwrap();
        let snap2 = EvaluatorSnapshot::from_json(&reparsed).unwrap();
        assert_eq!(snap2, snap, "INFINITY error survives the JSON trip");
    }

    #[test]
    fn seed_change_clears_cache() {
        let w = Stub::new();
        let ev = Evaluator::new(&w);
        let _ = ev.evaluate(&Patch::empty());
        assert_eq!(ev.cache_len(), 1);
        ev.set_eval_seed(99);
        assert_eq!(ev.cache_len(), 0);
        let _ = ev.evaluate(&Patch::empty());
        assert_eq!(ev.evals_performed(), 2);
    }

    #[test]
    fn reseed_is_atomic_with_concurrent_evaluates() {
        // Hammer evaluate() from many threads while reseeding in between:
        // at every instant the cache must only hold outcomes computed
        // under the seed in force, so after the final reseed every cached
        // fitness echoes the final seed.
        let w = SeedEcho::new();
        let ev = Evaluator::new(&w);
        let patches = distinct_patches(32);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4 {
                let ev = &ev;
                let patches = &patches;
                let done = &done;
                s.spawn(move || {
                    let mut i = t;
                    while !done.load(Ordering::Relaxed) {
                        let _ = ev.evaluate(&patches[i % patches.len()]);
                        i += 1;
                    }
                });
            }
            for seed in 1..=20u64 {
                ev.set_eval_seed(seed);
            }
            done.store(true, Ordering::Relaxed);
        });
        // Everything cached after the final reseed was computed under it.
        ev.set_eval_seed(77);
        let _ = ev.evaluate_batch(&patches, 4);
        for p in &patches {
            assert_eq!(ev.evaluate(p).fitness, Some(78.0), "stale-seed entry");
        }
    }

    /// One real failure string per class from each layer that produces
    /// them: the ADEPT and `SIMCoV` oracles, the interpreter, the
    /// compile pipeline and the isolation boundary.
    #[test]
    fn classify_maps_every_workload_failure_to_its_class() {
        use gevo_gpu::ExecError;
        let mut broken = Stub::new().kernels.remove(0);
        broken.blocks[0].instrs[0].args.clear();
        let verify_err = gevo_ir::verify::verify(&broken).expect_err("arity error");
        let table: Vec<(String, FaultClass)> = vec![
            // ADEPT oracle.
            (
                "pair 3: forward got (score 11, end 7,9), expected (score 14, end 8,9)".into(),
                FaultClass::Mismatch,
            ),
            (
                "pair 0: reverse got (score 2, end 0,1), expected (score 5, end 3,3)".into(),
                FaultClass::Mismatch,
            ),
            // SIMCoV oracle: every `validate::compare` branch.
            ("field size mismatch".into(), FaultClass::Mismatch),
            (
                "virions: per-value mean deviation 0.8125 exceeds 0.0512".into(),
                FaultClass::Mismatch,
            ),
            (
                "chemokine: per-value variance 3.0417 exceeds 0.2600".into(),
                FaultClass::Mismatch,
            ),
            (
                "epithelial states: 41 cells differ (0.160 > 0.020)".into(),
                FaultClass::Mismatch,
            ),
            (
                "T cells: 9 cells differ (budget 4, 37 live)".into(),
                FaultClass::Mismatch,
            ),
            (
                "stats[infected]: 212 vs oracle 97".into(),
                FaultClass::Mismatch,
            ),
            // Interpreter, as each workload wraps it.
            (
                format!("forward kernel: {}", ExecError::StepLimit),
                FaultClass::StepLimit,
            ),
            (
                format!("simcov_virion_diffuse: {}", ExecError::StepLimit),
                FaultClass::StepLimit,
            ),
            (
                format!(
                    "reverse kernel: {}",
                    ExecError::GlobalFault { addr: -4, bytes: 4 }
                ),
                FaultClass::Exec,
            ),
            (
                format!(
                    "simcov_virion_diffuse: {}",
                    ExecError::Misaligned { addr: 6, align: 4 }
                ),
                FaultClass::Exec,
            ),
            (
                format!("simcov_tcell_move: {}", ExecError::BarrierDivergence),
                FaultClass::Exec,
            ),
            (
                format!(
                    "forward kernel: {}",
                    ExecError::TypeMismatch {
                        expected: gevo_ir::Ty::I32,
                        found: gevo_ir::Ty::F32
                    }
                ),
                FaultClass::Exec,
            ),
            // Compile pipeline and isolation boundary.
            (format!("verify: {verify_err}"), FaultClass::Verify),
            (
                "panic: chaos: injected evaluation panic at eval 3".into(),
                FaultClass::Panic,
            ),
            ("output never written".into(), FaultClass::Other),
        ];
        for (reason, class) in &table {
            assert_eq!(FaultClass::classify(reason), *class, "{reason}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0x5AAD_CA5E))]

        /// The concurrent zero-lost-entries property: however many worker
        /// threads race distinct patches into the sharded cache, every
        /// entry lands exactly once and every later lookup hits.
        #[test]
        fn sharded_cache_loses_nothing_under_concurrency(
            threads in 2usize..8,
            patches in 8usize..48,
        ) {
            let w = Stub::new();
            let ev = Evaluator::new(&w);
            let ps = distinct_patches(patches);
            let distinct = {
                let mut keys: Vec<u64> = ps.iter().map(Patch::content_hash).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.len()
            };
            prop_assert_eq!(distinct, ps.len());

            let first = ev.evaluate_batch(&ps, threads);
            prop_assert_eq!(ev.cache_len(), distinct);
            // Workers may race the same patch only if they pick the same
            // index, which the batch dispatcher never does — so misses
            // equal the distinct count exactly.
            prop_assert_eq!(ev.evals_performed(), distinct);

            // A second full pass is pure cache hits and identical.
            let evals_before = ev.evals_performed();
            let second = ev.evaluate_batch(&ps, threads);
            prop_assert_eq!(first, second);
            prop_assert_eq!(ev.evals_performed(), evals_before);
        }
    }
}
