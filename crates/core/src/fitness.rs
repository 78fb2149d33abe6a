//! Workload abstraction and fitness evaluation.
//!
//! The paper's fitness function (§III-E): kernel execution time averaged
//! over the test set; individuals failing any test are invalid and
//! excluded from selection. Here "execution time" is the simulator's
//! modeled cycles.
//!
//! [`Evaluator`] is a plain memo: one locked map from a patch's content
//! hash to its outcome. The lock is held for a lookup or an insert,
//! never across an evaluation, so the [`Evaluator::evaluate_batch`]
//! workers evaluate in parallel. Every evaluation runs under scheduler
//! seed 0, the deterministic natural warp order.
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
//! let stats = ev.stats();
//! assert_eq!(stats.evals, 1, "second lookup is a cache hit");
//! assert_eq!(stats.cache_hits, 1);
//! ```

use crate::edit::Patch;
use gevo_gpu::{CompiledKernel, ExecError, LaunchStats};
use gevo_ir::Kernel;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The scheduler seed every evaluation passes to the [`Workload`]: 0,
/// the deterministic natural warp order the fitness baseline uses.
const EVAL_SEED: u64 = 0;

/// The outcome of evaluating one program variant on the full test set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Mean kernel cycles across test cases; `None` when any test failed
    /// (wrong output, fault, timeout, verification error).
    pub fitness: Option<f64>,
    /// Human-readable reason for failure, when failed.
    pub failure: Option<String>,
    /// The failure's class, named by the layer where the fault arose;
    /// set together with `failure`, only by [`EvalOutcome::fail`].
    pub fault: Option<FaultClass>,
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
            fault: None,
            stats: Some(stats),
            error,
        }
    }

    /// A failing outcome: its class, named where the fault arose, and
    /// its reason. The only way to build a failing outcome.
    #[must_use]
    pub fn fail(class: FaultClass, reason: impl Into<String>) -> EvalOutcome {
        EvalOutcome {
            fitness: None,
            failure: Some(reason.into()),
            fault: Some(class),
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
        if let Some(class) = self.fault {
            obj.insert("fault", class.name());
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
        let fault = match v.get("fault") {
            None => None,
            Some(s) => Some(
                s.as_str()
                    .and_then(FaultClass::from_name)
                    .ok_or_else(|| format!("EvalOutcome: invalid fault {s}"))?,
            ),
        };
        if failure.is_some() != fault.is_some() {
            return Err("EvalOutcome: failure and fault must come together".to_string());
        }
        let stats = match v.get("stats") {
            None => None,
            Some(s) => Some(gevo_gpu::LaunchStats::from_json(s)?),
        };
        Ok(EvalOutcome {
            fitness,
            failure,
            fault,
            stats,
            error,
        })
    }
}

/// The serializable logical content of an [`Evaluator`]: counters and
/// the outcome cache's entries.
///
/// Checkpointing this alongside the search state is what keeps a
/// resumed run's `SearchResult` **bit-identical** to the uninterrupted
/// one: elites re-scored after a restart must hit the cache exactly as
/// they would have in-process, or the `evals`/`cache_hits`/
/// `instructions` counters (all part of the result) drift.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatorSnapshot {
    /// Evaluations actually performed so far.
    pub evals: u64,
    /// Cache hits served so far.
    pub cache_hits: u64,
    /// Warp-instructions simulated so far by passing evaluations
    /// ([`EvalStats::instructions`]).
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
    /// (paper §II-C2); deterministic workloads may ignore it. The
    /// [`Evaluator`] always passes 0, the natural warp order.
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
        EvalOutcome::fail(FaultClass::Other, "workload has no compiled-launch path")
    }

    /// Inert: nothing in this workspace calls or overrides it; `perfbench/` forwards it.
    fn supports_delta_patch(&self) -> bool {
        false
    }

    /// Inert: nothing in this workspace calls or overrides it; `perfbench/` forwards it.
    fn hotspot_profile(&self) -> Option<Vec<Vec<u64>>> {
        None
    }
}

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

/// Coarse classification of an evaluation failure. Each layer names
/// the class where the fault arises (GEVO's `mutStats` counts at the
/// same places): the interpreter through `From<&ExecError>`, the
/// workloads' oracles as [`FaultClass::Mismatch`], and the
/// [`Evaluator`] for rejected compiles and caught panics.
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
    /// Every class, in declaration order (which is also the order of
    /// [`FaultTallies`]' fields and of the evaluator's counters).
    const ALL: [FaultClass; 6] = [
        FaultClass::StepLimit,
        FaultClass::Verify,
        FaultClass::Exec,
        FaultClass::Mismatch,
        FaultClass::Panic,
        FaultClass::Other,
    ];

    /// The class's name: the `"fault"` value of a failing outcome's
    /// JSON and the key of its count in [`FaultTallies::to_json`].
    fn name(self) -> &'static str {
        match self {
            FaultClass::StepLimit => "step_limit",
            FaultClass::Verify => "verify",
            FaultClass::Exec => "exec",
            FaultClass::Mismatch => "mismatch",
            FaultClass::Panic => "panic",
            FaultClass::Other => "other",
        }
    }

    /// The class a [`FaultClass::name`] names.
    fn from_name(name: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl From<&ExecError> for FaultClass {
    /// The interpreter's failures: a step-budget kill, a verification
    /// rejection at launch, and every other runtime fault.
    fn from(e: &ExecError) -> FaultClass {
        match e {
            ExecError::StepLimit => FaultClass::StepLimit,
            ExecError::Verify(_) => FaultClass::Verify,
            _ => FaultClass::Exec,
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
    /// The counts in [`FaultClass::ALL`] order.
    fn counts(&self) -> [usize; 6] {
        [
            self.step_limit,
            self.verify,
            self.exec,
            self.mismatch,
            self.panic,
            self.other,
        ]
    }

    /// Total failing evaluations across all classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts().iter().sum()
    }

    /// Serializes to a JSON object: one integer field per class, keyed
    /// by the name a failing outcome's `"fault"` carries.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        for (class, n) in FaultClass::ALL.into_iter().zip(self.counts()) {
            obj.insert(class.name(), n as u64);
        }
        serde_json::Value::Object(obj)
    }
}

/// Point-in-time view of the [`Evaluator`]'s throughput counters, for
/// the harnesses, `perfbench/` and tests. Only `evals`, `cache_hits`
/// and `instructions` are result-visible (checkpointed in
/// [`EvaluatorSnapshot`]); the rest are observability only and never
/// influence a trajectory.
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
    /// Warp-instructions simulated by the performed evaluations that
    /// passed. A failing outcome carries no `LaunchStats`, so the
    /// instructions a failing evaluation simulated before its fault are
    /// not counted.
    pub instructions: u64,
    /// Statically lowered instructions across every compiled image this
    /// evaluator produced — the denominator for the scalarization
    /// fraction.
    pub lowered_insts: u64,
    /// Of those, instructions the O2 uniformity pass scalarized
    /// (executed once per warp with a broadcast write).
    pub uniform_insts: u64,
    /// Compile-time-folded facts across those images (constant-folded
    /// instructions plus branch terminators resolved to jumps).
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
/// The cache is one `Mutex<HashMap>`, locked only for a lookup or an
/// insert. A variant whose evaluation panics is written to the
/// quarantine directory given to [`Evaluator::quarantine`], if any.
pub struct Evaluator<'w> {
    workload: &'w dyn Workload,
    cache: Mutex<HashMap<u64, EvalOutcome>>,
    /// Where panic-provoking variants are recorded ([`crate::quarantine`]).
    /// Crate-visible so a resumed [`crate::Search`] can set it in place.
    pub(crate) quarantine: Option<PathBuf>,
    evals: AtomicUsize,
    cache_hits: AtomicUsize,
    compiles: AtomicUsize,
    /// Total simulated warp-instructions of the performed evaluations
    /// that passed (failing outcomes carry no `LaunchStats`; cache hits
    /// simulate nothing). Checkpointed, so the counting rule is part of
    /// the result.
    instructions: AtomicU64,
    /// Lowering-pass counters, accumulated over every compiled image
    /// this evaluator produces. Observability only — never
    /// checkpointed, so snapshots carry no pass facts.
    lowered_insts: AtomicU64,
    uniform_insts: AtomicU64,
    folded_insts: AtomicU64,
    /// Failing performed evaluations, indexed in [`FaultClass::ALL`]
    /// order. Like the lowering counters: observability only, never
    /// checkpointed.
    faults: [AtomicUsize; FaultClass::ALL.len()],
}

impl<'w> Evaluator<'w> {
    /// Wraps a workload.
    #[must_use]
    pub fn new(workload: &'w dyn Workload) -> Evaluator<'w> {
        Evaluator {
            workload,
            cache: Mutex::new(HashMap::new()),
            quarantine: None,
            evals: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            compiles: AtomicUsize::new(0),
            instructions: AtomicU64::new(0),
            lowered_insts: AtomicU64::new(0),
            uniform_insts: AtomicU64::new(0),
            folded_insts: AtomicU64::new(0),
            faults: std::array::from_fn(|_| AtomicUsize::new(0)),
        }
    }

    /// Sets (or clears) the directory where panic-provoking variants are
    /// recorded as [`crate::QuarantineRecord`]s. Without one, a caught
    /// panic is still scored as a failure but leaves no record.
    #[must_use]
    pub fn quarantine(mut self, dir: Option<PathBuf>) -> Evaluator<'w> {
        self.quarantine = dir;
        self
    }

    /// The wrapped workload.
    #[must_use]
    pub fn workload(&self) -> &dyn Workload {
        self.workload
    }

    /// Accumulates the lowering-pass counters over a newly produced
    /// compiled image set (see [`EvalStats`]).
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

    /// Evaluates a patch (cached).
    pub fn evaluate(&self, patch: &Patch) -> EvalOutcome {
        let key = patch.content_hash();
        if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
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
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (kernels, _) = patch.apply(self.workload.kernels());
            match self.workload.compile(&kernels) {
                Some(Ok(compiled)) => {
                    self.compiles.fetch_add(1, Ordering::Relaxed);
                    self.count_pass_facts(&compiled);
                    self.workload.evaluate_compiled(&compiled, EVAL_SEED)
                }
                Some(Err(reason)) => EvalOutcome::fail(FaultClass::Verify, reason),
                None => self.workload.evaluate(&kernels, EVAL_SEED),
            }
        }));
        let outcome = computed.unwrap_or_else(|payload| {
            let reason = format!("panic: {}", panic_message(payload.as_ref()));
            if let Some(dir) = &self.quarantine {
                let record = crate::QuarantineRecord {
                    workload: self.workload.name().to_string(),
                    patch: patch.clone(),
                    reason: reason.clone(),
                };
                // Best-effort: a failed write must not make a survived
                // panic fatal.
                if let Err(e) = record.write_to(dir) {
                    eprintln!("gevo: quarantine write failed: {e}");
                }
            }
            EvalOutcome::fail(FaultClass::Panic, reason)
        });
        if let Some(class) = outcome.fault {
            self.faults[class as usize].fetch_add(1, Ordering::Relaxed);
        }
        self.evals.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &outcome.stats {
            self.instructions
                .fetch_add(stats.instructions, Ordering::Relaxed);
        }
        self.cache
            .lock()
            .expect("cache lock")
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

    /// Evaluations actually performed (cache misses); the same count as
    /// [`EvalStats::evals`].
    #[must_use]
    pub fn evals_performed(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    /// The evaluator's counters: the one way to read them. Each counter
    /// is loaded atomically; the set is not a single snapshot.
    #[must_use]
    pub fn stats(&self) -> EvalStats {
        let fault = |class: FaultClass| self.faults[class as usize].load(Ordering::Relaxed);
        EvalStats {
            evals: self.evals.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            compiled_hits: 0,
            delta_patched: 0,
            delta_fallbacks: 0,
            instructions: self.instructions.load(Ordering::Relaxed),
            lowered_insts: self.lowered_insts.load(Ordering::Relaxed),
            uniform_insts: self.uniform_insts.load(Ordering::Relaxed),
            folded_insts: self.folded_insts.load(Ordering::Relaxed),
            faults: FaultTallies {
                step_limit: fault(FaultClass::StepLimit),
                verify: fault(FaultClass::Verify),
                exec: fault(FaultClass::Exec),
                mismatch: fault(FaultClass::Mismatch),
                panic: fault(FaultClass::Panic),
                other: fault(FaultClass::Other),
            },
        }
    }

    /// Entries currently cached.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Captures the evaluator's logical content — result-visible
    /// counters, outcome-cache entries — for checkpointing. Entries are
    /// sorted by content hash so the snapshot (and anything serialized
    /// from it) is byte-stable across processes.
    ///
    /// # Panics
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn export_snapshot(&self) -> EvaluatorSnapshot {
        let mut outcomes: Vec<(u64, EvalOutcome)> = self
            .cache
            .lock()
            .expect("cache lock")
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        outcomes.sort_by_key(|(k, _)| *k);
        EvaluatorSnapshot {
            evals: self.evals.load(Ordering::Relaxed) as u64,
            cache_hits: self.cache_hits.load(Ordering::Relaxed) as u64,
            instructions: self.instructions.load(Ordering::Relaxed),
            outcomes,
        }
    }

    /// Restores a snapshot taken by [`Evaluator::export_snapshot`]:
    /// replaces the outcome cache and counters so subsequent
    /// evaluations hit and count exactly as they would have had the
    /// original evaluator kept running.
    ///
    /// # Panics
    /// Panics if a snapshot counter exceeds `usize` on this platform or
    /// the cache lock is poisoned.
    pub fn import_snapshot(&self, snapshot: &EvaluatorSnapshot) {
        *self.cache.lock().expect("cache lock") = snapshot.outcomes.iter().cloned().collect();
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
    /// Duplicate patches (a population routinely carries copies: elites
    /// and offspring that neither crossover nor mutation changed) are
    /// deduplicated by content hash *before* dispatch: each unique patch is evaluated exactly
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
                return EvalOutcome::fail(FaultClass::Mismatch, "output never written");
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
                Err(reason) => EvalOutcome::fail(FaultClass::Verify, reason),
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
        fn evaluate_compiled(&self, compiled: &[CompiledKernel], _seed: u64) -> EvalOutcome {
            let insts: usize = compiled.iter().map(CompiledKernel::inst_count).sum();
            EvalOutcome::pass(1000.0 + insts as f64, LaunchStats::default())
        }
    }

    /// A workload whose every evaluation panics, for the isolation
    /// boundary and quarantine tests.
    struct Panicking(Stub);

    impl Workload for Panicking {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn kernels(&self) -> &[Kernel] {
            self.0.kernels()
        }
        fn evaluate(&self, _kernels: &[Kernel], _seed: u64) -> EvalOutcome {
            panic!("simulator bug");
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
        assert_eq!(ev.stats().instructions, 7);
        let _ = ev.evaluate(&distinct_patches(1)[0]); // a new variant simulates
        assert_eq!(ev.stats().instructions, 14);
    }

    #[test]
    fn cache_avoids_reevaluation() {
        let w = Stub::new();
        let ev = Evaluator::new(&w);
        let p = Patch::empty();
        let _ = ev.evaluate(&p);
        let _ = ev.evaluate(&p);
        let _ = ev.evaluate(&p);
        let stats = ev.stats();
        assert_eq!(stats.evals, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(ev.cache_len(), 1);
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
        assert_eq!(ev.stats().compiles, 2);
        assert_eq!(w.compiles.load(Ordering::Relaxed), 2);

        // A fresh evaluator has an empty cache: both patches are
        // applied, compiled and run again, to the same outcomes.
        let fresh = Evaluator::new(&w);
        let second: Vec<EvalOutcome> = patches.iter().map(|p| fresh.evaluate(p)).collect();
        assert_eq!(fresh.stats().evals, 2);
        assert_eq!(fresh.stats().compiles, 2);
        assert_eq!(
            ev.stats().compiles,
            2,
            "the first evaluator compiled nothing more"
        );
        assert_eq!(w.compiles.load(Ordering::Relaxed), 4);
        assert_eq!(first, second);
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
        let stats = ev.stats();
        assert_eq!(stats.cache_hits, 2, "outcome cache served the repeats");
        assert_eq!(stats.compiles, 1);
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
        assert_eq!(out.fault, Some(FaultClass::Verify));
        assert!(out.failure.unwrap().starts_with("verify:"));
        let stats = ev.stats();
        assert_eq!(stats.compiles, 0, "only successes count");
        assert_eq!(stats.faults.verify, 1);
        assert_eq!(stats.faults.total(), 1);
    }

    #[test]
    fn caught_panic_is_a_panic_outcome() {
        let w = Panicking(Stub::new());
        let ev = Evaluator::new(&w);
        let out = ev.evaluate(&Patch::empty());
        assert_eq!(out.fault, Some(FaultClass::Panic));
        assert_eq!(out.failure.as_deref(), Some("panic: simulator bug"));
        let faults = ev.stats().faults;
        assert_eq!(faults.panic, 1);
        assert_eq!(faults.total(), 1);
    }

    #[test]
    fn each_evaluator_quarantines_into_its_own_directory() {
        let root = std::env::temp_dir().join(format!("gevo-quarantine-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (dir_a, dir_b) = (root.join("a"), root.join("b"));
        let w = Panicking(Stub::new());
        let a = Evaluator::new(&w).quarantine(Some(dir_a.clone()));
        let b = Evaluator::new(&w).quarantine(Some(dir_b.clone()));
        let unrecorded = Evaluator::new(&w);
        let patches = distinct_patches(3);
        let _ = a.evaluate(&patches[0]);
        let _ = b.evaluate(&patches[1]);
        let _ = b.evaluate(&patches[2]);
        assert_eq!(
            unrecorded.evaluate(&patches[0]).fault,
            Some(FaultClass::Panic)
        );

        let records = |dir: &std::path::Path| -> Vec<Patch> {
            let mut patches: Vec<Patch> = std::fs::read_dir(dir)
                .expect("quarantine dir exists")
                .map(|e| {
                    let rec = crate::QuarantineRecord::load(&e.expect("dir entry").path());
                    rec.expect("record loads").patch
                })
                .collect();
            patches.sort_by_key(Patch::content_hash);
            patches
        };
        assert_eq!(records(&dir_a), vec![patches[0].clone()]);
        let mut want_b = vec![patches[1].clone(), patches[2].clone()];
        want_b.sort_by_key(Patch::content_hash);
        assert_eq!(records(&dir_b), want_b);
        std::fs::remove_dir_all(&root).ok();
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
        let (got, want) = (fresh.stats(), ev.stats());
        assert_eq!(got.evals, want.evals);
        assert_eq!(got.cache_hits, want.cache_hits);
        assert_eq!(got.instructions, want.instructions);
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
        let json = snap.to_json().to_string();
        assert!(json.contains(r#""fault":"mismatch""#), "{json}");
        let reparsed = serde_json::from_str(&json).unwrap();
        let snap2 = EvaluatorSnapshot::from_json(&reparsed).unwrap();
        assert_eq!(
            snap2, snap,
            "INFINITY error and fault class survive the JSON trip"
        );
        assert_eq!(snap2.outcomes[0].1.fault, Some(FaultClass::Mismatch));

        // Every class survives the trip under its own name; a failure
        // without its class is malformed, not silently unclassified.
        for class in FaultClass::ALL {
            let failed = EvalOutcome::fail(class, "x");
            let json = failed.to_json().to_string();
            let reparsed = serde_json::from_str(&json).unwrap();
            assert_eq!(EvalOutcome::from_json(&reparsed).unwrap(), failed);
            let fault = format!(r#","fault":"{}""#, class.name());
            let unclassified = serde_json::from_str(&json.replace(&fault, "")).unwrap();
            assert!(EvalOutcome::from_json(&unclassified).is_err(), "{json}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0x5AAD_CA5E))]

        /// The concurrent zero-lost-entries property: however many worker
        /// threads race distinct patches into the cache, every entry
        /// lands exactly once and every later lookup hits.
        #[test]
        fn cache_loses_nothing_under_concurrency(
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
