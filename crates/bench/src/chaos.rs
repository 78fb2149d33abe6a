//! Deterministic fault injection for the recovery layer (DESIGN.md
//! §3.9).
//!
//! A [`FaultPlan`] names *exactly when* each fault fires — a checkpoint
//! write index, an evaluation ordinal — so every injected failure is
//! reproducible from the plan string alone. The plan for a process
//! comes from the `GEVO_CHAOS` environment variable, a comma-separated
//! list:
//!
//! | element | fault |
//! |---|---|
//! | `flip@K` | XOR one byte of the checkpoint file after write `K` (0-based) |
//! | `truncate@K` | truncate the checkpoint file to half after write `K` |
//! | `panic@N` | panic the driving worker at the first step boundary with ≥ `N` evals |
//! | `evalpanic@N` | panic *inside* the `N`-th evaluation (1-based) |
//! | `seed=S` | seed for corruption-offset derivation (default 1) |
//!
//! The faults split by where they land, which decides what recovery
//! guarantees:
//!
//! * `flip`/`truncate`/`panic` strike *outside* the evaluation
//!   isolation — storage and the driving worker. Recovery is
//!   resume-from-checkpoint (plus rollback to the rotated `.1`
//!   snapshot for corruption), and because the search trajectory is a
//!   deterministic function of the checkpointed state, the recovered
//!   run finishes **byte-identical** to a fault-free one. The
//!   `chaos_check` bin asserts exactly that.
//! * `evalpanic` strikes *inside* an evaluation: the engine's
//!   `catch_unwind` boundary scores it worst-fitness and quarantines
//!   the variant. That legitimately changes the trajectory (one mutant
//!   really did fail), so the asserted contract is "survives,
//!   quarantines, completes" — not byte-identity with a run where the
//!   mutant passed.
//!
//! Each fault fires at most once per process (the in-process `fired`
//! latch); a restarted process decides via its own `GEVO_CHAOS` whether
//! the fault recurs, which is how the chaos driver models
//! fail-once-then-recover without hidden state.

use gevo_engine::{EvalOutcome, Workload};
use gevo_gpu::CompiledKernel;
use gevo_ir::Kernel;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One injected fault with its deterministic trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR one byte of the checkpoint file after write `write`.
    CkptFlip {
        /// 0-based checkpoint-write index this fault strikes.
        write: usize,
    },
    /// Truncate the checkpoint file to half its length after write
    /// `write`.
    CkptTruncate {
        /// 0-based checkpoint-write index this fault strikes.
        write: usize,
    },
    /// Panic the driving worker at the first step boundary where at
    /// least `evals` evaluations have been performed.
    WorkerPanic {
        /// Evaluation-count threshold.
        evals: usize,
    },
    /// Panic inside evaluation number `eval` (1-based call ordinal).
    EvalPanic {
        /// 1-based evaluation ordinal.
        eval: usize,
    },
}

/// A parsed, seeded fault plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed deriving corruption byte offsets (so two plans with the
    /// same faults but different seeds damage different bytes).
    pub seed: u64,
    /// The faults, in plan order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses a `GEVO_CHAOS` plan string (see the module docs for the
    /// grammar). The empty string parses to the empty plan.
    ///
    /// # Errors
    /// Returns a message naming the malformed element.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 1,
            faults: Vec::new(),
        };
        for element in spec.split(',') {
            let element = element.trim();
            if element.is_empty() {
                continue;
            }
            if let Some(seed) = element.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|e| format!("chaos plan: bad seed {seed:?}: {e}"))?;
                continue;
            }
            let (kind, at) = element
                .split_once('@')
                .ok_or_else(|| format!("chaos plan: expected kind@N, got {element:?}"))?;
            let n: usize = at
                .parse()
                .map_err(|e| format!("chaos plan: bad trigger in {element:?}: {e}"))?;
            plan.faults.push(match kind {
                "flip" => Fault::CkptFlip { write: n },
                "truncate" => Fault::CkptTruncate { write: n },
                "panic" => Fault::WorkerPanic { evals: n },
                "evalpanic" => Fault::EvalPanic { eval: n },
                other => return Err(format!("chaos plan: unknown fault kind {other:?}")),
            });
        }
        Ok(plan)
    }
}

/// splitmix64 — the corruption-offset derivation. Deterministic in
/// (seed, length), so the same plan damages the same byte of the same
/// file every time.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process-wide active plan: parsed once from `GEVO_CHAOS`, with a
/// write counter and one fired-latch per fault.
struct Active {
    plan: FaultPlan,
    writes: AtomicUsize,
    fired: Vec<AtomicBool>,
}

fn active() -> Option<&'static Active> {
    static CELL: OnceLock<Option<Active>> = OnceLock::new();
    CELL.get_or_init(|| {
        let spec = std::env::var("GEVO_CHAOS").ok()?;
        let plan = match FaultPlan::parse(&spec) {
            Ok(plan) if plan.faults.is_empty() => return None,
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("gevo: ignoring GEVO_CHAOS: {e}");
                return None;
            }
        };
        let fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        Some(Active {
            plan,
            writes: AtomicUsize::new(0),
            fired,
        })
    })
    .as_ref()
}

/// The plan in force for this process, if any (`GEVO_CHAOS`).
#[must_use]
pub fn plan() -> Option<&'static FaultPlan> {
    active().map(|a| &a.plan)
}

/// Storage-fault hook, called by
/// [`crate::checkpoint::write_checkpoint`] after each durable write:
/// when the plan has an I/O fault for this write index, the freshly
/// written file is damaged in place — exactly what a torn write or bit
/// rot would leave for the next resume to detect and roll back from.
pub fn on_checkpoint_written(path: &Path) {
    let Some(active) = active() else {
        return;
    };
    let idx = active.writes.fetch_add(1, Ordering::SeqCst);
    for (i, fault) in active.plan.faults.iter().enumerate() {
        let corrupt = match fault {
            Fault::CkptFlip { write } | Fault::CkptTruncate { write } => *write == idx,
            _ => false,
        };
        if !corrupt || active.fired[i].swap(true, Ordering::SeqCst) {
            continue;
        }
        let Ok(mut bytes) = std::fs::read(path) else {
            continue;
        };
        if bytes.is_empty() {
            continue;
        }
        match fault {
            Fault::CkptFlip { .. } => {
                #[allow(clippy::cast_possible_truncation)]
                let at = (splitmix64(active.plan.seed ^ bytes.len() as u64) % bytes.len() as u64)
                    as usize;
                bytes[at] ^= 0xFF;
            }
            Fault::CkptTruncate { .. } => bytes.truncate(bytes.len() / 2),
            _ => unreachable!("filtered above"),
        }
        // Deliberately NOT atomic: this models the damage the atomic
        // write path exists to prevent.
        let _ = std::fs::write(path, &bytes);
        eprintln!(
            "gevo: chaos damaged checkpoint {} (write {idx}, {fault:?})",
            path.display()
        );
    }
}

/// Worker-fault hook, called by the search drivers at each step
/// boundary (after any due checkpoint): panics when the plan says this
/// worker dies here. The panic unwinds the *driver*, not an
/// evaluation — `gevo-serve` catches it and retries from the last
/// checkpoint; `search_job` dies and is re-run by its caller.
///
/// # Panics
/// That is the point.
pub fn maybe_worker_panic(evals: usize) {
    let Some(active) = active() else {
        return;
    };
    for (i, fault) in active.plan.faults.iter().enumerate() {
        let Fault::WorkerPanic { evals: at } = fault else {
            continue;
        };
        // Not an assertion: the panic IS the injected fault.
        #[allow(clippy::manual_assert)]
        if evals >= *at && !active.fired[i].swap(true, Ordering::SeqCst) {
            panic!("chaos: injected worker panic at {evals} evals (trigger {at})");
        }
    }
}

/// Wraps a workload with the plan's evaluation-level fault
/// ([`Fault::EvalPanic`]); a plan without one is a free pass-through.
/// The wrapper keeps the inner workload's name, so checkpoints and job
/// files stay interchangeable with unwrapped runs.
#[must_use]
pub fn wrap(inner: Box<dyn Workload + Send>) -> Box<dyn Workload + Send> {
    let Some(plan) = plan() else {
        return inner;
    };
    let Some(eval_panic) = plan.faults.iter().find_map(|f| match f {
        Fault::EvalPanic { eval } => Some(*eval),
        _ => None,
    }) else {
        return inner;
    };
    Box::new(ChaosWorkload {
        inner,
        calls: AtomicUsize::new(0),
        panic_fired: AtomicBool::new(false),
        eval_panic,
    })
}

/// A workload wrapper injecting an evaluation panic: every method is
/// forwarded, with evaluation calls counted.
struct ChaosWorkload {
    inner: Box<dyn Workload + Send>,
    /// Evaluation calls seen so far (`evaluate` + `evaluate_compiled`).
    calls: AtomicUsize,
    panic_fired: AtomicBool,
    eval_panic: usize,
}

impl ChaosWorkload {
    /// Counts one evaluation; panics if this is the planned ordinal.
    /// Runs inside [`gevo_engine::Evaluator::evaluate`]'s
    /// `catch_unwind`, which is the boundary under test.
    fn bump(&self) {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        // Not an assertion: the panic IS the injected fault.
        #[allow(clippy::manual_assert)]
        if self.eval_panic == call && !self.panic_fired.swap(true, Ordering::SeqCst) {
            panic!("chaos: injected evaluation panic at eval {call}");
        }
    }
}

impl Workload for ChaosWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kernels(&self) -> &[Kernel] {
        self.inner.kernels()
    }
    fn evaluate(&self, kernels: &[Kernel], eval_seed: u64) -> EvalOutcome {
        self.bump();
        self.inner.evaluate(kernels, eval_seed)
    }
    fn compile(&self, kernels: &[Kernel]) -> Option<Result<Vec<CompiledKernel>, String>> {
        self.inner.compile(kernels)
    }
    fn evaluate_compiled(&self, compiled: &[CompiledKernel], eval_seed: u64) -> EvalOutcome {
        self.bump();
        self.inner.evaluate_compiled(compiled, eval_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_every_kind() {
        let plan =
            FaultPlan::parse("seed=7,flip@1,truncate@0,panic@9,evalpanic@3").expect("valid plan");
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.faults,
            vec![
                Fault::CkptFlip { write: 1 },
                Fault::CkptTruncate { write: 0 },
                Fault::WorkerPanic { evals: 9 },
                Fault::EvalPanic { eval: 3 },
            ]
        );
        assert_eq!(FaultPlan::parse("").expect("empty ok").faults, vec![]);
    }

    #[test]
    fn plan_rejects_malformed_elements() {
        for bad in ["flip", "flip@x", "explode@3", "seed=abc"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_is_deterministic() {
        let a = FaultPlan::parse("seed=3,flip@2").unwrap();
        let b = FaultPlan::parse("seed=3,flip@2").unwrap();
        assert_eq!(a, b);
        assert_eq!(splitmix64(3 ^ 0x64), splitmix64(3 ^ 0x64));
        assert_ne!(splitmix64(3), splitmix64(4));
    }
}
