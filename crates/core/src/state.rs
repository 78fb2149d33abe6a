//! Serializable search state: checkpoint/resume across process
//! boundaries.
//!
//! [`SearchState`] is the complete run state of a [`crate::Search`]
//! session between two generations — the population and its history,
//! the breeding RNG stream captured as a `(seed, word position)` pair
//! ([`gevo_ir::StreamState`]), the Pareto archive with its
//! dedup set, the evaluator's outcome cache and counters, and the index
//! of the next generation to execute. The contract, pinned by tier-1
//! tests: *checkpoint at any generation, serialize to JSON, reload in a
//! fresh process, resume — and the remaining trajectory is bit-identical
//! to the uninterrupted run* (same [`crate::SearchResult`], same
//! observer event stream).
//!
//! ## JSON conventions
//!
//! Every type converts explicitly through inherent `to_json`/`from_json`
//! methods over [`serde_json::Value`]. Two rules keep the byte stream
//! deterministic across processes:
//!
//! 1. **Hash containers serialize sorted.** `History`'s
//!    `first_seen_in_best` map is written as an array sorted by
//!    `(generation, edit JSON)`; the Pareto dedup set as a sorted array
//!    of hashes; the evaluator cache sorted by content hash.
//! 2. **Non-finite floats are strings.** The only non-finite value in
//!    the state is a failing outcome's `error` (`inf`), encoded as the
//!    string `"inf"` by [`crate::EvalOutcome::to_json`]; everything else
//!    is finite by construction and round-trips exactly through the
//!    shim's shortest-representation float encoding.
//!
//! The envelope carries `"format":` [`STATE_FORMAT`];
//! [`SearchState::from_json`] rejects any other version so a stale
//! binary fails loudly instead of misreading a newer checkpoint.
//!
//! This module validates *structure* (format version, field shapes);
//! *integrity* of checkpoint files against torn writes and bit rot is
//! the storage layer's job: `gevo_bench::checkpoint` seals every file
//! with a CRC-32 footer, rotates the previous snapshot to
//! `<file>.1`, and rolls back to it when verification fails (DESIGN.md
//! §3.9). Decode errors from here are what trigger that rollback.

use crate::edit::{Edit, Patch};
use crate::fitness::EvaluatorSnapshot;
use crate::ga::{GaConfig, GenerationRecord, History, Individual};
use crate::mutation::MutationWeights;
use crate::search::{Objective, ParetoPoint, SearchResult, SearchSpec, Selection};
use gevo_ir::{InstId, Operand, StreamState};
use serde_json::Value;

/// The checkpoint format version this build reads and writes.
///
/// - Format 4 stores each fact once. It drops format 3's top-level
///   `"baseline"` (a copy of `history.baseline`), the evaluator's fixed
///   `"eval_seed":0`, each record's and Pareto point's `"island":0` and
///   the history's `"migrations":[]`.
/// - Format 3 holds one population's state at the top level; format 2
///   held a list of islands plus a migration RNG and the island fields
///   of the spec.
/// - Format 2 added each failing outcome's `"fault"` class to the
///   evaluator cache (format 1 carried only the failure text).
pub const STATE_FORMAT: u64 = 4;

/// The complete state of a search session between two generations —
/// everything [`crate::Search::resume`] needs to continue the run
/// bit-identically. Produced by [`crate::Search::checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// Name of the workload the state was captured from.
    /// [`crate::Search::resume`] refuses a mismatching workload.
    pub workload: String,
    /// The full declarative spec of the run.
    pub spec: SearchSpec,
    /// The mutation-operator weights in force.
    pub weights: MutationWeights,
    /// The next generation to execute (0 = nothing run yet).
    pub gen: usize,
    /// The breeding RNG, captured mid-stream.
    pub rng: StreamState,
    /// The population as bred for the next generation.
    pub population: Vec<Individual>,
    /// Per-individual objective scores (NSGA-II mode only; empty vec =
    /// invalid individual), parallel to `population`.
    pub scores: Vec<Vec<f64>>,
    /// Valid individuals of the last evaluated generation, best first.
    pub ranked: Vec<usize>,
    /// The trajectory recorded so far.
    pub history: History,
    /// Best individual seen so far.
    pub best: Individual,
    /// The Pareto archive (multi-objective runs; empty otherwise).
    pub pareto: Vec<ParetoPoint>,
    /// Content hashes of every genome ever offered to the archive,
    /// sorted ascending (the archive's dedup set).
    pub pareto_seen: Vec<u64>,
    /// The evaluator's outcome cache and counters.
    pub evaluator: EvaluatorSnapshot,
}

// ---------------------------------------------------------------------
// Decode helpers.
// ---------------------------------------------------------------------

fn want<'v>(v: &'v Value, name: &str, ctx: &str) -> Result<&'v Value, String> {
    v.get(name)
        .ok_or_else(|| format!("{ctx}: missing field {name:?}"))
}

/// Keys of removed features, each with what was removed. Adaptive
/// mutation scheduling wrote `"adapt"` (DESIGN.md §3.10); the island
/// model wrote the other four (DESIGN.md §3.4). Running a spec that
/// names one as a plain one-population search would silently run a
/// different search than the one asked for.
const REMOVED_KEYS: [(&str, &str); 5] = [
    ("adapt", "adaptive mutation scheduling"),
    ("islands", "the island model"),
    ("migration_interval", "the island model"),
    ("emigrants", "the island model"),
    ("topology", "the island model"),
];

/// Refuses any of the [`REMOVED_KEYS`], naming the first present.
fn reject_removed(v: &Value, ctx: &str) -> Result<(), String> {
    match REMOVED_KEYS.iter().find(|(key, _)| v.get(key).is_some()) {
        Some((key, what)) => Err(format!(
            "{ctx}: field {key:?} is no longer supported ({what} was removed)"
        )),
        None => Ok(()),
    }
}

fn want_u64(v: &Value, name: &str, ctx: &str) -> Result<u64, String> {
    want(v, name, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: field {name:?} is not a u64"))
}

fn want_usize(v: &Value, name: &str, ctx: &str) -> Result<usize, String> {
    usize::try_from(want_u64(v, name, ctx)?)
        .map_err(|_| format!("{ctx}: field {name:?} exceeds usize"))
}

fn want_u32(v: &Value, name: &str, ctx: &str) -> Result<u32, String> {
    u32::try_from(want_u64(v, name, ctx)?).map_err(|_| format!("{ctx}: field {name:?} exceeds u32"))
}

fn want_f64(v: &Value, name: &str, ctx: &str) -> Result<f64, String> {
    want(v, name, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: field {name:?} is not a number"))
}

fn want_str<'v>(v: &'v Value, name: &str, ctx: &str) -> Result<&'v str, String> {
    want(v, name, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: field {name:?} is not a string"))
}

fn want_array<'v>(v: &'v Value, name: &str, ctx: &str) -> Result<&'v [Value], String> {
    want(v, name, ctx)?
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("{ctx}: field {name:?} is not an array"))
}

fn f64_array(v: &Value, name: &str, ctx: &str) -> Result<Vec<f64>, String> {
    want_array(v, name, ctx)?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{ctx}: field {name:?} has a non-number element"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Genome types.
// ---------------------------------------------------------------------

impl Edit {
    /// Serializes to a tagged JSON object, e.g.
    /// `{"op": "delete", "kernel": 0, "target": 3}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        match self {
            Edit::Delete { kernel, target } => {
                obj.insert("op", "delete");
                obj.insert("kernel", *kernel);
                obj.insert("target", u64::from(target.0));
            }
            Edit::Copy {
                kernel,
                source,
                before,
            } => {
                obj.insert("op", "copy");
                obj.insert("kernel", *kernel);
                obj.insert("source", u64::from(source.0));
                obj.insert("before", u64::from(before.0));
            }
            Edit::Move {
                kernel,
                source,
                before,
            } => {
                obj.insert("op", "move");
                obj.insert("kernel", *kernel);
                obj.insert("source", u64::from(source.0));
                obj.insert("before", u64::from(before.0));
            }
            Edit::Swap { kernel, a, b } => {
                obj.insert("op", "swap");
                obj.insert("kernel", *kernel);
                obj.insert("a", u64::from(a.0));
                obj.insert("b", u64::from(b.0));
            }
            Edit::Replace {
                kernel,
                target,
                source,
            } => {
                obj.insert("op", "replace");
                obj.insert("kernel", *kernel);
                obj.insert("target", u64::from(target.0));
                obj.insert("source", u64::from(source.0));
            }
            Edit::OperandReplace {
                kernel,
                target,
                arg,
                new,
            } => {
                obj.insert("op", "operand_replace");
                obj.insert("kernel", *kernel);
                obj.insert("target", u64::from(target.0));
                obj.insert("arg", *arg);
                obj.insert("new", new.to_json());
            }
            Edit::CondReplace { kernel, term, new } => {
                obj.insert("op", "cond_replace");
                obj.insert("kernel", *kernel);
                obj.insert("term", u64::from(term.0));
                obj.insert("new", new.to_json());
            }
        }
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "Edit";
        let op = want_str(v, "op", CTX)?;
        let kernel = want_usize(v, "kernel", CTX)?;
        let id = |name: &str| -> Result<InstId, String> { Ok(InstId(want_u32(v, name, CTX)?)) };
        let operand =
            |name: &str| -> Result<Operand, String> { Operand::from_json(want(v, name, CTX)?) };
        match op {
            "delete" => Ok(Edit::Delete {
                kernel,
                target: id("target")?,
            }),
            "copy" => Ok(Edit::Copy {
                kernel,
                source: id("source")?,
                before: id("before")?,
            }),
            "move" => Ok(Edit::Move {
                kernel,
                source: id("source")?,
                before: id("before")?,
            }),
            "swap" => Ok(Edit::Swap {
                kernel,
                a: id("a")?,
                b: id("b")?,
            }),
            "replace" => Ok(Edit::Replace {
                kernel,
                target: id("target")?,
                source: id("source")?,
            }),
            "operand_replace" => Ok(Edit::OperandReplace {
                kernel,
                target: id("target")?,
                arg: want_usize(v, "arg", CTX)?,
                new: operand("new")?,
            }),
            "cond_replace" => Ok(Edit::CondReplace {
                kernel,
                term: id("term")?,
                new: operand("new")?,
            }),
            other => Err(format!("Edit: unknown op {other:?}")),
        }
    }
}

impl Patch {
    /// Serializes to a JSON array of [`Edit::to_json`] objects.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Array(self.edits().iter().map(Edit::to_json).collect())
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the malformed edit.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let arr = v.as_array().ok_or("Patch: expected an array")?;
        Ok(Patch::from_edits(
            arr.iter().map(Edit::from_json).collect::<Result<_, _>>()?,
        ))
    }
}

impl Individual {
    /// Serializes to `{"patch": [...], "fitness": <f64 or null>}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("patch", self.patch.to_json());
        match self.fitness {
            Some(f) => obj.insert("fitness", f),
            None => obj.insert("fitness", Value::Null),
        };
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "Individual";
        let fitness = match want(v, "fitness", CTX)? {
            Value::Null => None,
            other => Some(
                other
                    .as_f64()
                    .ok_or_else(|| format!("{CTX}: fitness is not a number"))?,
            ),
        };
        Ok(Individual {
            patch: Patch::from_json(want(v, "patch", CTX)?)?,
            fitness,
        })
    }
}

// ---------------------------------------------------------------------
// History types.
// ---------------------------------------------------------------------

impl GenerationRecord {
    /// Serializes to a flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("gen", self.gen);
        obj.insert("best_fitness", self.best_fitness);
        obj.insert("best_speedup", self.best_speedup);
        obj.insert("best_patch", self.best_patch.to_json());
        obj.insert("valid", self.valid);
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "GenerationRecord";
        Ok(GenerationRecord {
            gen: want_usize(v, "gen", CTX)?,
            best_fitness: want_f64(v, "best_fitness", CTX)?,
            best_speedup: want_f64(v, "best_speedup", CTX)?,
            best_patch: Patch::from_json(want(v, "best_patch", CTX)?)?,
            valid: want_usize(v, "valid", CTX)?,
        })
    }
}

impl History {
    /// Serializes to a JSON object. The `first_seen_in_best` map is
    /// written as an array of `[edit, gen]` pairs sorted by
    /// `(gen, edit JSON)` so the byte stream is independent of
    /// `HashMap` iteration order (which varies across processes).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut first: Vec<(usize, String, Value)> = self
            .first_seen_in_best
            .iter()
            .map(|(e, &g)| {
                let j = e.to_json();
                let key = j.to_string();
                (g, key, j)
            })
            .collect();
        first.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut obj = serde_json::Map::new();
        obj.insert("baseline", self.baseline);
        obj.insert(
            "records",
            Value::Array(self.records.iter().map(GenerationRecord::to_json).collect()),
        );
        obj.insert(
            "first_seen_in_best",
            Value::Array(
                first
                    .into_iter()
                    .map(|(g, _, j)| Value::Array(vec![j, Value::from(g)]))
                    .collect(),
            ),
        );
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "History";
        let mut first_seen_in_best = std::collections::HashMap::new();
        for pair in want_array(v, "first_seen_in_best", CTX)? {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                format!("{CTX}: first_seen_in_best entry is not an [edit, gen] pair")
            })?;
            let edit = Edit::from_json(&pair[0])?;
            let gen = usize::try_from(
                pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("{CTX}: first_seen_in_best gen is not a u64"))?,
            )
            .map_err(|_| format!("{CTX}: first_seen_in_best gen exceeds usize"))?;
            first_seen_in_best.insert(edit, gen);
        }
        Ok(History {
            baseline: want_f64(v, "baseline", CTX)?,
            records: want_array(v, "records", CTX)?
                .iter()
                .map(GenerationRecord::from_json)
                .collect::<Result<_, _>>()?,
            first_seen_in_best,
        })
    }
}

// ---------------------------------------------------------------------
// Spec types.
// ---------------------------------------------------------------------

impl Objective {
    /// Serializes to the objective's `snake_case` name.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::from(match self {
            Objective::Cycles => "cycles",
            Objective::Error => "error",
            Objective::Instructions => "instructions",
            Objective::MemoryTraffic => "memory_traffic",
        })
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the unknown variant.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        match v.as_str() {
            Some("cycles") => Ok(Objective::Cycles),
            Some("error") => Ok(Objective::Error),
            Some("instructions") => Ok(Objective::Instructions),
            Some("memory_traffic") => Ok(Objective::MemoryTraffic),
            _ => Err(format!("Objective: unknown variant {v}")),
        }
    }
}

impl Selection {
    /// Serializes to `"tournament"` or `"nsga2"`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::from(match self {
            Selection::Tournament => "tournament",
            Selection::Nsga2 => "nsga2",
        })
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the unknown variant.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        match v.as_str() {
            Some("tournament") => Ok(Selection::Tournament),
            Some("nsga2") => Ok(Selection::Nsga2),
            _ => Err(format!(
                "Selection: expected \"tournament\" or \"nsga2\", got {v}"
            )),
        }
    }
}

impl GaConfig {
    /// Serializes to a flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("population", self.population);
        obj.insert("elitism", self.elitism);
        obj.insert("crossover_p", self.crossover_p);
        obj.insert("mutation_p", self.mutation_p);
        obj.insert("generations", self.generations);
        obj.insert("tournament", self.tournament);
        obj.insert("seed", self.seed);
        obj.insert("threads", self.threads);
        obj.insert("max_patch_len", self.max_patch_len);
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "GaConfig";
        Ok(GaConfig {
            population: want_usize(v, "population", CTX)?,
            elitism: want_usize(v, "elitism", CTX)?,
            crossover_p: want_f64(v, "crossover_p", CTX)?,
            mutation_p: want_f64(v, "mutation_p", CTX)?,
            generations: want_usize(v, "generations", CTX)?,
            tournament: want_usize(v, "tournament", CTX)?,
            seed: want_u64(v, "seed", CTX)?,
            threads: want_usize(v, "threads", CTX)?,
            max_patch_len: want_usize(v, "max_patch_len", CTX)?,
        })
    }
}

impl MutationWeights {
    /// Serializes to a flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("delete", self.delete);
        obj.insert("operand_replace", self.operand_replace);
        obj.insert("cond_replace", self.cond_replace);
        obj.insert("copy", self.copy);
        obj.insert("mov", self.mov);
        obj.insert("swap", self.swap);
        obj.insert("replace", self.replace);
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "MutationWeights";
        Ok(MutationWeights {
            delete: want_f64(v, "delete", CTX)?,
            operand_replace: want_f64(v, "operand_replace", CTX)?,
            cond_replace: want_f64(v, "cond_replace", CTX)?,
            copy: want_f64(v, "copy", CTX)?,
            mov: want_f64(v, "mov", CTX)?,
            swap: want_f64(v, "swap", CTX)?,
            replace: want_f64(v, "replace", CTX)?,
        })
    }
}

impl SearchSpec {
    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("ga", self.ga.to_json());
        obj.insert(
            "objectives",
            Value::Array(self.objectives.iter().map(Objective::to_json).collect()),
        );
        obj.insert("selection", self.selection.to_json());
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field, or a
    /// field of a removed feature (`"adapt"`, or the island model's
    /// `"islands"`, `"migration_interval"`, `"emigrants"` and
    /// `"topology"`).
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "SearchSpec";
        reject_removed(v, CTX)?;
        Ok(SearchSpec {
            ga: GaConfig::from_json(want(v, "ga", CTX)?)?,
            objectives: want_array(v, "objectives", CTX)?
                .iter()
                .map(Objective::from_json)
                .collect::<Result<_, _>>()?,
            selection: Selection::from_json(want(v, "selection", CTX)?)?,
        })
    }
}

// ---------------------------------------------------------------------
// Archive and result types.
// ---------------------------------------------------------------------

impl ParetoPoint {
    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("patch", self.patch.to_json());
        obj.insert("fitness", self.fitness);
        obj.insert(
            "scores",
            Value::Array(self.scores.iter().map(|&s| Value::from(s)).collect()),
        );
        obj.insert("gen", self.gen);
        obj.insert("slot", self.slot);
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "ParetoPoint";
        Ok(ParetoPoint {
            patch: Patch::from_json(want(v, "patch", CTX)?)?,
            fitness: want_f64(v, "fitness", CTX)?,
            scores: f64_array(v, "scores", CTX)?,
            gen: want_usize(v, "gen", CTX)?,
            slot: want_usize(v, "slot", CTX)?,
        })
    }
}

impl SearchResult {
    /// Serializes to a JSON object. Byte-deterministic: two processes
    /// producing equal results emit identical strings (the harness
    /// checkpoint tests compare them directly).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("best", self.best.to_json());
        obj.insert("speedup", self.speedup);
        obj.insert("history", self.history.to_json());
        obj.insert("evals", self.evals);
        obj.insert("cache_hits", self.cache_hits);
        obj.insert("instructions", self.instructions);
        obj.insert(
            "objectives",
            Value::Array(self.objectives.iter().map(Objective::to_json).collect()),
        );
        obj.insert(
            "pareto",
            Value::Array(self.pareto.iter().map(ParetoPoint::to_json).collect()),
        );
        Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field, or a
    /// field of a removed feature: a format-3 result's `"islands"` is
    /// refused, not dropped.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "SearchResult";
        reject_removed(v, CTX)?;
        Ok(SearchResult {
            best: Individual::from_json(want(v, "best", CTX)?)?,
            speedup: want_f64(v, "speedup", CTX)?,
            history: History::from_json(want(v, "history", CTX)?)?,
            evals: want_usize(v, "evals", CTX)?,
            cache_hits: want_usize(v, "cache_hits", CTX)?,
            instructions: want_u64(v, "instructions", CTX)?,
            objectives: want_array(v, "objectives", CTX)?
                .iter()
                .map(Objective::from_json)
                .collect::<Result<_, _>>()?,
            pareto: want_array(v, "pareto", CTX)?
                .iter()
                .map(ParetoPoint::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

// ---------------------------------------------------------------------
// The state envelope.
// ---------------------------------------------------------------------

impl SearchState {
    /// Serializes the full checkpoint, wrapped in a
    /// `"format": `[`STATE_FORMAT`] envelope.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("format", STATE_FORMAT);
        obj.insert("workload", self.workload.clone());
        obj.insert("spec", self.spec.to_json());
        obj.insert("weights", self.weights.to_json());
        obj.insert("gen", self.gen);
        obj.insert("rng", self.rng.to_json());
        obj.insert(
            "population",
            Value::Array(self.population.iter().map(Individual::to_json).collect()),
        );
        obj.insert(
            "scores",
            Value::Array(
                self.scores
                    .iter()
                    .map(|s| Value::Array(s.iter().map(|&x| Value::from(x)).collect()))
                    .collect(),
            ),
        );
        obj.insert(
            "ranked",
            Value::Array(self.ranked.iter().map(|&i| Value::from(i)).collect()),
        );
        obj.insert("history", self.history.to_json());
        obj.insert("best", self.best.to_json());
        obj.insert(
            "pareto",
            Value::Array(self.pareto.iter().map(ParetoPoint::to_json).collect()),
        );
        obj.insert(
            "pareto_seen",
            Value::Array(self.pareto_seen.iter().map(|&h| Value::from(h)).collect()),
        );
        obj.insert("evaluator", self.evaluator.to_json());
        Value::Object(obj)
    }

    /// Deserializes a checkpoint produced by
    /// [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field, or an
    /// unsupported format version.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        const CTX: &str = "SearchState";
        let format = want_u64(v, "format", CTX)?;
        if format != STATE_FORMAT {
            return Err(format!(
                "{CTX}: unsupported checkpoint format {format} (this build reads {STATE_FORMAT})"
            ));
        }
        let scores = want_array(v, "scores", CTX)?
            .iter()
            .map(|s| {
                s.as_array()
                    .ok_or_else(|| format!("{CTX}: scores element is not an array"))?
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| format!("{CTX}: score is not a number"))
                    })
                    .collect::<Result<Vec<f64>, String>>()
            })
            .collect::<Result<_, _>>()?;
        let ranked = want_array(v, "ranked", CTX)?
            .iter()
            .map(|x| {
                x.as_u64()
                    .and_then(|u| usize::try_from(u).ok())
                    .ok_or_else(|| format!("{CTX}: ranked index is not a usize"))
            })
            .collect::<Result<_, _>>()?;
        let pareto_seen = want_array(v, "pareto_seen", CTX)?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| format!("{CTX}: pareto_seen hash is not a u64"))
            })
            .collect::<Result<_, _>>()?;
        Ok(SearchState {
            workload: want_str(v, "workload", CTX)?.to_string(),
            spec: SearchSpec::from_json(want(v, "spec", CTX)?)?,
            weights: MutationWeights::from_json(want(v, "weights", CTX)?)?,
            gen: want_usize(v, "gen", CTX)?,
            rng: StreamState::from_json(want(v, "rng", CTX)?)?,
            population: want_array(v, "population", CTX)?
                .iter()
                .map(Individual::from_json)
                .collect::<Result<_, _>>()?,
            scores,
            ranked,
            history: History::from_json(want(v, "history", CTX)?)?,
            best: Individual::from_json(want(v, "best", CTX)?)?,
            pareto: want_array(v, "pareto", CTX)?
                .iter()
                .map(ParetoPoint::from_json)
                .collect::<Result<_, _>>()?,
            pareto_seen,
            evaluator: EvaluatorSnapshot::from_json(want(v, "evaluator", CTX)?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{EvalOutcome, FaultClass};
    use gevo_ir::Special;

    fn sample_edits() -> Vec<Edit> {
        vec![
            Edit::Delete {
                kernel: 0,
                target: InstId(3),
            },
            Edit::Copy {
                kernel: 1,
                source: InstId(4),
                before: InstId(9),
            },
            Edit::Move {
                kernel: 0,
                source: InstId(2),
                before: InstId(1),
            },
            Edit::Swap {
                kernel: 2,
                a: InstId(5),
                b: InstId(6),
            },
            Edit::Replace {
                kernel: 0,
                target: InstId(7),
                source: InstId(8),
            },
            Edit::OperandReplace {
                kernel: 0,
                target: InstId(1),
                arg: 1,
                new: Operand::ImmI32(-7),
            },
            Edit::CondReplace {
                kernel: 0,
                term: InstId(10),
                new: Operand::Special(Special::LaneId),
            },
        ]
    }

    fn reparse(v: &Value) -> Value {
        serde_json::from_str(&v.to_string()).expect("self-produced JSON parses")
    }

    /// The object's keys in written order: a duplicated or renamed field
    /// fails by name.
    fn top_level_keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn edit_json_round_trips_every_variant() {
        for e in sample_edits() {
            let v = reparse(&e.to_json());
            assert_eq!(Edit::from_json(&v).unwrap(), e);
        }
    }

    #[test]
    fn edit_json_rejects_malformed() {
        for bad in [
            "{}",
            r#"{"op":"teleport","kernel":0}"#,
            r#"{"op":"delete","kernel":0}"#,
            r#"{"op":"delete","target":1}"#,
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(Edit::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn history_serializes_first_seen_sorted() {
        let mut h = History {
            baseline: 1000.0,
            records: vec![GenerationRecord {
                gen: 0,
                best_fitness: 900.0,
                best_speedup: 1000.0 / 900.0,
                best_patch: Patch::from_edits(vec![sample_edits()[0]]),
                valid: 7,
            }],
            first_seen_in_best: std::collections::HashMap::new(),
        };
        for (i, e) in sample_edits().into_iter().enumerate() {
            h.first_seen_in_best.insert(e, i / 2);
        }
        let text = h.to_json().to_string();
        let round = History::from_json(&reparse(&h.to_json())).unwrap();
        assert_eq!(round, h);
        // Deterministic bytes regardless of HashMap iteration order.
        assert_eq!(round.to_json().to_string(), text);
        let entries = h.to_json();
        let entries = entries
            .get("first_seen_in_best")
            .unwrap()
            .as_array()
            .unwrap();
        let gens: Vec<u64> = entries
            .iter()
            .map(|p| p.as_array().unwrap()[1].as_u64().unwrap())
            .collect();
        let mut sorted = gens.clone();
        sorted.sort_unstable();
        assert_eq!(gens, sorted, "entries must be sorted by generation first");
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = SearchSpec {
            ga: GaConfig {
                population: 24,
                elitism: 3,
                crossover_p: 0.85,
                mutation_p: 0.6,
                generations: 17,
                tournament: 4,
                seed: 0xDEAD_BEEF_CAFE,
                threads: 2,
                max_patch_len: 9,
            },
            objectives: vec![
                Objective::Cycles,
                Objective::Error,
                Objective::MemoryTraffic,
            ],
            selection: Selection::Nsga2,
        };
        let v = reparse(&spec.to_json());
        assert_eq!(SearchSpec::from_json(&v).unwrap(), spec);
    }

    #[test]
    fn removed_adapt_key_is_rejected() {
        // Every removed feature's key, not just "adapt": a spec naming
        // islands must not silently run as one population.
        for (key, _) in REMOVED_KEYS {
            let mut spec = SearchSpec::default().to_json();
            if let Value::Object(obj) = &mut spec {
                obj.insert(key, Value::from(4u64));
            }
            let err = SearchSpec::from_json(&spec).unwrap_err();
            assert!(
                err.contains("SearchSpec") && err.contains(&format!("{key:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn search_state_round_trips_and_pins_format() {
        let launch_stats = gevo_gpu::LaunchStats::default();
        let state = SearchState {
            workload: "toy".to_string(),
            spec: SearchSpec::default(),
            weights: MutationWeights::default(),
            gen: 5,
            rng: StreamState {
                seed: [7; 32],
                word_pos: 42,
            },
            population: vec![Individual {
                patch: Patch::from_edits(sample_edits()),
                fitness: Some(999.25),
            }],
            scores: vec![vec![999.25, 0.5]],
            ranked: vec![0],
            history: History {
                baseline: 1234.5,
                records: Vec::new(),
                first_seen_in_best: std::collections::HashMap::new(),
            },
            best: Individual {
                patch: Patch::empty(),
                fitness: Some(1234.5),
            },
            pareto: vec![ParetoPoint {
                patch: Patch::from_edits(vec![sample_edits()[0]]),
                fitness: 999.25,
                scores: vec![999.25, 0.5],
                gen: 2,
                slot: 3,
            }],
            pareto_seen: vec![1, 17, 0xFFFF_FFFF_FFFF_FFFF],
            evaluator: crate::fitness::EvaluatorSnapshot {
                evals: 3,
                cache_hits: 2,
                instructions: 456,
                outcomes: vec![
                    (5, EvalOutcome::fail(FaultClass::Mismatch, "broken")),
                    (9, EvalOutcome::pass(999.25, launch_stats)),
                ],
            },
        };
        let v = reparse(&state.to_json());
        assert_eq!(SearchState::from_json(&v).unwrap(), state);
        assert_eq!(
            top_level_keys(&v),
            [
                "format",
                "workload",
                "spec",
                "weights",
                "gen",
                "rng",
                "population",
                "scores",
                "ranked",
                "history",
                "best",
                "pareto",
                "pareto_seen",
                "evaluator",
            ]
        );

        // A future format is refused, not misread; so are format 3, which
        // stored copies and fixed values, format 2, whose state is a list
        // of islands, and format 1, whose failing outcomes carry no fault
        // class.
        for format in [STATE_FORMAT + 1, 3, 2, 1] {
            let mut other = state.to_json();
            if let Value::Object(obj) = &mut other {
                obj.insert("format", format);
            }
            let err = SearchState::from_json(&other).unwrap_err();
            assert!(err.contains("unsupported checkpoint format"), "{err}");
        }
    }

    fn sample_result() -> SearchResult {
        SearchResult {
            best: Individual {
                patch: Patch::from_edits(vec![sample_edits()[0]]),
                fitness: Some(800.0),
            },
            speedup: 1.25,
            history: History {
                baseline: 1000.0,
                records: Vec::new(),
                first_seen_in_best: std::collections::HashMap::new(),
            },
            evals: 100,
            cache_hits: 40,
            instructions: 123_456,
            objectives: vec![Objective::Cycles],
            pareto: Vec::new(),
        }
    }

    #[test]
    fn search_result_round_trips() {
        let result = sample_result();
        let v = reparse(&result.to_json());
        assert_eq!(SearchResult::from_json(&v).unwrap(), result);
        assert_eq!(
            top_level_keys(&v),
            [
                "best",
                "speedup",
                "history",
                "evals",
                "cache_hits",
                "instructions",
                "objectives",
                "pareto",
            ]
        );
    }

    /// A format-3 result carries the island model's `"islands"` (a
    /// one-element copy of `"history"`): refused, naming the model, not
    /// silently decoded as the current format.
    #[test]
    fn parent_format_result_is_refused() {
        let result = sample_result();
        let mut old = result.to_json();
        if let Value::Object(obj) = &mut old {
            obj.insert("islands", Value::Array(vec![result.history.to_json()]));
        }
        let err = SearchResult::from_json(&reparse(&old)).unwrap_err();
        assert!(
            err.contains("SearchResult")
                && err.contains("\"islands\"")
                && err.contains("island model"),
            "{err}"
        );
    }
}
