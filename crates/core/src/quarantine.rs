//! Quarantine of panic-provoking variants.
//!
//! The paper's methodology scores crashing/hanging mutants as
//! worst-fitness individuals and moves on — the search must never die
//! because one genome found a simulator or compiler bug. [`crate::Evaluator`]
//! therefore runs every evaluation behind `catch_unwind`; when an
//! evaluation panics, the offending variant is serialized here as a
//! [`QuarantineRecord`] before the search continues, so the exact
//! (workload, patch, seed) triple that provoked the panic can be
//! replayed deterministically in isolation (`chaos_check --repro`).
//!
//! The quarantine directory is process-global configuration, set once
//! at startup from the `GEVO_QUARANTINE` knob: evaluation happens deep
//! inside the engine where threading a path through every call site
//! would touch the entire GA for a debugging-only concern. Writes are best-effort
//! — a full disk must not turn a survived panic into a fatal error —
//! and failures are reported on stderr.

use crate::edit::Patch;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

fn dir_cell() -> &'static Mutex<Option<PathBuf>> {
    static CELL: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

/// Sets (or clears) the process-wide quarantine directory.
pub fn set_dir(dir: Option<PathBuf>) {
    *dir_cell().lock().expect("quarantine dir lock") = dir;
}

/// The quarantine directory currently in force, if any.
#[must_use]
pub fn dir() -> Option<PathBuf> {
    dir_cell().lock().expect("quarantine dir lock").clone()
}

/// Everything needed to replay a panic-provoking evaluation: the
/// workload registry name, the exact patch, the scheduler seed in
/// force, and the captured panic message.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Workload registry name (`adept-v0`, `adept-v1`, `simcov`).
    pub workload: String,
    /// The variant that provoked the panic.
    pub patch: Patch,
    /// Scheduler seed the evaluation ran under.
    pub eval_seed: u64,
    /// The failure as scored (`panic: <captured message>`).
    pub reason: String,
}

impl QuarantineRecord {
    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert("workload", self.workload.clone());
        obj.insert("patch", self.patch.to_json());
        obj.insert("eval_seed", self.eval_seed);
        obj.insert("reason", self.reason.clone());
        serde_json::Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the malformed field.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let str_field = |name: &str| {
            v.get(name)
                .and_then(serde_json::Value::as_str)
                .map(ToString::to_string)
                .ok_or_else(|| format!("QuarantineRecord: missing or invalid {name}"))
        };
        Ok(QuarantineRecord {
            workload: str_field("workload")?,
            patch: Patch::from_json(v.get("patch").ok_or("QuarantineRecord: missing patch")?)?,
            eval_seed: v
                .get("eval_seed")
                .and_then(serde_json::Value::as_u64)
                .ok_or("QuarantineRecord: missing or invalid eval_seed")?,
            reason: str_field("reason")?,
        })
    }

    /// The file name this record quarantines under: workload slug plus
    /// the patch content hash, so re-quarantining the same variant
    /// overwrites instead of accumulating duplicates.
    #[must_use]
    pub fn file_name(&self) -> String {
        let slug: String = self
            .workload
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!(
            "{}-{:016x}.quarantine.json",
            slug.trim_matches('-'),
            self.patch.content_hash()
        )
    }

    /// Writes the record into `dir` (created if missing).
    ///
    /// # Errors
    /// Returns a message when the directory or file cannot be written.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create quarantine dir {}: {e}", dir.display()))?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().to_string())
            .map_err(|e| format!("cannot write quarantine file {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Loads a record written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    /// Returns a message when the file cannot be read or decoded.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read quarantine file {}: {e}", path.display()))?;
        let value = serde_json::from_str(&text)
            .map_err(|e| format!("quarantine file {} is not valid JSON: {e}", path.display()))?;
        Self::from_json(&value).map_err(|e| format!("quarantine file {}: {e}", path.display()))
    }
}

/// Best-effort quarantine into the process-wide directory: a no-op when
/// no directory is configured, and a stderr report (never a panic) when
/// the write fails — quarantine must not make a survived panic fatal.
// The returned path is informational; the evaluator fires and forgets.
#[allow(clippy::must_use_candidate)]
pub fn quarantine(record: &QuarantineRecord) -> Option<PathBuf> {
    let dir = dir()?;
    match record.write_to(&dir) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("gevo: quarantine write failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::Edit;

    fn sample() -> QuarantineRecord {
        QuarantineRecord {
            workload: "adept-v0[P100]".to_string(),
            patch: Patch::from_edits(vec![Edit::Delete {
                kernel: 0,
                target: gevo_ir::InstId(3),
            }]),
            eval_seed: 42,
            reason: "panic: index out of bounds".to_string(),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = sample();
        let back = QuarantineRecord::from_json(&rec.to_json()).expect("round trip");
        assert_eq!(back, rec);
    }

    #[test]
    fn record_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("gevo-quarantine-test");
        std::fs::remove_dir_all(&dir).ok();
        let rec = sample();
        let path = rec.write_to(&dir).expect("write record");
        assert!(path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().ends_with(".quarantine.json")));
        let back = QuarantineRecord::load(&path).expect("load record");
        assert_eq!(back, rec);
        // Same variant re-quarantined lands on the same file.
        assert_eq!(rec.write_to(&dir).expect("rewrite"), path);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_json_names_the_bad_field() {
        let mut obj = serde_json::Map::new();
        obj.insert("workload", "adept-v0");
        let err = QuarantineRecord::from_json(&serde_json::Value::Object(obj))
            .expect_err("missing fields must fail");
        assert!(err.contains("patch"), "{err}");
    }
}
