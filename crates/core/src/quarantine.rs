//! Quarantine of panic-provoking variants.
//!
//! The paper's methodology scores crashing/hanging mutants as
//! worst-fitness individuals and moves on — the search must never die
//! because one genome found a simulator or compiler bug. [`crate::Evaluator`]
//! therefore runs every evaluation behind `catch_unwind`; when an
//! evaluation panics, the offending variant is serialized here as a
//! [`QuarantineRecord`] before the search continues, so the exact
//! (workload, patch) pair that provoked the panic can be
//! replayed deterministically in isolation (`chaos_check --repro`).
//!
//! The directory is a parameter of each evaluator
//! ([`crate::Evaluator::quarantine`], [`crate::Search::quarantine`]);
//! an evaluator without one records nothing. Writes are best-effort —
//! a full disk must not turn a survived panic into a fatal error — and
//! failures are reported on stderr.

use crate::edit::Patch;
use std::path::{Path, PathBuf};

/// Everything needed to replay a panic-provoking evaluation: the
/// workload name, the exact patch and the captured panic
/// message. Every evaluation runs under scheduler seed 0, so the record
/// names no seed.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The workload's [`crate::Workload::name`] (`adept-v0[P100-scaled]`).
    pub workload: String,
    /// The variant that provoked the panic.
    pub patch: Patch,
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
        obj.insert("reason", self.reason.clone());
        serde_json::Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    /// Keys it does not read are ignored, so records that still carry
    /// the `"eval_seed"` field older builds wrote load too.
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
    fn record_with_an_eval_seed_still_loads() {
        // Records written before the seed was fixed carry "eval_seed".
        let rec = sample();
        let mut obj = serde_json::Map::new();
        obj.insert("workload", rec.workload.clone());
        obj.insert("patch", rec.patch.to_json());
        obj.insert("eval_seed", 0u64);
        obj.insert("reason", rec.reason.clone());
        let text = serde_json::Value::Object(obj).to_string();
        assert!(text.contains(r#""eval_seed":0"#), "{text}");
        let back = QuarantineRecord::from_json(&serde_json::from_str(&text).unwrap());
        assert_eq!(back.expect("older record loads"), rec);
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
