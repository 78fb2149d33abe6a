//! Checkpoint/resume plumbing for every GA-driven harness binary.
//!
//! The knobs live here and nowhere else (the same single-point rule as
//! [`crate::harness_spec`]): any binary that runs its search through
//! [`crate::run_search`] understands
//!
//! | knob | meaning |
//! |---|---|
//! | `--checkpoint <path>` / `GEVO_CHECKPOINT` | write checkpoints here |
//! | `--resume <path>` | resume from this checkpoint file |
//! | `GEVO_CHECKPOINT_EVERY` | generations between checkpoints (default 5) |
//! | `GEVO_STOP_AFTER` | run k generations, checkpoint, exit with code 3 |
//!
//! A path ending in `.json` is used verbatim (single-search binaries);
//! anything else is treated as a directory and each search writes
//! `<workload-slug>-s<seed>-i<islands>.ckpt.json` inside it, so sweep
//! binaries (table1, fig4 — many searches per process) cannot collide.
//! When no explicit `--resume` is given but the checkpoint file already
//! exists, the run resumes from it — which is exactly the kill/restart
//! recovery story: re-running the same command line continues where the
//! killed process left off.
//!
//! Checkpoint files are written atomically (temp file + rename in the
//! same directory), so a kill mid-write leaves the previous checkpoint
//! intact, never a torn one.
//!
//! ## Integrity and rollback (DESIGN.md §3.9)
//!
//! Atomic rename keeps a *kill* from tearing a file, but not a bad
//! disk, a truncating copy, or a stray editor from corrupting one.
//! Every checkpoint is therefore sealed with a CRC-32 footer line
//! ([`seal`]/[`unseal`]), and each write first rotates the existing
//! file to `<file>.1` ([`write_checkpoint`]). On read,
//! [`load_state`] demands a valid footer *and* a decodable
//! [`SearchState`]; [`load_state_with_rollback`] falls back to the
//! rotated `.1` snapshot when the primary fails either check, so a
//! corrupted latest checkpoint costs at most one checkpoint interval
//! of work instead of the whole run. The footer is mandatory — a file
//! without one is treated as corrupt, because accepting it would let
//! a truncation that happens to end on the JSON boundary pass
//! silently.

use gevo_engine::{
    AdaptReport, EvalStats, Search, SearchObserver, SearchResult, SearchSpec, SearchState,
    StepStatus, Workload,
};
use std::path::{Path, PathBuf};

/// Exit code for a run interrupted by `GEVO_STOP_AFTER` — distinct from
/// success (0) and failure (1) so harness tests can assert the
/// interruption actually happened.
pub const STOPPED_EXIT_CODE: i32 = 3;

/// The checkpoint/resume configuration in force (CLI + env).
#[derive(Debug, Clone, Default)]
pub struct CheckpointKnobs {
    /// Where to write checkpoints (`--checkpoint` / `GEVO_CHECKPOINT`).
    pub path: Option<PathBuf>,
    /// Explicit checkpoint to resume from (`--resume`).
    pub resume: Option<PathBuf>,
    /// Generations between checkpoints (`GEVO_CHECKPOINT_EVERY`).
    pub every: usize,
    /// Stop (checkpoint + exit [`STOPPED_EXIT_CODE`]) after this many
    /// generations (`GEVO_STOP_AFTER`).
    pub stop_after: Option<usize>,
}

fn arg_value(flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// Reads the checkpoint knobs from the command line and environment.
#[must_use]
pub fn checkpoint_knobs() -> CheckpointKnobs {
    let path = arg_value("--checkpoint")
        .or_else(|| std::env::var("GEVO_CHECKPOINT").ok())
        .map(PathBuf::from);
    let resume = arg_value("--resume").map(PathBuf::from);
    let every = crate::env_usize("GEVO_CHECKPOINT_EVERY", 5).max(1);
    let stop_after = std::env::var("GEVO_STOP_AFTER")
        .ok()
        .and_then(|v| v.parse().ok());
    CheckpointKnobs {
        path,
        resume,
        every,
        stop_after,
    }
}

/// Lowercases a workload name into a filesystem-safe slug
/// (`adept-v0[P100-scaled]` → `adept-v0-p100-scaled`).
#[must_use]
pub fn workload_slug(name: &str) -> String {
    let mut slug: String = name
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    while slug.contains("--") {
        slug = slug.replace("--", "-");
    }
    slug.trim_matches('-').to_string()
}

/// Resolves a checkpoint base path for one search: a `.json` path is
/// used verbatim; anything else is a directory receiving a per-search
/// file named from the workload slug, seed and island count.
#[must_use]
pub fn resolve_checkpoint_path(base: &Path, workload: &str, spec: &SearchSpec) -> PathBuf {
    if base.extension().is_some_and(|e| e == "json") {
        return base.to_path_buf();
    }
    base.join(format!(
        "{}-s{}-i{}.ckpt.json",
        workload_slug(workload),
        spec.ga.seed,
        spec.islands
    ))
}

/// Writes `text` to `path` atomically: temp file in the same directory,
/// then rename. A crash mid-write cannot leave a torn file at `path`.
///
/// # Panics
/// Panics if the directory cannot be created or the write fails —
/// losing checkpoints silently would defeat their purpose.
pub fn write_atomic(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        }
    }
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name().map_or_else(
            || "checkpoint".to_string(),
            |n| n.to_string_lossy().into_owned()
        )
    ));
    std::fs::write(&tmp, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", tmp.display()));
    std::fs::rename(&tmp, path)
        .unwrap_or_else(|e| panic!("cannot rename {} -> {}: {e}", tmp.display(), path.display()));
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes` — the checksum sealing
/// every checkpoint file. Bitwise (no table): checkpoints are a few
/// hundred KB at most and written once per generation interval, so
/// simplicity beats throughput here.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The footer line tag. The body is one line of compact JSON (the
/// serializer emits no newlines), so the last occurrence of
/// `"\n" + tag` unambiguously splits body from footer.
const FOOTER_TAG: &str = "#gevo-ckpt-crc32:";

/// Seals checkpoint text with its CRC-32 footer line.
#[must_use]
pub fn seal(text: &str) -> String {
    format!("{text}\n{FOOTER_TAG}{:08x}\n", crc32(text.as_bytes()))
}

/// Verifies and strips the [`seal`] footer, returning the body.
///
/// # Errors
/// Returns a message when the footer is missing, malformed, truncated,
/// or the checksum does not match the body. A missing footer is an
/// error by design: a legacy/unsealed file is indistinguishable from a
/// sealed file truncated exactly at the body boundary.
pub fn unseal(raw: &str) -> Result<&str, String> {
    let marker = format!("\n{FOOTER_TAG}");
    let body_end = raw
        .rfind(&marker)
        .ok_or_else(|| "missing integrity footer".to_string())?;
    let body = &raw[..body_end];
    let footer = &raw[body_end + marker.len()..];
    let hex = footer
        .strip_suffix('\n')
        .ok_or_else(|| "truncated integrity footer".to_string())?;
    if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("malformed integrity footer {hex:?}"));
    }
    let want = u32::from_str_radix(hex, 16).expect("checked hex digits");
    let got = crc32(body.as_bytes());
    if want == got {
        Ok(body)
    } else {
        Err(format!(
            "checksum mismatch: footer says {want:08x}, content is {got:08x}"
        ))
    }
}

/// The rotation target holding the previous good snapshot:
/// `run.ckpt.json` → `run.ckpt.json.1`.
#[must_use]
pub fn previous_path(path: &Path) -> PathBuf {
    let name = path.file_name().map_or_else(
        || "checkpoint".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    path.with_file_name(format!("{name}.1"))
}

/// Writes a sealed checkpoint: rotates any existing file to
/// [`previous_path`] (same-directory rename, atomic), then writes the
/// CRC-sealed state atomically. After both steps at most one of the
/// two files can be damaged by any single fault, which is exactly what
/// [`load_state_with_rollback`] needs. Chaos fault injection
/// ([`crate::chaos`]) hooks in after the write to corrupt the fresh
/// file when a plan says so.
///
/// # Panics
/// Panics if the write fails — losing checkpoints silently would
/// defeat their purpose.
pub fn write_checkpoint(path: &Path, state: &SearchState) {
    if path.exists() {
        let prev = previous_path(path);
        std::fs::rename(path, &prev).unwrap_or_else(|e| {
            panic!(
                "cannot rotate {} -> {}: {e}",
                path.display(),
                prev.display()
            )
        });
    }
    write_atomic(path, &seal(&state.to_json().to_string()));
    crate::chaos::on_checkpoint_written(path);
}

/// Loads, verifies and decodes a sealed checkpoint file.
///
/// # Errors
/// Returns a message when the file cannot be read, fails its checksum,
/// or does not decode as a [`SearchState`].
pub fn load_state(path: &Path) -> Result<SearchState, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let body = unseal(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
    let value = serde_json::from_str(body)
        .map_err(|e| format!("checkpoint {} is not valid JSON: {e}", path.display()))?;
    SearchState::from_json(&value).map_err(|e| format!("checkpoint {}: {e}", path.display()))
}

/// [`load_state`], falling back to the rotated previous snapshot when
/// the primary file is corrupt. Returns the state plus a rollback note
/// (`None` when the primary loaded cleanly) so callers can surface the
/// recovery instead of hiding it.
///
/// # Errors
/// Returns the combined failure when both snapshots are unreadable.
pub fn load_state_with_rollback(path: &Path) -> Result<(SearchState, Option<String>), String> {
    let primary_err = match load_state(path) {
        Ok(state) => return Ok((state, None)),
        Err(e) => e,
    };
    let prev = previous_path(path);
    match load_state(&prev) {
        Ok(state) => Ok((
            state,
            Some(format!(
                "{primary_err}; rolled back to previous snapshot {}",
                prev.display()
            )),
        )),
        Err(fallback_err) => Err(format!("{primary_err}; rollback failed: {fallback_err}")),
    }
}

/// Drives a configured [`Search`] session to completion, writing a
/// checkpoint to `ckpt` every `every` generations. When `stop_after` is
/// hit, the state is checkpointed and the process exits with
/// [`STOPPED_EXIT_CODE`] — the deterministic stand-in for a kill that
/// the recovery tests use.
///
/// Returns the result plus the evaluator's own counters and the
/// adaptive scheduler's merged report, both of which are deliberately
/// absent from the result (and the report from checkpoints' identity
/// contract): cache hit rates, lowering-pass counters and
/// operator-credit tallies only describe how this process
/// computed the trajectory, not the trajectory itself.
///
/// # Panics
/// Panics if a due checkpoint cannot be written.
#[must_use]
pub fn drive_search(
    mut search: Search<'_>,
    ckpt: Option<&Path>,
    every: usize,
    stop_after: Option<usize>,
) -> (SearchResult, EvalStats, Option<AdaptReport>) {
    let every = every.max(1);
    while let StepStatus::Advanced { gen } = search.step() {
        let completed = gen + 1;
        let due = ckpt.is_some() && completed % every == 0;
        let stopping = stop_after == Some(completed);
        if due || (stopping && ckpt.is_some()) {
            let state = search.checkpoint();
            let path = ckpt.expect("checked above");
            write_checkpoint(path, &state);
        }
        if stopping {
            std::process::exit(STOPPED_EXIT_CODE);
        }
        // Chaos worker panics fire here, at the step boundary *after*
        // any due checkpoint — outside the evaluation isolation, so a
        // rerun resumes from the checkpoint and replays the identical
        // trajectory (the recovery invariant chaos_check asserts).
        crate::chaos::maybe_worker_panic(search.eval_stats().evals);
    }
    let stats = search.eval_stats();
    let adapt = search.adapt_report();
    (search.into_result(), stats, adapt)
}

/// The checkpoint-aware search runner behind [`crate::run_search`]:
/// resolves this search's checkpoint file, resumes from `--resume` (or
/// from the checkpoint file itself when it already exists), attaches
/// the observer, and drives the session with [`drive_search`].
///
/// # Panics
/// Panics if an explicitly requested resume file is unreadable or
/// undecodable (continuing from scratch would silently discard paid-for
/// generations), or if a checkpoint write fails.
#[must_use]
pub fn run_search_with(
    w: &dyn Workload,
    spec: &SearchSpec,
    knobs: &CheckpointKnobs,
    observer: Option<&mut dyn SearchObserver>,
) -> (SearchResult, EvalStats, Option<AdaptReport>) {
    let ckpt = knobs
        .path
        .as_ref()
        .map(|base| resolve_checkpoint_path(base, w.name(), spec));
    let resume_from = knobs
        .resume
        .clone()
        .or_else(|| ckpt.clone().filter(|p| p.exists()));
    let state = resume_from.map(|p| match load_state_with_rollback(&p) {
        Ok((state, note)) => {
            if let Some(note) = note {
                eprintln!("gevo: {note}");
            }
            state
        }
        Err(e) => panic!("{e}"),
    });
    let mut search = if let Some(state) = &state {
        Search::resume(w, state)
    } else {
        let mut fresh = Search::from_spec(w, spec.clone());
        // GEVO_MUT_WEIGHTS applies to fresh sessions only: resumed
        // states already carry the weights their run started with.
        if let Some(weights) = crate::mut_weights_knob() {
            fresh = fresh.weights(weights);
        }
        fresh
    };
    if let Some(obs) = observer {
        search = search.observer(obs);
    }
    drive_search(search, ckpt.as_deref(), knobs.every, knobs.stop_after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_engine::GaConfig;

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(
            workload_slug("adept-v0[P100-scaled]"),
            "adept-v0-p100-scaled"
        );
        assert_eq!(workload_slug("simcov[V100]"), "simcov-v100");
    }

    #[test]
    fn json_suffix_is_verbatim_everything_else_a_directory() {
        let spec = SearchSpec {
            ga: GaConfig {
                seed: 9,
                ..GaConfig::scaled()
            },
            islands: 4,
            ..SearchSpec::default()
        };
        let verbatim = resolve_checkpoint_path(Path::new("/tmp/x/run.json"), "w", &spec);
        assert_eq!(verbatim, Path::new("/tmp/x/run.json"));
        let dir = resolve_checkpoint_path(Path::new("/tmp/ckpts"), "adept-v0[P100]", &spec);
        assert_eq!(dir, Path::new("/tmp/ckpts/adept-v0-p100-s9-i4.ckpt.json"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_round_trips_and_detects_damage() {
        let sealed = seal("{\"format\":1}");
        assert_eq!(unseal(&sealed).unwrap(), "{\"format\":1}");
        // Flip one body byte: checksum must catch it.
        let mut bytes = sealed.clone().into_bytes();
        bytes[2] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(unseal(&flipped).unwrap_err().contains("checksum mismatch"));
        // Truncations anywhere are rejected (footer missing/truncated
        // or checksum mismatch — never a silent accept).
        for cut in 0..sealed.len() {
            assert!(unseal(&sealed[..cut]).is_err(), "cut at {cut} accepted");
        }
        // A footer-less legacy file is corrupt by definition.
        assert!(unseal("{\"format\":1}").unwrap_err().contains("missing"));
    }

    #[test]
    fn previous_path_appends_dot_one() {
        assert_eq!(
            previous_path(Path::new("/tmp/a/run.ckpt.json")),
            Path::new("/tmp/a/run.ckpt.json.1")
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("gevo-ckpt-test");
        let path = dir.join("state.json");
        write_atomic(&path, "one");
        write_atomic(&path, "two");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
        std::fs::remove_dir_all(&dir).ok();
    }
}
