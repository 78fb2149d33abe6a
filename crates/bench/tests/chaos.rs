//! Failure-model tests (DESIGN.md §3.9): checkpoint corruption is
//! *always* detected and rolled back (property-based, any single-byte
//! flip or truncation), and `gevo-serve` supervision honors its
//! contract across real process boundaries — per-field submit
//! rejection, graceful shutdown that suspends (not loses) in-flight
//! jobs, per-job deadlines that fail loudly, and malformed supervision
//! knobs that stop the server before it reads a request. A
//! `GEVO_STOP_AFTER` that no checkpoint could honor, and a knob of a
//! removed feature, stop `search_job` the same way, before its first
//! generation. `chaos_check --repro` replays a quarantine record.
//!
//! The end-to-end byte-identity battery (corrupt → rollback → rerun →
//! identical result) lives in the `chaos_check` binary, which CI runs
//! as a separate smoke step.

use gevo_bench::checkpoint::{load_state, load_state_with_rollback, previous_path, seal};
use gevo_engine::{GaConfig, Search, SearchSpec, StepStatus};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One real mid-search checkpoint, sealed exactly as
/// `write_checkpoint` would write it. Built once: the corruption
/// property is about the *container*, not about which search produced
/// the state.
fn sealed_checkpoint() -> &'static str {
    static SEALED: OnceLock<String> = OnceLock::new();
    SEALED.get_or_init(|| {
        let w = gevo_bench::workload_by_name("adept-v0").expect("registry workload");
        let spec = SearchSpec {
            ga: GaConfig {
                population: 6,
                generations: 4,
                seed: 9,
                threads: 1,
                ..GaConfig::scaled()
            },
            ..SearchSpec::default()
        };
        let mut search = Search::from_spec(w.as_ref(), spec);
        for _ in 0..2 {
            assert!(matches!(search.step(), StepStatus::Advanced { .. }));
        }
        seal(&search.checkpoint().to_json().to_string())
    })
}

/// Fresh primary + rotated-previous checkpoint pair in a per-case
/// scratch directory: the primary gets `damaged`, the `.1` snapshot
/// stays good — the exact disk state a crash-during-write leaves.
fn corrupt_pair(damaged: &[u8]) -> (PathBuf, PathBuf) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gevo-chaos-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let primary = dir.join("run.ckpt.json");
    std::fs::write(previous_path(&primary), sealed_checkpoint()).expect("write good snapshot");
    std::fs::write(&primary, damaged).expect("write damaged snapshot");
    (dir, primary)
}

proptest! {
    // Pinned case count and generation seed, like tests/proptests.rs:
    // tier-1 CI must draw the same cases every run.
    #![proptest_config(ProptestConfig::with_cases(32).with_rng_seed(0x39C4_0221))]

    /// Flipping any single byte of a sealed checkpoint is detected by
    /// the CRC/footer validation, and rollback recovers the previous
    /// snapshot bit-identically — never a panic, never silent
    /// acceptance of damaged state.
    #[test]
    fn single_byte_flip_is_detected_and_rolled_back(pos in 0usize..1 << 20, mask in 0u8..255) {
        let good = sealed_checkpoint().as_bytes().to_vec();
        let mut damaged = good.clone();
        let pos = pos % damaged.len();
        damaged[pos] ^= mask + 1; // a zero mask would leave the byte intact
        let (dir, primary) = corrupt_pair(&damaged);

        prop_assert!(
            load_state(&primary).is_err(),
            "a flipped byte at {pos} must not load as a valid checkpoint"
        );
        let recovered = load_state_with_rollback(&primary);
        prop_assert!(
            recovered.is_ok(),
            "rollback failed: {:?}",
            recovered.as_ref().err()
        );
        let (state, note) = recovered.expect("just checked");
        prop_assert!(note.is_some(), "recovery must report the rollback");
        let body = seal(&state.to_json().to_string());
        // Rolled-back state must equal the pristine snapshot.
        prop_assert_eq!(body.as_bytes(), &good[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating a sealed checkpoint at any point — including exactly
    /// at the body/footer boundary — is detected and rolled back.
    #[test]
    fn truncation_is_detected_and_rolled_back(cut in 0usize..1 << 20) {
        let good = sealed_checkpoint().as_bytes().to_vec();
        let cut = cut % good.len(); // strictly shorter than the original
        let (dir, primary) = corrupt_pair(&good[..cut]);

        prop_assert!(
            load_state(&primary).is_err(),
            "a checkpoint truncated to {cut} bytes must not load"
        );
        let recovered = load_state_with_rollback(&primary);
        prop_assert!(
            recovered.is_ok(),
            "rollback failed: {:?}",
            recovered.as_ref().err()
        );
        let (state, note) = recovered.expect("just checked");
        prop_assert!(note.is_some(), "recovery must report the rollback");
        let body = seal(&state.to_json().to_string());
        // Rolled-back state must equal the pristine snapshot.
        prop_assert_eq!(body.as_bytes(), &good[..]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// gevo-serve supervision, across real process boundaries.
// ---------------------------------------------------------------------

fn gevo_serve() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gevo-serve"));
    for knob in [
        "GEVO_CHAOS",
        "GEVO_JOB_DEADLINE",
        "GEVO_JOB_RETRIES",
        "GEVO_JOB_BACKOFF_MS",
    ] {
        cmd.env_remove(knob);
    }
    cmd
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gevo-chaos-serve-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A malformed submit is rejected with one `error` event per bad
/// field — never silently coerced to defaults, never accepted. A spec
/// carrying the removed `"adapt"` key is rejected too, not run as a
/// uniform search, and so is a shorthand asking for the removed island
/// model (`islands`, `migration`), not run as one population.
#[test]
fn malformed_submit_gets_one_error_per_field() {
    let dir = scratch("bad-submit");
    let mut server = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .arg("--exit-when-idle")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gevo-serve");
    let mut stdin = server.stdin.take().expect("server stdin");
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"id\":\"bad\",\"workload\":\"adept-v0\",\
         \"pop\":\"eight\",\"gens\":true,\"seed\":3}}"
    )
    .expect("write submit");
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"id\":\"isl\",\"workload\":\"adept-v0\",\
         \"pop\":8,\"islands\":4,\"migration\":2}}"
    )
    .expect("write submit");
    let mut spec = SearchSpec::default().to_json();
    if let serde_json::Value::Object(obj) = &mut spec {
        obj.insert("adapt", "ucb1");
    }
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"id\":\"adaptive\",\"workload\":\"adept-v0\",\"spec\":{spec}}}"
    )
    .expect("write submit");
    drop(stdin);
    let out = server.wait_with_output().expect("server exits");
    assert!(out.status.success());
    let events = String::from_utf8(out.stdout).expect("utf8 events");
    // Field names arrive inside the message string, so their quotes
    // are JSON-escaped on the wire.
    for field in [
        r#"field \"pop\""#,
        r#"field \"gens\""#,
        r#"field \"adapt\""#,
        r#"field \"islands\""#,
        r#"field \"migration\""#,
    ] {
        assert!(
            events
                .lines()
                .any(|l| l.contains("\"event\":\"error\"") && l.contains(field)),
            "expected a per-field error naming {field}: {events}"
        );
    }
    assert!(
        !events.contains("\"event\":\"accepted\""),
        "a malformed submit must not be accepted: {events}"
    );
    for id in ["bad", "isl", "adaptive"] {
        assert!(
            !dir.join(format!("{id}.job.json")).exists(),
            "a rejected submit must not persist a job record"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads events until `want` generation events have been seen;
/// returns the generation number of the first one.
fn wait_for_generations(reader: &mut impl BufRead, want: usize) -> u64 {
    let mut first_gen = None;
    let mut seen = 0;
    let mut line = String::new();
    while seen < want {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server event");
        assert!(n > 0, "server exited before generation event {want}");
        assert!(
            !line.contains("\"event\":\"error\""),
            "server reported an error: {line}"
        );
        if line.contains("\"event\":\"generation\"") {
            seen += 1;
            if first_gen.is_none() {
                first_gen = Some(parse_gen(&line));
            }
        }
    }
    first_gen.expect("at least one generation event")
}

/// Pulls the `"gen":N` field out of an event line.
fn parse_gen(line: &str) -> u64 {
    let tail = &line[line.find("\"gen\":").expect("gen field") + 6..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("gen is an integer")
}

/// The graceful `shutdown` op suspends in-flight jobs to a checkpoint
/// and the next start resumes them — from where they left off, not
/// from generation 0 — to a result byte-identical to an uninterrupted
/// `search_job` run of the same spec.
#[test]
fn shutdown_suspends_and_restart_resumes_not_restarts() {
    let dir = scratch("shutdown");
    let (pop, gens, seed) = (8, 10, 5);

    // The fault-free reference line for the identical spec.
    let straight = {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_search_job"));
        cmd.env_remove("GEVO_CHAOS")
            .env("GEVO_POP", pop.to_string())
            .env("GEVO_GENS", gens.to_string())
            .env("GEVO_SEED", seed.to_string())
            .env("GEVO_THREADS", "1")
            .args(["--workload", "adept-v0"]);
        let out = cmd.output().expect("run search_job");
        assert!(out.status.success());
        String::from_utf8(out.stdout)
            .expect("utf8")
            .trim()
            .to_string()
    };

    // Session one: cadence too sparse to ever checkpoint (1000), so the
    // only checkpoint that can exist afterwards is the one `shutdown`
    // writes while suspending.
    let mut server = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .env("GEVO_CHECKPOINT_EVERY", "1000")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gevo-serve");
    let mut stdin = server.stdin.take().expect("server stdin");
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"id\":\"s1\",\"workload\":\"adept-v0\",\
         \"pop\":{pop},\"gens\":{gens},\"seed\":{seed}}}"
    )
    .expect("submit job");
    stdin.flush().expect("flush submit");
    let mut reader = BufReader::new(server.stdout.take().expect("server stdout"));
    wait_for_generations(&mut reader, 2);
    writeln!(stdin, "{{\"op\":\"shutdown\"}}").expect("send shutdown");
    drop(stdin);
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("drain events");
    assert!(server.wait().expect("reap server").success());
    assert!(
        rest.contains("\"event\":\"suspended\""),
        "shutdown must suspend the in-flight job: {rest}"
    );
    assert!(
        dir.join("s1.ckpt.json").exists(),
        "the suspended job must leave its shutdown checkpoint"
    );
    assert!(
        !dir.join("s1.done.json").exists(),
        "the job must not have finished before the shutdown"
    );

    // Session two: recovery resumes the suspended job. Its first
    // generation event must pick up past the suspension point — a
    // server that restarted from scratch would start at generation 0.
    let mut restart = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .arg("--exit-when-idle")
        .env("GEVO_CHECKPOINT_EVERY", "1000")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("restart gevo-serve");
    let mut reader = BufReader::new(restart.stdout.take().expect("server stdout"));
    let first_gen = wait_for_generations(&mut reader, 1);
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("drain events");
    assert!(restart.wait().expect("reap server").success());
    assert!(
        first_gen >= 2,
        "resume must continue past the suspension point, got generation {first_gen}"
    );
    assert!(
        rest.contains("\"event\":\"done\""),
        "the resumed job must complete: {rest}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("s1.done.json"))
            .expect("done file")
            .trim(),
        straight,
        "suspend + resume must reproduce the uninterrupted result byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A blown per-job deadline fails the attempt loudly; with retries
/// exhausted the job lands in the error state — it does not hang, and
/// it does not fabricate a result.
#[test]
fn blown_deadline_fails_the_job() {
    let dir = scratch("deadline");
    let mut server = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .arg("--exit-when-idle")
        .env("GEVO_JOB_RETRIES", "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gevo-serve");
    let mut stdin = server.stdin.take().expect("server stdin");
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"id\":\"d1\",\"workload\":\"adept-v0\",\
         \"pop\":6,\"gens\":4,\"seed\":1,\"deadline_s\":0}}"
    )
    .expect("submit job");
    drop(stdin);
    let out = server.wait_with_output().expect("server exits");
    assert!(out.status.success());
    let events = String::from_utf8(out.stdout).expect("utf8 events");
    assert!(
        events.contains("\"event\":\"failed\"") && events.contains("deadline 0s exceeded"),
        "the blown deadline must emit a failed event: {events}"
    );
    assert!(
        events.contains("giving up after 1 attempts"),
        "exhausted retries must surface in the final error: {events}"
    );
    assert!(
        !events.contains("\"event\":\"done\""),
        "a deadline-failed job must not report done: {events}"
    );
    assert!(
        !dir.join("d1.done.json").exists(),
        "a deadline-failed job must not persist a result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed supervision knob stops the server at startup, naming
/// the variable, before it reads a request: no job runs without its
/// deadline, and none fails mid-run.
#[test]
fn malformed_deadline_knob_stops_the_server_at_startup() {
    let dir = scratch("bad-deadline");
    let mut server = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .env("GEVO_JOB_DEADLINE", "10m")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gevo-serve");
    let submit = r#"{"op":"submit","id":"b1","workload":"adept-v0","pop":6,"gens":2}"#;
    // The server may already be gone; a failed write is fine.
    let _ = writeln!(server.stdin.take().expect("server stdin"), "{submit}");
    let out = server.wait_with_output().expect("server exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a bad deadline must fail the server");
    assert!(
        stderr.contains("GEVO_JOB_DEADLINE: cannot parse \"10m\""),
        "{stderr}"
    );
    assert!(out.stdout.is_empty() && !dir.join("b1.job.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `GEVO_STOP_AFTER` is refused before the first generation when it
/// could never fire (0: completed generations count from 1) or when no
/// checkpoint would keep the generations it ran: either exit 3 would
/// promise a resumable stop that is not there.
#[test]
fn stop_after_without_a_checkpoint_or_at_zero_is_refused_at_startup() {
    let dir = scratch("bad-stop-after");
    let ckpt = dir.join("job.ckpt.json");
    for (stop_after, checkpoint) in [("2", None), ("0", Some(&ckpt))] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_search_job"));
        cmd.env_remove("GEVO_CHAOS")
            .env_remove("GEVO_CHECKPOINT")
            .env("GEVO_STOP_AFTER", stop_after)
            .env("GEVO_POP", "4")
            .env("GEVO_GENS", "3");
        if let Some(path) = checkpoint {
            cmd.env("GEVO_CHECKPOINT", path);
        }
        let out = cmd.output().expect("run search_job");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "GEVO_STOP_AFTER={stop_after}: {stderr}"
        );
        assert_ne!(out.status.code(), Some(3), "not the resumable stop code");
        assert!(stderr.contains("GEVO_STOP_AFTER"), "{stderr}");
        assert!(out.stdout.is_empty(), "no search result is printed");
    }
    assert!(!ckpt.exists(), "refused before any generation ran");
    std::fs::remove_dir_all(&dir).ok();
}

/// The knobs of removed features are refused at startup, naming the
/// knob, instead of running a plain one-population search in their
/// place.
#[test]
fn removed_knobs_are_refused_at_startup() {
    let runs: [(&str, Option<&str>, &[&str]); 3] = [
        ("GEVO_ISLANDS", Some("4"), &[]),
        ("GEVO_ADAPT", Some("1"), &[]),
        ("--islands", None, &["--islands", "4"]),
    ];
    for (knob, env, args) in runs {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_search_job"));
        cmd.env_remove("GEVO_CHAOS")
            .env_remove("GEVO_CHECKPOINT")
            .env("GEVO_POP", "4")
            .env("GEVO_GENS", "2")
            .args(["--workload", "adept-v0"])
            .args(args);
        if let Some(v) = env {
            cmd.env(knob, v);
        }
        let out = cmd.output().expect("run search_job");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{knob}: {stderr}");
        assert!(
            stderr.contains(&format!("{knob} is no longer supported")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "no search result is printed");
    }
}

/// A misspelt `GEVO_*` variable is refused at startup, naming it,
/// instead of silently running the default: `GEVO_GEN=5` used to run
/// `search_job` at `GEVO_GENS`' default, and `GEVO_JOB_DEADLNE` to
/// start `gevo-serve` with no deadline.
#[test]
fn unknown_knobs_are_refused_at_startup() {
    let mut search = Command::new(env!("CARGO_BIN_EXE_search_job"));
    search
        .env("GEVO_POP", "4")
        .env("GEVO_GEN", "5")
        .args(["--workload", "adept-v0"]);
    let mut serve = Command::new(env!("CARGO_BIN_EXE_gevo-serve"));
    serve
        .env("GEVO_JOB_DEADLNE", "1")
        .arg("--state-dir")
        .arg(scratch("unknown-knob"))
        .arg("--exit-when-idle")
        .stdin(Stdio::null());
    for (mut cmd, knob) in [(search, "GEVO_GEN"), (serve, "GEVO_JOB_DEADLNE")] {
        let out = cmd
            .env_remove("GEVO_CHAOS")
            .env_remove("GEVO_CHECKPOINT")
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{knob}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{knob} is not a known knob (known: GEVO_POP, GEVO_GENS,"
            )),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{knob}: nothing is printed");
    }
}

/// `chaos_check --repro` replays a quarantine record as the evaluator
/// writes it: named by the workload's display name
/// (`adept-v0[P100-scaled]`), not its registry name, and possibly
/// carrying the `"eval_seed"` field older builds wrote.
#[test]
fn repro_replays_a_quarantine_record() {
    let w = gevo_bench::workload_by_name("adept-v0").expect("registry workload");
    let path = scratch("repro").join("record.quarantine.json");
    let record = format!(
        r#"{{"workload":"{}","patch":[],"eval_seed":0,"reason":"panic: simulator bug"}}"#,
        w.name()
    );
    std::fs::write(&path, record).expect("write record");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_check"))
        .arg("--repro")
        .arg(&path)
        .output()
        .expect("run chaos_check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(stdout.contains("outcome: passes now"), "{stdout}");
}
