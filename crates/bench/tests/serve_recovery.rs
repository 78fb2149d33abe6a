//! Kill/restart recovery, tested across real process boundaries.
//!
//! `checkpoint_resume.rs` (repo root) proves checkpoint + resume is
//! bit-identical *in process*. These tests prove the same property for
//! the shipped binaries: `search_job` interrupted by `GEVO_STOP_AFTER`
//! and re-run from its checkpoint file must print the same result line
//! as an uninterrupted process, and `gevo-serve` SIGKILLed mid-job must
//! finish that job from its checkpoint on restart with an identical
//! result file.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Exit code `search_job` uses when `GEVO_STOP_AFTER` interrupts it
/// (`gevo_bench::checkpoint::STOPPED_EXIT_CODE`).
const STOPPED: i32 = 3;

fn search_job() -> Command {
    Command::new(env!("CARGO_BIN_EXE_search_job"))
}

fn gevo_serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gevo-serve"))
}

/// A fresh scratch directory under the system temp dir. Recreated
/// empty on every call so stale checkpoints from a previous test run
/// cannot leak into this one.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gevo-serve-recovery-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Budget envs shared by both sides of a comparison. The spec must be
/// identical between the straight and the interrupted process or the
/// byte-identity assertion would be vacuous.
fn budget(cmd: &mut Command, pop: usize, gens: usize, seed: u64) {
    cmd.env("GEVO_POP", pop.to_string())
        .env("GEVO_GENS", gens.to_string())
        .env("GEVO_SEED", seed.to_string())
        .env("GEVO_THREADS", "1");
}

/// Runs `search_job` to completion and returns its single result line.
fn straight_line(workload: &str, pop: usize, gens: usize, seed: u64) -> String {
    let mut cmd = search_job();
    budget(&mut cmd, pop, gens, seed);
    let out = cmd
        .arg("--workload")
        .arg(workload)
        .output()
        .expect("run search_job");
    assert!(out.status.success(), "straight search_job must succeed");
    String::from_utf8(out.stdout)
        .expect("utf8 result")
        .trim()
        .to_string()
}

#[test]
fn search_job_stop_resume_is_byte_identical() {
    let dir = scratch("stop-resume");
    let ckpt = dir.join("run.json");
    let (pop, gens, seed) = (8, 4, 5);

    let straight = straight_line("simcov", pop, gens, seed);

    // Interrupted half: checkpoint every generation, stop after 2.
    let mut cmd = search_job();
    budget(&mut cmd, pop, gens, seed);
    let out = cmd
        .args(["--workload", "simcov"])
        .env("GEVO_CHECKPOINT", &ckpt)
        .env("GEVO_CHECKPOINT_EVERY", "1")
        .env("GEVO_STOP_AFTER", "2")
        .output()
        .expect("run interrupted search_job");
    assert_eq!(
        out.status.code(),
        Some(STOPPED),
        "GEVO_STOP_AFTER must exit with the stopped code"
    );
    assert!(ckpt.exists(), "the interrupted run must leave a checkpoint");

    // Second half: same command line, no stop. The checkpoint file
    // already exists, so the run auto-resumes from it.
    let mut cmd = search_job();
    budget(&mut cmd, pop, gens, seed);
    let out = cmd
        .args(["--workload", "simcov"])
        .env("GEVO_CHECKPOINT", &ckpt)
        .env("GEVO_CHECKPOINT_EVERY", "1")
        .output()
        .expect("run resumed search_job");
    assert!(out.status.success(), "resumed search_job must succeed");
    let resumed = String::from_utf8(out.stdout).expect("utf8 result");

    assert_eq!(
        resumed.trim(),
        straight,
        "stop + resume across processes must reproduce the straight run byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The worker count is not part of what a checkpoint pins: a search
/// stopped under one `GEVO_THREADS` auto-resumes under another (a
/// different host, say) and prints the straight run's result.
#[test]
fn search_job_resumes_under_a_different_thread_count() {
    let dir = scratch("threads");
    let ckpt = dir.join("run.json");
    let (pop, gens, seed) = (8, 4, 2);
    let straight = straight_line("adept-v0", pop, gens, seed);

    let run = |threads: &str, stop_after: Option<&str>| {
        let mut cmd = search_job();
        budget(&mut cmd, pop, gens, seed);
        cmd.args(["--workload", "adept-v0"])
            .env("GEVO_THREADS", threads)
            .env("GEVO_CHECKPOINT", &ckpt)
            .env("GEVO_CHECKPOINT_EVERY", "1");
        if let Some(k) = stop_after {
            cmd.env("GEVO_STOP_AFTER", k);
        }
        cmd.output().expect("run search_job")
    };

    let first = run("1", Some("2"));
    assert_eq!(
        first.status.code(),
        Some(STOPPED),
        "stopped at generation 2"
    );
    let second = run("2", None);
    assert!(
        second.status.success(),
        "a different thread count must not refuse the resume; stderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    assert_eq!(
        String::from_utf8(second.stdout)
            .expect("utf8 result")
            .trim(),
        straight,
        "threads 1 then 2 must reproduce the straight run byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint left by a different search must not be silently
/// finished in place of the requested one: re-running at the same path
/// with a larger generation budget stops with an error naming the file
/// instead of printing the stale search's result.
#[test]
fn search_job_refuses_a_stale_checkpoint() {
    let dir = scratch("stale-spec");
    let ckpt = dir.join("run.json");
    let run = |gens: usize| {
        let mut cmd = search_job();
        budget(&mut cmd, 8, gens, 1);
        cmd.args(["--workload", "adept-v0"])
            .env("GEVO_CHECKPOINT", &ckpt)
            .env("GEVO_CHECKPOINT_EVERY", "1")
            .output()
            .expect("run search_job")
    };

    let first = run(3);
    assert!(first.status.success(), "the 3-generation run must succeed");
    assert!(ckpt.exists(), "the first run must leave a checkpoint");

    let second = run(5);
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        !second.status.success(),
        "a stale checkpoint must not be resumed silently; stdout: {}",
        String::from_utf8_lossy(&second.stdout)
    );
    assert!(
        second.stdout.is_empty(),
        "no result line may be printed for the stale search"
    );
    assert!(
        stderr.contains(&ckpt.display().to_string()),
        "the error must name the checkpoint; stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads server events until `generation` events for `want` distinct
/// generations have been seen, guaranteeing at least `want - 1`
/// checkpoints are on disk (the checkpoint for generation g is written
/// after g's event is emitted, so only the last seen generation may
/// still be un-checkpointed when this returns).
fn wait_for_generations(reader: &mut impl BufRead, want: usize) {
    let mut seen = 0;
    let mut line = String::new();
    while seen < want {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server event");
        assert!(n > 0, "server exited before generation {want}");
        if line.contains("\"event\":\"error\"") {
            panic!("server reported an error: {line}");
        }
        if line.contains("\"event\":\"generation\"") {
            seen += 1;
        }
    }
}

fn read_done(dir: &Path, id: &str) -> String {
    std::fs::read_to_string(dir.join(format!("{id}.done.json")))
        .expect("done file")
        .trim()
        .to_string()
}

#[test]
fn gevo_serve_survives_sigkill_and_finishes_from_checkpoint() {
    let dir = scratch("sigkill");
    let (pop, gens, seed) = (8, 4, 3);

    let straight = straight_line("adept-v0", pop, gens, seed);

    // Session one: submit a job, watch it past its second generation
    // (so at least one checkpoint is durable), then SIGKILL the server.
    let mut server = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .env("GEVO_CHECKPOINT_EVERY", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gevo-serve");
    let mut stdin = server.stdin.take().expect("server stdin");
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"id\":\"k1\",\"workload\":\"adept-v0\",\
         \"pop\":{pop},\"gens\":{gens},\"seed\":{seed}}}"
    )
    .expect("submit job");
    stdin.flush().expect("flush submit");
    let mut reader = BufReader::new(server.stdout.take().expect("server stdout"));
    wait_for_generations(&mut reader, 2);
    server.kill().expect("SIGKILL server");
    server.wait().expect("reap server");
    drop(stdin);
    assert!(
        !dir.join("k1.done.json").exists(),
        "the job must not have finished before the kill"
    );
    assert!(
        dir.join("k1.job.json").exists(),
        "the killed server must leave the job record behind"
    );

    // Session two: same state dir, no input. Recovery rescans the job
    // records, finishes k1 from its checkpoint, and exits when idle.
    let out = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .arg("--exit-when-idle")
        .env("GEVO_CHECKPOINT_EVERY", "1")
        .stdin(Stdio::null())
        .output()
        .expect("restart gevo-serve");
    assert!(out.status.success(), "restarted server must exit cleanly");
    let events = String::from_utf8(out.stdout).expect("utf8 events");
    assert!(
        events.contains("\"recovered\":true"),
        "restart must announce the recovered job: {events}"
    );
    assert!(
        events.contains("\"event\":\"done\""),
        "recovered job must complete: {events}"
    );

    assert_eq!(
        read_done(&dir, "k1"),
        straight,
        "a SIGKILLed job finished from checkpoint must match the uninterrupted result"
    );

    // Resubmitting a finished job is idempotent: the server answers
    // with the stored result instead of re-running the search.
    let mut rerun = gevo_serve()
        .arg("--state-dir")
        .arg(&dir)
        .arg("--exit-when-idle")
        .env("GEVO_CHECKPOINT_EVERY", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gevo-serve again");
    let mut stdin = rerun.stdin.take().expect("rerun stdin");
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"id\":\"k1\",\"workload\":\"adept-v0\",\
         \"pop\":{pop},\"gens\":{gens},\"seed\":{seed}}}"
    )
    .expect("resubmit job");
    drop(stdin);
    let out = rerun.wait_with_output().expect("rerun output");
    assert!(out.status.success());
    let events = String::from_utf8(out.stdout).expect("utf8 events");
    assert!(
        events.contains("\"event\":\"done\"") && !events.contains("\"event\":\"generation\""),
        "a finished job must be answered from its result file, not re-run: {events}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
