//! `chaos_check` — drives the shipped binaries under seeded fault
//! plans and asserts the recovery invariant (DESIGN.md §3.9):
//!
//! > A search interrupted by checkpoint corruption, a worker panic or a
//! > kill, then recovered through rollback/retry/resume, finishes
//! > **byte-identical** to a fault-free run; an *evaluation* panic is
//! > quarantined and scored worst-fitness without aborting the search.
//!
//! Scenarios (each compared against one clean `search_job` baseline):
//!
//! 1. `flip@1` / `truncate@1` — the checkpoint written at the
//!    `GEVO_STOP_AFTER` kill point is corrupted; the rerun must detect
//!    it, roll back to the rotated `.1` snapshot and still match.
//! 2. `panic@1` — the driving worker panics at a step boundary; the
//!    rerun resumes from the last checkpoint and must match.
//! 3. `gevo-serve` with `panic@1` — the in-process supervisor retries
//!    from the checkpoint (`failed` event then `done`); the job's
//!    `done.json` must match a serve run without faults.
//! 4. `evalpanic@3` + `GEVO_QUARANTINE` — the search completes (exit
//!    0) and the offending variant lands in quarantine. No byte
//!    comparison: a mutant that really fails legitimately changes the
//!    trajectory.
//!
//! ```text
//! chaos_check [--seed S] [--workload NAME] [--repro <file>.quarantine.json]
//! ```
//!
//! `--seed` seeds the fault plans' corruption-offset derivation (any
//! seed must recover — CI runs one, developers can sweep).
//! `--repro` replays a quarantined variant in isolation and reports
//! its outcome. Exits non-zero on any violated invariant.

use gevo_bench::arg_value;
use gevo_engine::{Evaluator, QuarantineRecord};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Locates a sibling binary in the same target directory as this one.
fn sibling(name: &str) -> PathBuf {
    let me = std::env::current_exe().expect("own path");
    me.parent().expect("target dir").join(name)
}

/// Base command for a `search_job` run: fixed small budget, one
/// thread, and every chaos/checkpoint knob scrubbed so only what a
/// scenario sets explicitly is in force.
fn search_job(workload: &str, seed: u64) -> Command {
    let mut cmd = Command::new(sibling("search_job"));
    for knob in [
        "GEVO_CHAOS",
        "GEVO_CHECKPOINT",
        "GEVO_STOP_AFTER",
        "GEVO_QUARANTINE",
        "GEVO_POP",
        "GEVO_GENS",
    ] {
        cmd.env_remove(knob);
    }
    cmd.env("GEVO_POP", "6")
        .env("GEVO_GENS", "4")
        .env("GEVO_SEED", seed.to_string())
        .env("GEVO_THREADS", "1")
        .env("GEVO_CHECKPOINT_EVERY", "1")
        .args(["--workload", workload]);
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn child binary")
}

fn stdout_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

/// One scenario verdict, tallied into the process exit code.
struct Verdict {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Verdict {
    let detail = detail.into();
    println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    Verdict { name, ok, detail }
}

/// Scenario 1/2: kill `search_job` deterministically (`GEVO_STOP_AFTER`
/// for I/O faults, the injected worker panic otherwise), then re-run
/// the same command without the fault plan and demand the baseline
/// line.
fn recovers_byte_identical(
    name: &'static str,
    dir: &Path,
    workload: &str,
    seed: u64,
    plan: &str,
    stop_after: Option<usize>,
    baseline: &str,
) -> Verdict {
    let ckpt = dir.join(format!("{name}.ckpt.json"));
    let mut first = search_job(workload, seed);
    first.env("GEVO_CHECKPOINT", &ckpt).env("GEVO_CHAOS", plan);
    if let Some(k) = stop_after {
        first.env("GEVO_STOP_AFTER", k.to_string());
    }
    let killed = run(&mut first);
    let expected_kill = match stop_after {
        Some(_) => killed.status.code() == Some(3),
        None => !killed.status.success(),
    };
    if !expected_kill {
        return check(
            name,
            false,
            format!("first run was not interrupted (status {:?})", killed.status),
        );
    }
    // Recovery: same command, no fault plan (the fault happened once).
    let mut second = search_job(workload, seed);
    second.env("GEVO_CHECKPOINT", &ckpt);
    let recovered = run(&mut second);
    if !recovered.status.success() {
        return check(
            name,
            false,
            format!(
                "recovery run failed: {}",
                String::from_utf8_lossy(&recovered.stderr)
            ),
        );
    }
    let line = stdout_line(&recovered);
    check(
        name,
        line == baseline,
        if line == baseline {
            "recovered result byte-identical to fault-free run".to_string()
        } else {
            format!("result diverged:\n  clean: {baseline}\n  chaos: {line}")
        },
    )
}

/// Scenario 3: the serve supervisor's retry-from-checkpoint. Runs
/// `gevo-serve --exit-when-idle` twice over the same submission — once
/// clean, once with an injected worker panic — and compares the
/// durable `done.json` files byte-for-byte, plus demands the `failed`
/// retry event actually appeared.
fn serve_retries_byte_identical(dir: &Path, workload: &str, seed: u64) -> Verdict {
    let name = "serve-retry";
    let submit = format!(
        "{{\"op\":\"submit\",\"id\":\"c1\",\"workload\":\"{workload}\",\"pop\":6,\"gens\":4,\"seed\":{seed}}}\n"
    );
    let serve_once = |state_dir: &Path, plan: Option<&str>| -> Output {
        let mut cmd = Command::new(sibling("gevo-serve"));
        cmd.env_remove("GEVO_CHAOS")
            .env_remove("GEVO_CHECKPOINT")
            .env_remove("GEVO_STOP_AFTER")
            .env("GEVO_CHECKPOINT_EVERY", "1")
            .env("GEVO_JOB_RETRIES", "2")
            .env("GEVO_JOB_BACKOFF_MS", "10")
            .env("GEVO_THREADS", "1")
            .args(["--state-dir"])
            .arg(state_dir)
            .arg("--exit-when-idle")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped());
        if let Some(plan) = plan {
            cmd.env("GEVO_CHAOS", plan);
        }
        let mut child = cmd.spawn().expect("spawn gevo-serve");
        use std::io::Write;
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(submit.as_bytes())
            .expect("write submit");
        child.wait_with_output().expect("serve exits")
    };
    let clean_dir = dir.join("serve-clean");
    let chaos_dir = dir.join("serve-chaos");
    std::fs::create_dir_all(&clean_dir).expect("mkdir");
    std::fs::create_dir_all(&chaos_dir).expect("mkdir");
    let clean = serve_once(&clean_dir, None);
    let chaos = serve_once(&chaos_dir, Some("panic@1"));
    if !clean.status.success() || !chaos.status.success() {
        return check(name, false, "a serve process exited non-zero");
    }
    let chaos_events = String::from_utf8_lossy(&chaos.stdout).to_string();
    if !chaos_events.contains("\"event\":\"failed\"") {
        return check(name, false, "no failed event: the panic never fired");
    }
    let read = |d: &Path| std::fs::read(d.join("c1.done.json")).expect("done.json exists");
    let identical = read(&clean_dir) == read(&chaos_dir);
    check(
        name,
        identical,
        if identical {
            "retried job's done.json byte-identical to fault-free serve"
        } else {
            "done.json diverged between clean and retried serve"
        },
    )
}

/// Scenario 4: an evaluation panic must be caught, quarantined and
/// scored worst-fitness — the search completes.
fn eval_panic_is_quarantined(dir: &Path, workload: &str, seed: u64) -> Verdict {
    let name = "evalpanic-quarantine";
    let qdir = dir.join("quarantine");
    let mut cmd = search_job(workload, seed);
    cmd.env("GEVO_CHAOS", "evalpanic@3")
        .env("GEVO_QUARANTINE", &qdir);
    let out = run(&mut cmd);
    if !out.status.success() {
        return check(name, false, "search aborted instead of surviving the panic");
    }
    if stdout_line(&out).is_empty() {
        return check(name, false, "no result line printed");
    }
    let records: Vec<PathBuf> = std::fs::read_dir(&qdir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.to_string_lossy().ends_with(".quarantine.json"))
                .collect()
        })
        .unwrap_or_default();
    let [record] = records.as_slice() else {
        return check(
            name,
            false,
            format!(
                "expected exactly one quarantine record, found {}",
                records.len()
            ),
        );
    };
    match QuarantineRecord::load(record) {
        Ok(rec) if rec.reason.starts_with("panic:") => check(
            name,
            true,
            format!(
                "search survived; variant quarantined at {}",
                record.display()
            ),
        ),
        Ok(rec) => check(name, false, format!("unexpected reason {:?}", rec.reason)),
        Err(e) => check(name, false, e),
    }
}

/// `--repro`: replay a quarantined variant in isolation.
fn repro(path: &Path) -> i32 {
    let rec = match QuarantineRecord::load(path) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // The record carries the workload's display name
    // (`adept-v0[P100-scaled]`), not its registry name.
    let Some(w) = ["adept-v0", "adept-v1", "simcov"]
        .into_iter()
        .filter_map(gevo_bench::workload_by_name)
        .find(|w| w.name() == rec.workload)
    else {
        eprintln!("unknown workload {:?} in record", rec.workload);
        return 2;
    };
    println!(
        "replaying {} on {} (quarantined for: {})",
        path.display(),
        rec.workload,
        rec.reason
    );
    let outcome = Evaluator::new(w.as_ref()).evaluate(&rec.patch);
    match (&outcome.fitness, &outcome.failure) {
        (Some(f), _) => println!("outcome: passes now (fitness {f})"),
        (None, Some(reason)) => println!("outcome: still fails ({reason})"),
        (None, None) => println!("outcome: invalid without a reason (engine bug)"),
    }
    0
}

fn main() {
    if let Some(path) = arg_value("--repro") {
        std::process::exit(repro(Path::new(&path)));
    }
    let seed: u64 = arg_value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let workload = arg_value("--workload").unwrap_or_else(|| "adept-v0".to_string());
    let dir = std::env::temp_dir().join(format!("gevo-chaos-{}-s{seed}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    println!("# chaos_check: workload {workload}, plan seed {seed}");
    let baseline_out = run(&mut search_job(&workload, seed));
    assert!(baseline_out.status.success(), "baseline run must succeed");
    let baseline = stdout_line(&baseline_out);

    // Checkpoint writes with GEVO_CHECKPOINT_EVERY=1 and STOP_AFTER=2:
    // write 0 after gen 1, write 1 at the stop point — so `@1` corrupts
    // the snapshot the rerun would prefer, forcing the rollback path.
    let flip = format!("seed={seed},flip@1");
    let trunc = format!("seed={seed},truncate@1");
    let verdicts = [
        recovers_byte_identical(
            "corrupt-flip",
            &dir,
            &workload,
            seed,
            &flip,
            Some(2),
            &baseline,
        ),
        recovers_byte_identical(
            "corrupt-truncate",
            &dir,
            &workload,
            seed,
            &trunc,
            Some(2),
            &baseline,
        ),
        recovers_byte_identical(
            "worker-panic",
            &dir,
            &workload,
            seed,
            "panic@1",
            None,
            &baseline,
        ),
        serve_retries_byte_identical(&dir, &workload, seed),
        eval_panic_is_quarantined(&dir, &workload, seed),
    ];

    let failures: Vec<&Verdict> = verdicts.iter().filter(|v| !v.ok).collect();
    if failures.is_empty() {
        println!("# all {} chaos scenarios recovered", verdicts.len());
        std::fs::remove_dir_all(&dir).ok();
    } else {
        for f in &failures {
            eprintln!("chaos_check FAILED: {}: {}", f.name, f.detail);
        }
        eprintln!("# scratch kept for inspection: {}", dir.display());
        std::process::exit(1);
    }
}
