//! `gevo-serve` — a minimal durable job server over the search engine.
//!
//! Accepts line-delimited JSON jobs on **stdin** or over a plain
//! `std::net::TcpListener` (`--listen ADDR`; no web framework), runs
//! each search on its own supervised worker thread, streams engine
//! events back as they happen, and checkpoints every N generations so
//! a `SIGKILL` at any moment loses at most N generations of work: on
//! restart the server rescans its state directory and resumes every
//! unfinished job from its last checkpoint. DESIGN.md §3.6 documents
//! the protocol, §3.9 the supervision/recovery contract.
//!
//! ```text
//! gevo-serve --state-dir DIR [--listen ADDR] [--exit-when-idle]
//! ```
//!
//! Operations (one JSON object per line):
//!
//! ```text
//! {"op":"submit","id":"j1","workload":"adept-v0","pop":8,"gens":6,"seed":3,
//!  "deadline_s":600}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Malformed submissions are rejected with one `error` event **per bad
//! field** — a present-but-wrong-type `pop`/`gens`/`seed`/... never
//! silently coerces to a default (absent fields still default).
//!
//! Events (one JSON object per line, to the submitting stream):
//!
//! ```text
//! {"event":"accepted","id":"j1","recovered":false}
//! {"event":"generation","id":"j1","gen":0,"best_fitness":..,"best_speedup":..}
//! {"event":"rollback","id":"j1","message":"checkpoint .. rolled back .."}
//! {"event":"failed","id":"j1","attempt":1,"error":"panic: .."}
//! {"event":"suspended","id":"j1","gen":4}
//! {"event":"done","id":"j1","speedup":..,"result":"<path>.done.json",
//!  "attempts":1,"evals":..,"faults":{..}}
//! {"event":"error","id":"j1","message":".."}
//! {"event":"status","jobs":[{"id":"j1","state":"running","attempts":1}, ..]}
//! ```
//!
//! Supervision: each job runs under a per-attempt `catch_unwind` with
//! an optional wall-clock deadline (`deadline_s` on the submit, else
//! `GEVO_JOB_DEADLINE`). A panicked or deadline-blown attempt emits a
//! `failed` event and is retried with exponential backoff
//! (`GEVO_JOB_RETRIES` / `GEVO_JOB_BACKOFF_MS`, see
//! `gevo_bench::supervise`) — and because the attempt resumes from the
//! job's last checkpoint, a retry repeats at most one checkpoint
//! interval, never the whole search. The `shutdown` op checkpoints
//! every in-flight job (`suspended` event) before the server exits, so
//! the next start resumes them rather than re-running from
//! generation 0.
//!
//! Durability: `<id>.job.json` (the resolved job, written atomically on
//! accept), `<id>.ckpt.json` (CRC-sealed checkpoint with `.ckpt.json.1`
//! rotation, cadence `GEVO_CHECKPOINT_EVERY`, default 5),
//! `<id>.done.json` (final [`gevo_engine::SearchResult`]). All writes
//! are atomic (temp + rename), so a kill can truncate nothing; a
//! corrupted checkpoint rolls back to its `.1` snapshot (`rollback`
//! event) instead of failing the job.

use gevo_bench::checkpoint::{load_state_with_rollback, write_atomic, write_checkpoint};
use gevo_bench::supervise::{deadline_from_env, job_deadline, RetryPolicy};
use gevo_bench::{arg_value, chaos, check_knobs, env_usize, quarantine_knob, workload_by_name};
use gevo_engine::{
    GaConfig, GenerationRecord, Search, SearchObserver, SearchSpec, SearchState, StepStatus,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a job's events go: the stdout printer thread, or the TCP
/// connection that submitted it.
#[derive(Clone)]
enum Sink {
    Stdout(mpsc::Sender<String>),
    Socket(Arc<Mutex<TcpStream>>),
}

impl Sink {
    fn emit(&self, line: &str) {
        match self {
            Sink::Stdout(tx) => {
                let _ = tx.send(line.to_string());
            }
            Sink::Socket(stream) => {
                if let Ok(mut s) = stream.lock() {
                    let _ = writeln!(s, "{line}");
                    let _ = s.flush();
                }
            }
        }
    }
}

/// One row of the job table.
#[derive(Clone, Copy)]
struct JobInfo {
    state: &'static str,
    attempts: usize,
}

/// Shared server state: job table + idle signaling + shutdown latch.
struct Manager {
    dir: PathBuf,
    every: usize,
    /// Supervision knobs, read and validated once at startup.
    policy: RetryPolicy,
    deadline: Option<Duration>,
    /// `GEVO_QUARANTINE`, given to every job's search.
    quarantine: Option<PathBuf>,
    jobs: Mutex<BTreeMap<String, JobInfo>>,
    idle: Condvar,
    /// Set by the `shutdown` op: workers checkpoint and suspend at
    /// their next step boundary instead of running to completion.
    shutting_down: AtomicBool,
}

impl Manager {
    fn set_state(&self, id: &str, state: &'static str) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let info = jobs
            .entry(id.to_string())
            .or_insert(JobInfo { state, attempts: 0 });
        info.state = state;
        self.idle.notify_all();
    }

    fn set_attempts(&self, id: &str, attempts: usize) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        if let Some(info) = jobs.get_mut(id) {
            info.attempts = attempts;
        }
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn wait_idle(&self) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        while jobs
            .values()
            .any(|j| j.state == "queued" || j.state == "running")
        {
            jobs = self.idle.wait(jobs).expect("job table poisoned");
        }
    }

    fn status_line(&self) -> String {
        let jobs = self.jobs.lock().expect("job table poisoned");
        let rows: Vec<Value> = jobs
            .iter()
            .map(|(id, info)| {
                let mut row = serde_json::Map::new();
                row.insert("id", id.clone());
                row.insert("state", info.state);
                row.insert("attempts", info.attempts as u64);
                Value::Object(row)
            })
            .collect();
        let mut obj = serde_json::Map::new();
        obj.insert("event", "status");
        obj.insert("jobs", Value::Array(rows));
        Value::Object(obj).to_string()
    }
}

/// One accepted job: id + workload registry name + fully resolved spec
/// + optional per-job deadline.
#[derive(Clone)]
struct Job {
    id: String,
    workload: String,
    spec: SearchSpec,
    deadline_s: Option<u64>,
}

impl Job {
    fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("id", self.id.clone());
        obj.insert("workload", self.workload.clone());
        obj.insert("spec", self.spec.to_json());
        if let Some(s) = self.deadline_s {
            obj.insert("deadline_s", s);
        }
        Value::Object(obj)
    }

    fn from_json(v: &Value) -> Result<Job, String> {
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or("job: missing id")?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("job: missing workload")?;
        let spec = SearchSpec::from_json(v.get("spec").ok_or("job: missing spec")?)?;
        Ok(Job {
            id: id.to_string(),
            workload: workload.to_string(),
            spec,
            deadline_s: v.get("deadline_s").and_then(Value::as_u64),
        })
    }
}

fn event(kind: &str, id: &str) -> serde_json::Map {
    let mut obj = serde_json::Map::new();
    obj.insert("event", kind);
    obj.insert("id", id);
    obj
}

/// Streams engine callbacks out as serve events.
struct ServeObserver {
    id: String,
    sink: Sink,
}

impl SearchObserver for ServeObserver {
    fn on_generation(&mut self, record: &GenerationRecord) {
        let mut obj = event("generation", &self.id);
        obj.insert("gen", record.gen);
        obj.insert("best_fitness", record.best_fitness);
        obj.insert("best_speedup", record.best_speedup);
        self.sink.emit(&Value::Object(obj).to_string());
    }
}

fn job_path(dir: &Path, id: &str, kind: &str) -> PathBuf {
    dir.join(format!("{id}.{kind}.json"))
}

/// How one supervised attempt ended.
enum Attempt {
    /// Result persisted, `done` event emitted.
    Done,
    /// Shutdown checkpointed the job mid-run; the next server start
    /// resumes it.
    Suspended,
    /// Recoverable failure (deadline blown); retry from checkpoint.
    Failed(String),
    /// Unrecoverable (unknown workload, both checkpoint snapshots
    /// corrupt): retrying cannot help.
    Fatal(String),
}

/// One attempt at a job: resume from its checkpoint (rolling back to
/// the previous snapshot if the latest is corrupt), stream events,
/// checkpoint on cadence, honor the deadline and the shutdown latch,
/// persist the final result.
fn run_job_once(mgr: &Arc<Manager>, job: &Job, sink: &Sink, attempt: usize) -> Attempt {
    let Some(w) = workload_by_name(&job.workload) else {
        return Attempt::Fatal(format!("unknown workload {:?}", job.workload));
    };
    let w = chaos::wrap(w);
    let ckpt = job_path(&mgr.dir, &job.id, "ckpt");
    let state: Option<SearchState> = if ckpt.exists() {
        match load_state_with_rollback(&ckpt) {
            Ok((s, note)) => {
                if let Some(note) = note {
                    let mut obj = event("rollback", &job.id);
                    obj.insert("message", note);
                    sink.emit(&Value::Object(obj).to_string());
                }
                Some(s)
            }
            Err(e) => return Attempt::Fatal(e),
        }
    } else {
        None
    };
    let deadline = job_deadline(job.deadline_s, mgr.deadline);
    let started = Instant::now();
    let mut obs = ServeObserver {
        id: job.id.clone(),
        sink: sink.clone(),
    };
    let mut search = match &state {
        Some(s) => Search::resume(w.as_ref(), s),
        None => Search::from_spec(w.as_ref(), job.spec.clone()),
    }
    .observer(&mut obs)
    .quarantine(mgr.quarantine.clone());
    while let StepStatus::Advanced { gen } = search.step() {
        if (gen + 1) % mgr.every == 0 {
            write_checkpoint(&ckpt, &search.checkpoint());
        }
        // Chaos worker panics fire at the step boundary, after any due
        // checkpoint — caught by the supervisor, retried from that
        // checkpoint (see `gevo_bench::chaos`).
        chaos::maybe_worker_panic(search.eval_stats().evals);
        if mgr.shutting_down() {
            write_checkpoint(&ckpt, &search.checkpoint());
            let mut obj = event("suspended", &job.id);
            obj.insert("gen", gen + 1);
            sink.emit(&Value::Object(obj).to_string());
            return Attempt::Suspended;
        }
        if let Some(limit) = deadline {
            if started.elapsed() > limit {
                write_checkpoint(&ckpt, &search.checkpoint());
                return Attempt::Failed(format!(
                    "deadline {}s exceeded at generation {}",
                    limit.as_secs(),
                    gen + 1
                ));
            }
        }
    }
    let stats = search.eval_stats();
    let result = search.into_result();
    let done = job_path(&mgr.dir, &job.id, "done");
    write_atomic(&done, &result.to_json().to_string());
    let mut obj = event("done", &job.id);
    obj.insert("speedup", result.speedup);
    obj.insert("result", done.display().to_string());
    obj.insert("attempts", attempt as u64);
    obj.insert("evals", stats.evals as u64);
    obj.insert("faults", stats.faults.to_json());
    sink.emit(&Value::Object(obj).to_string());
    Attempt::Done
}

/// The supervisor: runs attempts under `catch_unwind`, emits `failed`
/// events, and retries from the last checkpoint with exponential
/// backoff until the policy is exhausted.
fn run_job(mgr: &Arc<Manager>, job: &Job, sink: &Sink) {
    let policy = mgr.policy;
    let mut attempt = 0;
    loop {
        attempt += 1;
        mgr.set_state(&job.id, "running");
        mgr.set_attempts(&job.id, attempt);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job_once(mgr, job, sink, attempt)
        }));
        let error = match outcome {
            Ok(Attempt::Done) => {
                mgr.set_state(&job.id, "done");
                return;
            }
            Ok(Attempt::Suspended) => {
                mgr.set_state(&job.id, "suspended");
                return;
            }
            Ok(Attempt::Fatal(msg)) => {
                let mut obj = event("error", &job.id);
                obj.insert("message", msg);
                sink.emit(&Value::Object(obj).to_string());
                mgr.set_state(&job.id, "error");
                return;
            }
            Ok(Attempt::Failed(msg)) => msg,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                format!("panic: {msg}")
            }
        };
        let mut obj = event("failed", &job.id);
        obj.insert("attempt", attempt as u64);
        obj.insert("error", error.clone());
        sink.emit(&Value::Object(obj).to_string());
        if attempt > policy.retries {
            let mut obj = event("error", &job.id);
            obj.insert(
                "message",
                format!("giving up after {attempt} attempts: {error}"),
            );
            sink.emit(&Value::Object(obj).to_string());
            mgr.set_state(&job.id, "error");
            return;
        }
        std::thread::sleep(policy.backoff(attempt));
    }
}

/// Accepts a job (persist + queue + spawn worker). `recovered` marks
/// jobs re-queued by the startup scan.
fn accept_job(mgr: &Arc<Manager>, job: Job, sink: &Sink, recovered: bool) {
    if job_path(&mgr.dir, &job.id, "done").exists() {
        // Idempotent: the job already completed in a previous life.
        let mut obj = event("done", &job.id);
        obj.insert("speedup", Value::Null);
        obj.insert(
            "result",
            job_path(&mgr.dir, &job.id, "done").display().to_string(),
        );
        sink.emit(&Value::Object(obj).to_string());
        mgr.set_state(&job.id, "done");
        return;
    }
    if !recovered {
        write_atomic(
            &job_path(&mgr.dir, &job.id, "job"),
            &job.to_json().to_string(),
        );
    }
    mgr.set_state(&job.id, "queued");
    let mut obj = event("accepted", &job.id);
    obj.insert("recovered", recovered);
    sink.emit(&Value::Object(obj).to_string());
    let mgr = Arc::clone(mgr);
    let sink = sink.clone();
    std::thread::spawn(move || run_job(&mgr, &job, &sink));
}

/// Builds the resolved job from a submit op: either an explicit
/// `"spec"` object, or the shorthand pop/gens/seed/deadline_s fields
/// over scaled defaults (threads pinned to 1 — determinism before
/// latency for durable jobs).
///
/// Absent shorthand fields default; **present-but-malformed fields are
/// errors**, one per field, so a typo'd `"pop":"32"` is rejected
/// loudly instead of silently running at the default budget. So are
/// the removed island fields `islands` and `migration`: an old client
/// asking for islands is refused rather than given a different search.
fn job_from_submit(v: &Value) -> Result<Job, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut field_u64 = |name: &str, default: u64| -> u64 {
        match v.get(name) {
            None | Some(Value::Null) => default,
            Some(val) => val.as_u64().unwrap_or_else(|| {
                errors.push(format!(
                    "submit: field {name:?} must be a non-negative integer, got {val}"
                ));
                default
            }),
        }
    };
    let pop = field_u64("pop", 8);
    let gens = field_u64("gens", 6);
    let seed = field_u64("seed", 1);
    for name in ["islands", "migration"] {
        if v.get(name).is_some() {
            errors.push(format!(
                "submit: field {name:?} is no longer supported (the island model was removed)"
            ));
        }
    }
    let deadline_s = match v.get("deadline_s") {
        None | Some(Value::Null) => None,
        Some(val) => {
            let parsed = val.as_u64();
            if parsed.is_none() {
                errors.push(format!(
                    "submit: field \"deadline_s\" must be a non-negative integer, got {val}"
                ));
            }
            parsed
        }
    };
    let id = match v.get("id").and_then(Value::as_str) {
        Some(id)
            if !id.is_empty()
                && id
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') =>
        {
            id.to_string()
        }
        Some(id) => {
            errors.push(format!(
                "submit: id {id:?} must be non-empty [A-Za-z0-9_-] (it names state files)"
            ));
            String::new()
        }
        None => {
            errors.push("submit: missing id".to_string());
            String::new()
        }
    };
    let workload = match v.get("workload").and_then(Value::as_str) {
        Some(w) => w.to_string(),
        None => {
            errors.push("submit: missing workload".to_string());
            String::new()
        }
    };
    let spec = if let Some(s) = v.get("spec") {
        match SearchSpec::from_json(s) {
            Ok(spec) => spec,
            Err(e) => {
                errors.push(format!("submit: bad spec: {e}"));
                SearchSpec::default()
            }
        }
    } else {
        let clamp = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
        SearchSpec {
            ga: GaConfig {
                population: clamp(pop),
                generations: clamp(gens),
                seed,
                threads: 1,
                ..GaConfig::scaled()
            },
            ..SearchSpec::default()
        }
    };
    if errors.is_empty() {
        Ok(Job {
            id,
            workload,
            spec,
            deadline_s,
        })
    } else {
        Err(errors)
    }
}

/// Handles one op line; returns `true` when the server should shut
/// down.
fn handle_line(mgr: &Arc<Manager>, line: &str, sink: &Sink) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    let v = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            let mut obj = event("error", "");
            obj.insert("message", format!("bad JSON: {e}"));
            sink.emit(&Value::Object(obj).to_string());
            return false;
        }
    };
    match v.get("op").and_then(Value::as_str).unwrap_or("") {
        "submit" => match job_from_submit(&v) {
            Ok(job) => accept_job(mgr, job, sink, false),
            Err(messages) => {
                let id = v.get("id").and_then(Value::as_str).unwrap_or("");
                for msg in messages {
                    let mut obj = event("error", id);
                    obj.insert("message", msg);
                    sink.emit(&Value::Object(obj).to_string());
                }
            }
        },
        "status" => sink.emit(&mgr.status_line()),
        "shutdown" => {
            // Graceful: every in-flight job checkpoints and suspends at
            // its next step boundary; the main/TCP path then drains and
            // exits. The next start resumes the suspended jobs.
            mgr.begin_shutdown();
            return true;
        }
        _ => {
            let mut obj = event("error", "");
            obj.insert("message", format!("unknown op in {line:?}"));
            sink.emit(&Value::Object(obj).to_string());
        }
    }
    false
}

/// Startup recovery: re-queue every `<id>.job.json` without a matching
/// `<id>.done.json`, in lexicographic id order.
fn recover(mgr: &Arc<Manager>, sink: &Sink) {
    let Ok(entries) = std::fs::read_dir(&mgr.dir) else {
        return;
    };
    let mut job_files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".job.json"))
        })
        .collect();
    job_files.sort();
    for path in job_files {
        let job = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
            .and_then(|v| Job::from_json(&v));
        match job {
            Ok(job) => accept_job(mgr, job, sink, true),
            Err(e) => {
                let mut obj = event("error", "");
                obj.insert(
                    "message",
                    format!("unreadable job file {}: {e}", path.display()),
                );
                sink.emit(&Value::Object(obj).to_string());
            }
        }
    }
}

fn main() {
    let Some(dir) = arg_value("--state-dir").map(PathBuf::from) else {
        eprintln!("usage: gevo-serve --state-dir DIR [--listen ADDR] [--exit-when-idle]");
        std::process::exit(2);
    };
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("cannot create state dir {}: {e}", dir.display());
        std::process::exit(2);
    });
    let exit_when_idle = std::env::args().any(|a| a == "--exit-when-idle");
    // Numeric knobs are parsed once, before any job is recovered or
    // read: a malformed value, or a `GEVO_*` name that is not a knob,
    // panics here, naming the variable.
    check_knobs();
    let mgr = Arc::new(Manager {
        dir,
        every: env_usize("GEVO_CHECKPOINT_EVERY", 5).max(1),
        policy: RetryPolicy::from_env(),
        deadline: deadline_from_env(),
        quarantine: quarantine_knob(),
        jobs: Mutex::new(BTreeMap::new()),
        idle: Condvar::new(),
        shutting_down: AtomicBool::new(false),
    });

    // Printer thread owns stdout; every stdin-submitted or recovered
    // job's events flow through it, one line each.
    let (tx, rx) = mpsc::channel::<String>();
    let printer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        for line in rx {
            let mut out = stdout.lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    });
    let stdout_sink = Sink::Stdout(tx);

    recover(&mgr, &stdout_sink);

    if let Some(addr) = arg_value("--listen") {
        let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
            eprintln!("cannot listen on {addr}: {e}");
            std::process::exit(2);
        });
        let mgr = Arc::clone(&mgr);
        std::thread::spawn(move || {
            for stream in listener.incoming().filter_map(Result::ok) {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    let reader =
                        std::io::BufReader::new(stream.try_clone().expect("tcp stream clones"));
                    let sink = Sink::Socket(Arc::new(Mutex::new(stream)));
                    for line in reader.lines().map_while(Result::ok) {
                        if handle_line(&mgr, &line, &sink) {
                            // Shutdown over TCP: wait for every worker
                            // to suspend or finish, then exit.
                            mgr.wait_idle();
                            std::process::exit(0);
                        }
                    }
                });
            }
        });
    }

    let stdin = std::io::stdin();
    for line in stdin.lock().lines().map_while(Result::ok) {
        if handle_line(&mgr, &line, &stdout_sink) {
            break; // shutdown op: stop accepting, drain below.
        }
    }

    if exit_when_idle {
        mgr.wait_idle();
        drop(stdout_sink);
        let _ = printer.join();
        std::process::exit(0);
    }
    // Without --exit-when-idle, stdin EOF (or the shutdown op) still
    // drains in-flight work — to completion normally, to a suspended
    // checkpoint under shutdown — before exiting (a TCP listener, if
    // any, dies with the process).
    mgr.wait_idle();
    drop(stdout_sink);
    let _ = printer.join();
}
