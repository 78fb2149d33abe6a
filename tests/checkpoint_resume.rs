//! The checkpoint/resume bit-identity contract, pinned on real Table-1
//! workloads.
//!
//! Acceptance bar (ISSUE 6): checkpoint at generation k, serialize the
//! [`SearchState`] to JSON, reload, resume — and the remaining
//! trajectory is **bit-identical** to the uninterrupted run: the same
//! [`SearchResult`] (compared as serialized bytes, the strictest form),
//! and the same observer event stream from generation k onward. Pinned
//! for k ∈ {1, mid, last−1}, on ADEPT-V0 and `SIMCoV`, scalar and
//! NSGA-II multi-objective.

mod common;

use common::{crc32, tiny};
use gevo_repro::engine::StepStatus;
use gevo_repro::prelude::*;

/// Records the observer stream as comparable strings (serialized
/// records/events, so the comparison is as strict as the result one).
#[derive(Default)]
struct RecordingObserver {
    events: Vec<String>,
}

impl SearchObserver for RecordingObserver {
    fn on_generation(&mut self, record: &gevo_repro::engine::GenerationRecord) {
        self.events.push(format!("gen {}", record.to_json()));
    }
}

/// Builds the session under test from a spec (fresh each call so the
/// straight and resumed runs share nothing in-process).
fn session<'a>(w: &'a dyn Workload, spec: &SearchSpec) -> Search<'a> {
    Search::from_spec(w, spec.clone())
}

/// The uninterrupted run: full result bytes + full event stream.
fn straight(w: &dyn Workload, spec: &SearchSpec) -> (String, Vec<String>) {
    let mut obs = RecordingObserver::default();
    let result = session(w, spec).observer(&mut obs).run();
    (result.to_json().to_string(), obs.events)
}

/// Checkpoint at generation k (through a JSON round-trip — the same
/// path a checkpoint file takes), resume, finish. Returns the resumed
/// result bytes and the events from generation k onward.
fn interrupted(w: &dyn Workload, spec: &SearchSpec, k: usize) -> (String, Vec<String>) {
    let state_json = {
        let mut search = session(w, spec);
        for _ in 0..k {
            assert!(matches!(search.step(), StepStatus::Advanced { .. }));
        }
        let state = search.checkpoint();
        assert_eq!(state.gen, k, "checkpoint records the next generation");
        state.to_json().to_string()
        // The first session is dropped here — nothing in-process
        // survives except the serialized bytes, like a killed process.
    };
    let parsed = serde_json::from_str(&state_json).expect("checkpoint JSON parses");
    let state = SearchState::from_json(&parsed).expect("checkpoint JSON decodes");
    let mut obs = RecordingObserver::default();
    let result = Search::resume(w, &state).observer(&mut obs).run();
    (result.to_json().to_string(), obs.events)
}

/// Asserts bit-identity for every required interruption point; returns
/// the uninterrupted run's result bytes.
fn assert_resume_is_bit_identical(w: &dyn Workload, spec: &SearchSpec) -> String {
    let gens = spec.ga.generations;
    let (want_bytes, want_events) = straight(w, spec);
    for k in [1, gens / 2, gens - 1] {
        let (got_bytes, got_events) = interrupted(w, spec, k);
        assert_eq!(
            got_bytes, want_bytes,
            "resumed SearchResult diverged (k = {k})"
        );
        assert_eq!(
            got_events.as_slice(),
            &want_events[want_events.len() - got_events.len()..],
            "resumed observer stream diverged (k = {k})"
        );
        // The resumed stream picks up exactly at generation k: its first
        // event is the straight run's first event at generation >= k.
        let replayed = want_events
            .iter()
            .filter(|e| !got_events.contains(e))
            .count();
        assert_eq!(
            replayed + got_events.len(),
            want_events.len(),
            "resume must not replay pre-checkpoint events (k = {k})"
        );
    }
    want_bytes
}

/// Pinned to the straight run's fingerprint as well as to itself
/// across resume.
#[test]
fn adept_v0_single_population_resumes_bit_identically() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let spec = SearchSpec {
        ga: tiny(3, 12, 8),
        ..SearchSpec::default()
    };
    let bytes = assert_resume_is_bit_identical(&w, &spec);
    assert_eq!(crc32(bytes.as_bytes()), 0x7C75_9F2D);
}

#[test]
fn simcov_single_population_resumes_bit_identically() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let spec = SearchSpec {
        ga: tiny(7, 8, 6),
        ..SearchSpec::default()
    };
    assert_resume_is_bit_identical(&w, &spec);
}

/// NSGA-II multi-objective mode: the Pareto archive (points + dedup
/// set) crosses the boundary, and the final front ordering is
/// deterministic — sorted by (gen, slot) provenance.
#[test]
fn nsga2_pareto_front_is_identical_and_provenance_ordered_across_resume() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let spec = SearchSpec {
        ga: tiny(4, 16, 10),
        objectives: vec![Objective::Cycles, Objective::MemoryTraffic],
        selection: Selection::Nsga2,
    };
    assert_resume_is_bit_identical(&w, &spec);

    let result = session(&w, &spec).run();
    assert!(result.pareto.len() >= 2, "front actually exercised");
    let provenance: Vec<(usize, usize)> = result.pareto.iter().map(|p| (p.gen, p.slot)).collect();
    let mut sorted = provenance.clone();
    sorted.sort_unstable();
    assert_eq!(
        provenance, sorted,
        "pareto front must be provenance-ordered"
    );
}

/// Resuming against the wrong workload is refused loudly.
#[test]
#[should_panic(expected = "different workload")]
fn resume_refuses_a_mismatching_workload() {
    let adept = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let simcov = SimcovWorkload::new(SimcovConfig::scaled());
    let spec = SearchSpec {
        ga: tiny(1, 8, 4),
        ..SearchSpec::default()
    };
    let mut search = session(&adept, &spec);
    search.step();
    let state = search.checkpoint();
    let _ = Search::resume(&simcov, &state);
}
