//! Fixed-seed trajectory pins for the adaptive-scheduling control arm.
//!
//! `AdaptPolicy::Uniform` (the default) must be **byte-identical** to
//! the engine as it stood before the adapt subsystem existed: the same
//! RNG draws in the same order, the same populations, the same
//! histories. These pins record CRC-32 fingerprints of whole
//! `SearchResult` JSON bodies captured on the pre-adapt engine; any
//! accidental RNG consumption or population reordering introduced by
//! the scheduler plumbing flips a fingerprint.

mod common;

use common::{crc32, tiny};
use gevo_repro::prelude::*;

fn fingerprint(w: &dyn Workload, spec: &SearchSpec) -> (u32, usize) {
    let res = Search::from_spec(w, spec.clone()).run();
    (crc32(res.to_json().to_string().as_bytes()), res.evals)
}

#[test]
fn uniform_policy_pins_pre_adapt_trajectory_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let spec = SearchSpec {
        ga: tiny(3, 12, 6),
        ..SearchSpec::default()
    };
    let (crc, evals) = fingerprint(&w, &spec);
    assert_eq!(
        (crc, evals),
        (0x2E18_31A6, 48),
        "Uniform trajectory drifted from the pre-adapt engine"
    );
}

#[test]
fn uniform_policy_pins_pre_adapt_trajectory_on_adept_v0_islands() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let spec = SearchSpec {
        ga: tiny(2, 16, 6),
        islands: 4,
        migration_interval: 2,
        ..SearchSpec::default()
    };
    let (crc, evals) = fingerprint(&w, &spec);
    assert_eq!(
        (crc, evals),
        (0xB768_98CB, 67),
        "Uniform island trajectory drifted from the pre-adapt engine"
    );
}

#[test]
fn uniform_policy_pins_pre_adapt_trajectory_on_simcov() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let spec = SearchSpec {
        ga: tiny(7, 10, 4),
        ..SearchSpec::default()
    };
    let (crc, evals) = fingerprint(&w, &spec);
    assert_eq!(
        (crc, evals),
        (0x05D5_60B9, 24),
        "Uniform trajectory drifted from the pre-adapt engine"
    );
}
