//! Fixed-seed trajectory pins for the optimizing lowering pipeline.
//!
//! The library lowers every variant at `O2`. The pins below are the
//! CRC-32s of the `SearchResult` JSON and of the generation-3
//! checkpoint JSON, plus the evaluator's work counters, recorded by the
//! same configuration running under the unoptimized `O0` lowering. An
//! `O2` run reproducing them proves the passes change wall-clock only,
//! never a trajectory or a checkpoint byte.

use gevo_bench::checkpoint::crc32;
use gevo_bench::{adept_on, scaled_table1_specs, simcov_on};
use gevo_engine::{GaConfig, Search, SearchSpec, StepStatus, Workload};
use gevo_workloads::adept::Version;

/// The shared fixed-seed budget: small enough for CI, long enough to
/// exercise mutation chains and cache reuse.
fn pinned_spec() -> SearchSpec {
    SearchSpec {
        ga: GaConfig {
            population: 8,
            generations: 6,
            seed: 7,
            threads: 1,
            ..GaConfig::scaled()
        },
        ..SearchSpec::default()
    }
}

/// Values the `O0` lowering produced for [`pinned_spec`] on P100.
///
/// The CRCs are of format 4. They are the bytes `O0` recorded with
/// only the keys format 4 dropped removed: the result's `"islands"`,
/// the checkpoint's top-level `"baseline"` and evaluator `"eval_seed"`,
/// and every `"island"` and `"migrations"` key (the checkpoint also
/// says `"format":4`). The format-3 bytes had result CRCs `0x1AF3_8E76`
/// and `0x4C98_C1ED` and checkpoint CRCs `0xED3F_3953` and
/// `0xC7B4_0D2F`; format 3 held the one population at the top level.
/// The same states at format 2 (a one-element `"islands"` list, a migration
/// RNG and the island fields of the spec) had checkpoint CRCs
/// `0x461B_B44D` and `0x935E_38BD`. Deleting each failing outcome's
/// `"fault"` field from those and writing `"format":1` back gives the
/// format-1 bytes `O0` recorded (CRCs `0xCBB0_0A68` and `0xA972_FB34`).
struct Pin {
    name: &'static str,
    result_crc: u32,
    ckpt_crc: u32,
    evals: usize,
    cache_hits: usize,
    instructions: u64,
}

const PINS: [Pin; 2] = [
    Pin {
        name: "adept-v0",
        result_crc: 0x6A80_8C4C,
        ckpt_crc: 0x6AFC_E9A9,
        evals: 27,
        cache_hits: 18,
        instructions: 24_340_207,
    },
    Pin {
        name: "simcov",
        result_crc: 0x4F70_EFCC,
        ckpt_crc: 0x4FDC_2080,
        evals: 30,
        cache_hits: 19,
        instructions: 2_761_194,
    },
];

/// Runs the full search, checkpointing after `ckpt_gen` generations.
/// Returns `(result_json, checkpoint_json, eval_stats)`.
fn run_with_checkpoint(
    w: &dyn Workload,
    spec: &SearchSpec,
    ckpt_gen: usize,
) -> (String, String, gevo_engine::EvalStats) {
    let mut search = Search::from_spec(w, spec.clone());
    let mut ckpt = None;
    while let StepStatus::Advanced { gen } = search.step() {
        if gen + 1 == ckpt_gen {
            ckpt = Some(search.checkpoint().to_json().to_string());
        }
    }
    let stats = search.eval_stats();
    let ckpt = ckpt.expect("checkpoint generation inside the budget");
    (search.into_result().to_json().to_string(), ckpt, stats)
}

/// Resumes from a checkpoint JSON and drives the rest of the run.
fn resume_and_finish(w: &dyn Workload, ckpt_json: &str) -> String {
    let value = serde_json::from_str(ckpt_json).expect("checkpoint is valid JSON");
    let state = gevo_engine::SearchState::from_json(&value).expect("checkpoint decodes");
    let mut search = Search::resume(w, &state);
    while matches!(search.step(), StepStatus::Advanced { .. }) {}
    search.into_result().to_json().to_string()
}

#[test]
fn o2_preserves_fixed_seed_trajectories_and_checkpoints() {
    let spec = pinned_spec();
    let p100 = &scaled_table1_specs()[0];

    for pin in &PINS {
        let name = pin.name;
        let w: Box<dyn Workload> = match name {
            "adept-v0" => Box::new(adept_on(Version::V0, p100)),
            _ => Box::new(simcov_on(p100)),
        };
        let (r, c, s) = run_with_checkpoint(w.as_ref(), &spec, 3);

        assert_eq!(
            crc32(r.as_bytes()),
            pin.result_crc,
            "{name}: O2 changed the fixed-seed search result"
        );
        // Checkpoints never embed pass facts, so they are byte-stable
        // whatever the lowering level.
        assert_eq!(
            crc32(c.as_bytes()),
            pin.ckpt_crc,
            "{name}: checkpoint bytes changed"
        );
        assert_eq!(s.evals, pin.evals, "{name}: eval count changed");
        assert_eq!(s.cache_hits, pin.cache_hits, "{name}: cache hits changed");
        assert_eq!(
            s.instructions, pin.instructions,
            "{name}: simulated instruction count changed"
        );

        // The passes actually fire on the paper's workloads.
        assert!(s.lowered_insts > 0, "{name}: no code lowered");
        assert!(
            s.uniform_insts > 0,
            "{name}: no warp-uniform instructions found"
        );
        assert!(
            s.scalarized_fraction() > 0.0,
            "{name}: scalarized fraction empty"
        );

        // Resuming the generation-3 checkpoint lands on the same result.
        assert_eq!(
            crc32(resume_and_finish(w.as_ref(), &c).as_bytes()),
            pin.result_crc,
            "{name}: resumed run diverges"
        );
    }
}
