//! Property-based tests over the whole stack: random edit sequences must
//! never break the engine's invariants — the exact robustness the GA
//! relies on when it explores millions of variants.

use gevo_repro::prelude::*;
use gevo_repro::{engine, ir};
use proptest::prelude::*;

/// Deterministically samples `n` edits using the engine's own mutation
/// space (the distribution the GA actually explores).
fn sample_patch(w: &dyn Workload, seed: u64, n: usize) -> Patch {
    use rand::SeedableRng;
    let space = engine::MutationSpace::new(w.kernels(), engine::MutationWeights::default());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut p = Patch::empty();
    for _ in 0..n {
        space.mutate(&mut p, &mut rng);
    }
    p
}

proptest! {
    // Pinned case count AND case-generation seed: tier-1 CI must draw
    // the exact same 24 cases on every run (no flake, reproducible
    // failures). `with_rng_seed` is provided by the vendored proptest
    // shim (vendor/proptest); see vendor/README.md.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x6E50_1994))]

    /// Any random patch applies without panicking, and the patched
    /// kernels either verify or are cleanly rejected.
    #[test]
    fn random_patches_never_panic(seed in 0u64..10_000, n in 1usize..24) {
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
        let p = sample_patch(&w, seed, n);
        let (kernels, applied) = p.apply(w.kernels());
        prop_assert!(applied <= p.len());
        for k in &kernels {
            // Either verifies or fails verification with an error value —
            // both acceptable; panics are not.
            let _ = ir::verify::verify(k);
        }
    }

    /// Evaluating any random variant terminates with a value (pass or
    /// fail), never a hang or panic — the step limit and typed errors at
    /// work.
    #[test]
    fn random_variants_evaluate_to_outcomes(seed in 0u64..2_000, n in 1usize..12) {
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
        let p = sample_patch(&w, seed, n);
        let ev = Evaluator::new(&w);
        let out = ev.evaluate(&p);
        if let Some(f) = out.fitness {
            prop_assert!(f.is_finite() && f > 0.0);
        } else {
            prop_assert!(out.failure.is_some());
        }
    }

    /// Subset semantics: dropping edits from a patch yields patches that
    /// still apply cleanly (the foundation of Algorithms 1/2).
    #[test]
    fn subsets_always_apply(seed in 0u64..2_000, n in 2usize..10, keep_mask in 0u32..1024) {
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V1));
        let p = sample_patch(&w, seed, n);
        let keep: Vec<Edit> = p
            .edits()
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << (i % 10)) != 0)
            .map(|(_, e)| *e)
            .collect();
        let sub = p.subset(&keep);
        let (kernels, _) = sub.apply(w.kernels());
        prop_assert_eq!(kernels.len(), w.kernels().len());
    }

    /// DCE never changes the instruction-set semantics visible to the
    /// verifier: a verifying kernel still verifies after DCE.
    #[test]
    fn dce_preserves_verifiability(seed in 0u64..2_000, n in 1usize..16) {
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V1));
        let p = sample_patch(&w, seed, n);
        let (mut kernels, _) = p.apply(w.kernels());
        for k in &mut kernels {
            if ir::verify::verify(k).is_ok() {
                let _ = ir::transform::dce(k);
                prop_assert!(ir::verify::verify(k).is_ok(), "DCE broke {}", k.name);
            }
        }
    }
}

proptest! {
    // Full (tiny) GA searches per case, so fewer cases; still pinned to a
    // fixed stream for tier-1 reproducibility.
    #![proptest_config(ProptestConfig::with_cases(6).with_rng_seed(0x0151_A4D5))]

    /// The search holds its invariants for any seed, with two batch
    /// workers: one record per generation, numbered in order, a
    /// monotone best, and a speedup of at least 1.
    #[test]
    fn search_invariants_hold_per_generation(seed in 0u64..1_000) {
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
        let ga = GaConfig {
            population: 12,
            generations: 4,
            threads: 2,
            seed,
            ..GaConfig::scaled()
        };
        let res = Search::new(&w).config(ga).run();

        prop_assert_eq!(res.history.records.len(), 4);
        let mut last = f64::INFINITY;
        for (gen, r) in res.history.records.iter().enumerate() {
            prop_assert_eq!(r.gen, gen);
            prop_assert!(r.best_fitness <= last);
            last = r.best_fitness;
        }
        prop_assert_eq!(res.best.fitness, Some(last));
        prop_assert!(res.speedup >= 1.0, "baseline is always in the population");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x5E2D_E001))]

    /// `SearchSpec` JSON round-trips exactly for arbitrary knob
    /// settings (part of the checkpoint/resume contract:
    /// whatever a harness logs, a later session can reload verbatim).
    #[test]
    fn search_spec_json_round_trips(
        population in 1usize..512,
        elitism in 0usize..16,
        crossover_milli in 0u32..1_000,
        mutation_milli in 0u32..1_000,
        generations in 1usize..100,
        tournament in 1usize..8,
        seed in 0u64..u64::MAX,
        threads in 1usize..8,
        max_patch_len in 1usize..64,
        obj_mask in 1usize..16,
    ) {
        let all = [
            Objective::Cycles,
            Objective::Error,
            Objective::Instructions,
            Objective::MemoryTraffic,
        ];
        let objectives: Vec<Objective> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| obj_mask & (1 << i) != 0)
            .map(|(_, o)| *o)
            .collect();
        let spec = SearchSpec {
            ga: GaConfig {
                population,
                elitism,
                crossover_p: f64::from(crossover_milli) / 1_000.0,
                mutation_p: f64::from(mutation_milli) / 1_000.0,
                generations,
                tournament,
                seed,
                threads,
                max_patch_len,
            },
            selection: if objectives.len() > 1 { Selection::Nsga2 } else { Selection::Tournament },
            objectives,
        };
        let text = spec.to_json().to_string();
        let parsed = serde_json::from_str(&text).expect("self-produced JSON parses");
        let back = SearchSpec::from_json(&parsed).expect("self-produced JSON decodes");
        prop_assert_eq!(&back, &spec);
        // Canonical bytes: re-serializing the decoded spec is identity.
        prop_assert_eq!(back.to_json().to_string(), text);
    }
}

proptest! {
    // Each case checkpoints a real (tiny) search mid-run, so the states
    // carry genuine populations, caches, rankings and RNG positions.
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0x57A7_E0F5))]

    /// `SearchState` JSON round-trips exactly for checkpoints captured
    /// from live runs, and serialization is canonical (decode → encode
    /// reproduces the same bytes).
    #[test]
    fn search_state_json_round_trips(
        seed in 0u64..1_000,
        k in 1usize..4,
        multi in 0usize..2,
    ) {
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
        let ga = GaConfig {
            population: 8,
            generations: 4,
            threads: 1,
            seed,
            ..GaConfig::scaled()
        };
        let mut search = Search::new(&w).config(ga);
        if multi == 1 {
            search = search.objectives(&[Objective::Cycles, Objective::Instructions]);
        }
        for _ in 0..k {
            search.step();
        }
        let state = search.checkpoint();
        prop_assert_eq!(state.gen, k);
        let text = state.to_json().to_string();
        let parsed = serde_json::from_str(&text).expect("self-produced JSON parses");
        let back = SearchState::from_json(&parsed).expect("self-produced JSON decodes");
        prop_assert_eq!(&back, &state);
        prop_assert_eq!(back.to_json().to_string(), text);
    }
}
