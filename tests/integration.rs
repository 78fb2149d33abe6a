//! Cross-crate integration tests: the full pipeline from IR construction
//! through simulation, evolution and analysis, exercised the way the
//! figure harnesses use it.

use gevo_repro::prelude::*;

fn quick_cfg(seed: u64, pop: usize, gens: usize) -> GaConfig {
    GaConfig {
        population: pop,
        generations: gens,
        seed,
        threads: 2,
        ..GaConfig::scaled()
    }
}

/// The paper's headline: evolution alone finds an order-of-magnitude
/// improvement on the naive ADEPT port.
#[test]
fn ga_finds_order_of_magnitude_on_adept_v0() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let result = Search::new(&w).config(quick_cfg(3, 20, 12)).run();
    assert!(
        result.speedup > 5.0,
        "GA speedup on V0 was only {:.2}x",
        result.speedup
    );
    // Held-out validation (paper §III-C): the scaled fitness batch (8
    // pairs vs the paper's 30k) under-constrains the search, so evolved
    // patches sometimes fail fresh pairs — exactly the paper's §VII
    // point that test suites define the spec and held-out tests (or the
    // developer) catch the rest. Either verdict is acceptable here; what
    // matters is that validation *detects* mismatches cleanly.
    let (patched, _) = result.best.patch.apply(w.kernels());
    let mut dced = patched;
    for k in &mut dced {
        let _ = gevo_repro::ir::transform::dce(k);
    }
    match w.validate_heldout(&dced, 16, 4242) {
        Ok(()) => {}
        Err(e) => assert!(
            e.contains("pair") || e.contains("kernel"),
            "held-out failure is a clean detection: {e}"
        ),
    }
    // The curated optimization, by contrast, is semantics-preserving and
    // must pass.
    let (curated, _) = w.curated_patch().apply(w.kernels());
    w.validate_heldout(&curated, 16, 4242)
        .expect("curated patch passes held-out pairs");
}

/// Evolution improves even the hand-tuned version (paper: 1.1x-1.33x).
#[test]
fn ga_improves_hand_tuned_adept_v1() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V1));
    let result = Search::new(&w).config(quick_cfg(1, 24, 25)).run();
    assert!(
        result.speedup > 1.03,
        "GA speedup on V1 was only {:.3}x",
        result.speedup
    );
}

/// The complete Section V pipeline on the curated V1 patch recovers the
/// paper's dependency structure.
#[test]
fn section_v_pipeline_recovers_fig7_structure() {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V1));
    let ev = Evaluator::new(&w);
    let patch = w.curated_patch();

    let min = minimize_weak_edits(&ev, &patch, 0.01);
    assert!(min.kept.len() < patch.len(), "some edits are weak");
    assert!(
        min.speedup_minimized > 1.15,
        "minimized patch keeps most of the gain: {:.3}",
        min.speedup_minimized
    );

    let split = split_independent(&ev, &min.kept, 0.01);
    assert!(!split.independent.is_empty(), "independent edits exist");
    assert!(!split.epistatic.is_empty(), "epistatic edits exist");

    let base = Patch::from_edits(split.epistatic.clone());
    let table = subset_analysis(&ev, &base, &split.epistatic);
    let graph = dependency_graph(&table);

    // The paper's signature: consumers fail alone and require the
    // enabler; at least one multi-edit subgroup exists.
    assert!(
        graph.fails_alone.iter().any(|&f| f),
        "some epistatic edits fail alone"
    );
    assert!(
        graph.requires.iter().any(|r| !r.is_empty()),
        "dependency edges exist"
    );
    assert!(
        graph.subgroups.iter().any(|g| g.len() >= 2),
        "a multi-edit epistatic subgroup exists"
    );
}

/// §IV generality: the curated patch wins on every GPU spec.
#[test]
fn curated_patches_port_across_gpus() {
    for spec in [
        gevo_repro::gpu::GpuSpec::p100(),
        gevo_repro::gpu::GpuSpec::gtx1080ti(),
        gevo_repro::gpu::GpuSpec::v100(),
    ] {
        let mut scaled = spec.scaled(8);
        scaled.device_mem_bytes = 1 << 20;
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0).with_spec(scaled));
        let ev = Evaluator::new(&w);
        let s = ev
            .speedup(&w.curated_patch())
            .expect("patch valid everywhere");
        assert!(s > 5.0, "{}: V0 curated speedup {s:.1}", spec.name);
    }
}

/// The §VI-B architecture dependence: deleting ballot_sync matters on the
/// Volta-class spec, not on Pascal.
#[test]
fn ballot_removal_is_architecture_dependent() {
    let gain_on = |spec: gevo_repro::gpu::GpuSpec| -> f64 {
        let mut scaled = spec.scaled(8);
        scaled.device_mem_bytes = 1 << 20;
        let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V1).with_spec(scaled));
        let ev = Evaluator::new(&w);
        let p = Patch::from_edits(vec![w.edit("v1:k0:del_ballot"), w.edit("v1:k1:del_ballot")]);
        ev.speedup(&p).expect("deleting ballot is safe") - 1.0
    };
    let pascal = gain_on(gevo_repro::gpu::GpuSpec::p100());
    let volta = gain_on(gevo_repro::gpu::GpuSpec::v100());
    assert!(
        volta > pascal * 3.0,
        "volta gain {volta:.4} should dwarf pascal's {pascal:.4}"
    );
    assert!(volta > 0.02, "several percent on Volta: {volta:.4}");
}

/// SIMCoV's Fig. 10 story end-to-end: removal passes small, faults large,
/// padding passes everywhere.
#[test]
fn fig10_boundary_story() {
    let w = SimcovWorkload::new(SimcovConfig::scaled());
    let boundary = Patch::from_edits(w.boundary_edits());
    let ev = Evaluator::new(&w);
    assert!(ev.speedup(&boundary).expect("valid on small grid") > 1.05);
    assert!(
        w.validate_heldout(&boundary, 64, 3).is_err(),
        "large grid faults"
    );
    let padded = SimcovWorkload::new(SimcovConfig::scaled().padded());
    padded
        .validate_heldout(&Patch::empty(), 64, 3)
        .expect("padded grid needs no checks");
}

/// Runs ADEPT-V0 twice with GA seed 11 and asserts the two results are
/// identical: best fitness and patch, speedup, full history and
/// evaluation count, down to the serialized bytes.
fn assert_reproduces(pop: usize, gens: usize) {
    let w = AdeptWorkload::new(AdeptConfig::scaled(Version::V0));
    let run = || Search::new(&w).config(quick_cfg(11, pop, gens)).run();
    let (a, b) = (run(), run());
    assert_eq!(a.best.fitness, b.best.fitness);
    assert_eq!(a.best.patch, b.best.patch);
    assert_eq!(a.speedup, b.speedup);
    assert_eq!(a.history, b.history);
    assert_eq!(a.evals, b.evals);
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
}

/// Cross-workload determinism: the same GA seed reproduces the same
/// result across the full stack.
#[test]
fn full_stack_determinism() {
    assert_reproduces(12, 6);
}

/// The search engine's one population reproduces itself in full at a
/// second population shape.
#[test]
fn island_engine_full_stack_determinism() {
    assert_reproduces(16, 5);
}
