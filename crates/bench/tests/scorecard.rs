//! The paper scorecard (`gevo_bench::scorecard`): every deterministic
//! paper row keeps its verdict, and EXPERIMENTS.md records the current
//! rows.

use gevo_bench::scorecard::rows;

/// The shapes the reproduction shows (`true`) and the ones it does not;
/// EXPERIMENTS.md says why each `false` row differs. Four `true` rows
/// carry, in their shape predicates, at least the thresholds that
/// `tests/integration.rs` checks directly on the library.
const VERDICTS: [(&str, bool); 12] = [
    // Curated V0 speedup ≥ 10× on every GPU (the integration test: > 5×).
    ("ADEPT-V0, P100 / 1080Ti / V100 (fig4)", true),
    ("ADEPT-V1, P100 / 1080Ti / V100 (fig4)", true),
    ("ADEPT V0 and V1: V100 gains least (fig4)", false),
    ("ADEPT-V1 hand-tuned vs V0 baseline (fig4)", false),
    ("SIMCoV, P100 / 1080Ti / V100 (fig5)", true),
    ("SIMCoV order 1080Ti > P100 > V100 (fig5)", false),
    // V100 gain > 2 % and > 3× the P100 (and 1080Ti) gain.
    ("ballot_sync removal, V100 vs P100 / 1080Ti (§VI-B)", true),
    ("V0 shared-init removal, P100 (§VI-C)", true),
    // Gain > 5 % on the fitness grid; `validate_heldout(.., 64, 3)`
    // errs (the pristine and the padded program pass it).
    ("boundary-check removal, P100 (§VI-D)", true),
    ("border padding, P100 (§VI-D)", true),
    ("dead-write row-buffer effect (§VI-E)", true),
    ("P100-evolved ADEPT-V0 on V100 (§IV)", true),
];

#[test]
fn paper_rows_keep_their_verdicts_and_recorded_cells() {
    let rows = rows();
    let verdicts: Vec<(&str, bool)> = rows.iter().map(|r| (r.experiment, r.holds)).collect();
    assert_eq!(
        verdicts, VERDICTS,
        "one row per claim, in order, verdicts kept"
    );

    // The recorded cells are the current ones.
    let doc = include_str!("../../../EXPERIMENTS.md");
    for line in rows.iter().map(|r| r.markdown()) {
        assert!(
            doc.lines().any(|l| l.starts_with(&line)),
            "EXPERIMENTS.md lacks the current row (rerun the scorecard bin):\n{line}"
        );
    }
}
