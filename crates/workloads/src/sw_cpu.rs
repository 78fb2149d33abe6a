//! CPU reference Smith-Waterman (the validation oracle for ADEPT).
//!
//! Scoring follows the paper's Figure 2 exactly: match +2, mismatch −2,
//! gap −1 (linear). The GPU kernels must reproduce these results *bit
//! for bit* — the paper requires 100% accuracy for sequence alignment
//! (§III-C), so validation is strict equality on (score, end position,
//! start position).

/// Scoring constants shared by the CPU oracle and the GPU kernels
/// (paper Fig. 2).
pub mod score {
    /// Added when the two bases match.
    pub const MATCH: i32 = 2;
    /// Added when they differ.
    pub const MISMATCH: i32 = -2;
    /// Linear gap penalty per base.
    pub const GAP: i32 = -1;
}

/// The result of aligning one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alignment {
    /// Best local-alignment score.
    pub score: i32,
    /// Row (position in `a`) of the best-scoring cell, 0-based; −1 when
    /// no positive-scoring alignment exists.
    pub end_a: i32,
    /// Column (position in `b`) of the best-scoring cell, 0-based.
    pub end_b: i32,
}

/// Smith-Waterman forward pass: best score and its end position.
///
/// Tie-break: lexicographically smallest (row, column) — the same
/// deterministic rule the GPU kernels implement in their final reduction.
#[must_use]
pub fn smith_waterman(a: &[u8], b: &[u8]) -> Alignment {
    use score::{GAP, MATCH, MISMATCH};
    let m = a.len();
    let n = b.len();
    let mut h_prev = vec![0i32; n + 1];
    let mut best = Alignment {
        score: 0,
        end_a: -1,
        end_b: -1,
    };
    for i in 0..m {
        let mut h_row = vec![0i32; n + 1];
        for j in 0..n {
            let s = if a[i] == b[j] { MATCH } else { MISMATCH };
            let h = 0
                .max(h_prev[j] + s) // diagonal
                .max(h_row[j] + GAP) // gap: left
                .max(h_prev[j + 1] + GAP); // gap: up
            h_row[j + 1] = h;
            #[allow(clippy::cast_possible_wrap)]
            if h > best.score {
                best = Alignment {
                    score: h,
                    end_a: i as i32,
                    end_b: j as i32,
                };
            }
        }
        h_prev = h_row;
    }
    best
}

/// The reverse pass ADEPT's second kernel performs: align the reversed
/// prefixes ending at the forward pass's end position; the end position
/// of *that* alignment gives the start of the original alignment.
#[must_use]
pub fn smith_waterman_reverse(a: &[u8], b: &[u8], fwd: Alignment) -> Alignment {
    if fwd.end_a < 0 || fwd.end_b < 0 {
        return Alignment {
            score: 0,
            end_a: -1,
            end_b: -1,
        };
    }
    #[allow(clippy::cast_sign_loss)]
    let (ea, eb) = (fwd.end_a as usize, fwd.end_b as usize);
    let ra: Vec<u8> = a[..=ea].iter().rev().copied().collect();
    let rb: Vec<u8> = b[..=eb].iter().rev().copied().collect();
    smith_waterman(&ra, &rb)
}

/// Start positions recovered from the reverse alignment.
#[must_use]
pub fn start_positions(fwd: Alignment, rev: Alignment) -> (i32, i32) {
    if fwd.end_a < 0 || rev.end_a < 0 {
        return (-1, -1);
    }
    (fwd.end_a - rev.end_a, fwd.end_b - rev.end_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Vec<u8> {
        s.bytes().collect()
    }

    #[test]
    fn identical_sequences_score_full_match() {
        let a = seq("ACGTACGT");
        let r = smith_waterman(&a, &a);
        assert_eq!(r.score, 8 * score::MATCH);
        assert_eq!(r.end_a, 7);
        assert_eq!(r.end_b, 7);
    }

    #[test]
    fn paper_figure2_example() {
        // The paper's running example: ATGCT vs AGCT aligns as
        // ATGCT / A-GCT with a final score of 7 (Fig. 2(c)).
        let a = seq("ATGCT");
        let b = seq("AGCT");
        let r = smith_waterman(&a, &b);
        assert_eq!(r.score, 7, "paper Fig. 2 bottom-right cell");
        assert_eq!(r.end_a, 4);
        assert_eq!(r.end_b, 3);
    }

    #[test]
    fn disjoint_sequences_have_zero_score() {
        let a = seq("AAAAAAA");
        let b = seq("TTTTTTT");
        let r = smith_waterman(&a, &b);
        assert_eq!(r.score, 0, "no positive-scoring local alignment");
        assert_eq!(r.end_a, -1);
    }

    #[test]
    fn local_alignment_ignores_flanks() {
        // The common core GATTACA aligns despite junk around it.
        let a = seq("TTTTGATTACA");
        let b = seq("CCGATTACACC");
        let r = smith_waterman(&a, &b);
        assert_eq!(r.score, 7 * score::MATCH);
        assert_eq!(r.end_a, 10);
        assert_eq!(r.end_b, 8);
    }

    #[test]
    fn gap_bridges_when_worth_it() {
        // ACGT-like core with one skipped base in `a`.
        let a = seq("ACXGT");
        let b = seq("ACGT");
        let r = smith_waterman(&a, &b);
        // 4 matches (+8), one gap (−1) = 7 beats split alignments (4).
        assert_eq!(r.score, 7);
    }

    #[test]
    fn tie_break_prefers_earliest_cell() {
        // Two identical maxima: AB appears twice in `a`.
        let a = seq("ABXAB");
        let b = seq("AB");
        let r = smith_waterman(&a, &b);
        assert_eq!(r.score, 2 * score::MATCH);
        assert_eq!(r.end_a, 1, "first occurrence wins the tie");
    }

    #[test]
    fn reverse_pass_recovers_start() {
        let a = seq("TTTTGATTACA");
        let b = seq("CCGATTACACC");
        let fwd = smith_waterman(&a, &b);
        let rev = smith_waterman_reverse(&a, &b, fwd);
        assert_eq!(rev.score, fwd.score, "same alignment, reversed");
        let (sa, sb) = start_positions(fwd, rev);
        assert_eq!(sa, 4, "GATTACA starts at a[4]");
        assert_eq!(sb, 2, "and at b[2]");
    }

    #[test]
    fn empty_inputs() {
        let r = smith_waterman(&[], &seq("ACGT"));
        assert_eq!(r.score, 0);
        let r = smith_waterman(&seq("ACGT"), &[]);
        assert_eq!(r.score, 0);
        let rev = smith_waterman_reverse(&[], &[], r);
        assert_eq!(rev.end_a, -1);
    }

    /// Brute-force checker: enumerate all substrings pairs on tiny inputs.
    #[test]
    fn matches_brute_force_on_small_inputs() {
        fn brute(a: &[u8], b: &[u8]) -> i32 {
            // Score of the best local alignment by full DP over every
            // starting pair — O(n^2 m^2), fine for tiny inputs.
            let mut best = 0;
            for sa in 0..a.len() {
                for sb in 0..b.len() {
                    // global-ish DP from (sa, sb) allowing any end.
                    let (m, n) = (a.len() - sa, b.len() - sb);
                    let mut h = vec![vec![0i32; n + 1]; m + 1];
                    for i in 1..=m {
                        h[i][0] = i32::try_from(i).unwrap() * score::GAP;
                    }
                    for j in 1..=n {
                        h[0][j] = i32::try_from(j).unwrap() * score::GAP;
                    }
                    for i in 1..=m {
                        for j in 1..=n {
                            let s = if a[sa + i - 1] == b[sb + j - 1] {
                                score::MATCH
                            } else {
                                score::MISMATCH
                            };
                            h[i][j] = (h[i - 1][j - 1] + s)
                                .max(h[i - 1][j] + score::GAP)
                                .max(h[i][j - 1] + score::GAP);
                            best = best.max(h[i][j]);
                        }
                    }
                }
            }
            best
        }
        let cases = [
            ("ACGT", "ACGT"),
            ("AACCGGTT", "ACGT"),
            ("GATTACA", "TACAGATT"),
            ("TTTT", "TTAT"),
            ("ACACAC", "CACACA"),
        ];
        for (a, b) in cases {
            let (a, b) = (seq(a), seq(b));
            assert_eq!(
                smith_waterman(&a, &b).score,
                brute(&a, &b),
                "case {a:?} vs {b:?}"
            );
        }
    }
}
