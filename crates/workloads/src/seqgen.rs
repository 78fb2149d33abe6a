//! Seeded DNA test-data generation (stand-in for the ADEPT repository's
//! 30k fitness pairs and 4.6M held-out pairs; DESIGN.md §2).
//!
//! Pairs are generated so that alignments are *interesting*: each pair
//! shares a mutated core region placed at random offsets, surrounded by
//! random flanks, so the best local alignment has non-trivial structure
//! (not just "everything matches" or "nothing matches").

use gevo_ir::rng::mix64;

/// One DNA pair (bases encoded 0..=3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqPair {
    /// First sequence ("read").
    pub a: Vec<u8>,
    /// Second sequence ("reference window").
    pub b: Vec<u8>,
}

/// Deterministic pair generator.
#[derive(Debug, Clone)]
pub struct SeqGen {
    seed: u64,
    counter: u64,
}

impl SeqGen {
    /// A generator for the given seed.
    #[must_use]
    pub fn new(seed: u64) -> SeqGen {
        SeqGen { seed, counter: 0 }
    }

    fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        mix64(self.seed, self.counter)
    }

    fn next_range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn next_base(&mut self) -> u8 {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.next_u64() & 3) as u8
        }
    }

    /// Generates one pair with lengths in `[min_len, max_len]`.
    pub fn pair(&mut self, min_len: usize, max_len: usize) -> SeqPair {
        assert!(min_len >= 8, "sequences shorter than 8 are degenerate");
        assert!(max_len >= min_len);
        let la = self.next_range(min_len, max_len + 1);
        let lb = self.next_range(min_len, max_len + 1);
        // A shared core, mutated with ~12% substitutions.
        let core_len = self
            .next_range(min_len / 2, min_len.max(la.min(lb)) + 1)
            .min(la.min(lb));
        let core: Vec<u8> = (0..core_len).map(|_| self.next_base()).collect();
        let mut a: Vec<u8> = (0..la).map(|_| self.next_base()).collect();
        let mut b: Vec<u8> = (0..lb).map(|_| self.next_base()).collect();
        let off_a = self.next_range(0, la - core_len + 1);
        let off_b = self.next_range(0, lb - core_len + 1);
        for (i, &c) in core.iter().enumerate() {
            let ca = if self.next_u64() % 100 < 12 {
                self.next_base()
            } else {
                c
            };
            a[off_a + i] = ca;
            b[off_b + i] = c;
        }
        SeqPair { a, b }
    }

    /// Generates a batch of pairs.
    pub fn pairs(&mut self, count: usize, min_len: usize, max_len: usize) -> Vec<SeqPair> {
        (0..count).map(|_| self.pair(min_len, max_len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw_cpu::smith_waterman;

    #[test]
    fn deterministic_per_seed() {
        let a = SeqGen::new(7).pairs(5, 16, 32);
        let b = SeqGen::new(7).pairs(5, 16, 32);
        let c = SeqGen::new(8).pairs(5, 16, 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lengths_respect_bounds() {
        let pairs = SeqGen::new(3).pairs(50, 16, 40);
        for p in &pairs {
            assert!((16..=40).contains(&p.a.len()));
            assert!((16..=40).contains(&p.b.len()));
        }
    }

    #[test]
    fn bases_are_two_bit() {
        let pairs = SeqGen::new(5).pairs(20, 16, 32);
        for p in &pairs {
            assert!(p.a.iter().all(|&x| x < 4));
            assert!(p.b.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn alignments_are_nontrivial() {
        // The shared core must produce meaningfully positive scores, while
        // random flanks keep them below the perfect-match ceiling.
        let pairs = SeqGen::new(11).pairs(30, 24, 48);
        let mut scores: Vec<i32> = pairs
            .iter()
            .map(|p| smith_waterman(&p.a, &p.b).score)
            .collect();
        scores.sort_unstable();
        assert!(scores[0] > 0, "every pair aligns somewhere");
        let distinct: std::collections::HashSet<i32> = scores.iter().copied().collect();
        assert!(distinct.len() > 5, "scores vary across pairs: {scores:?}");
    }
}
