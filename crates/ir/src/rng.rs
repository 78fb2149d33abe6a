//! Counter-based pseudo-random mixing shared between device kernels and
//! CPU reference models.
//!
//! `SIMCoV`'s fitness validation (paper §II-C2, §III-C) requires the GPU
//! simulation and its ground-truth oracle to draw *identical* random
//! streams when the seed is fixed. Both sides therefore call this one
//! function: kernels via the [`crate::Op::RngNext`] instruction (executed
//! by the simulator), oracles directly.
//!
//! The mixer is a strengthened `SplitMix64` finalizer over the pair
//! `(seed, counter)` — statistically solid for simulation purposes and,
//! critically, stateless: a thread's draw depends only on its logical
//! coordinates, never on scheduling order.
//!
//! The engine's *stateful* stream (the breeding RNG) is a `ChaCha8Rng`;
//! [`StreamState`] captures it as its `(seed, word position)` pair so a checkpoint can restore
//! the stream mid-flight and continue bit-identically.

use rand_chacha::ChaCha8Rng;

/// A serializable snapshot of a [`ChaCha8Rng`] stream: the 256-bit seed
/// plus the number of 32-bit words already consumed.
///
/// `ChaCha` output is counter-addressed, so this pair pinpoints the
/// stream exactly and [`restore`](Self::restore) is O(1) — no
/// fast-forwarding through discarded output. The invariant checkpoints
/// rely on: `StreamState::capture(&rng).restore()` yields a generator
/// whose future output is bit-identical to `rng`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamState {
    /// The seed the generator was constructed from.
    pub seed: [u8; 32],
    /// 32-bit words consumed since construction.
    pub word_pos: u64,
}

impl StreamState {
    /// Captures the current position of `rng` without perturbing it.
    ///
    /// # Panics
    /// Panics if the stream has consumed more than `u64::MAX` words
    /// (unreachable in practice: that is 2^70 bytes of output).
    #[must_use]
    pub fn capture(rng: &ChaCha8Rng) -> Self {
        StreamState {
            seed: rng.get_seed(),
            word_pos: u64::try_from(rng.get_word_pos()).expect("word position fits in u64"),
        }
    }

    /// Reconstructs the generator at the captured position.
    #[must_use]
    pub fn restore(&self) -> ChaCha8Rng {
        let mut rng = <ChaCha8Rng as rand::SeedableRng>::from_seed(self.seed);
        rng.set_word_pos(u128::from(self.word_pos));
        rng
    }

    /// Serializes to a JSON object `{"seed": "<64 hex chars>",
    /// "word_pos": <u64>}`.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut hex = String::with_capacity(64);
        for b in self.seed {
            use std::fmt::Write as _;
            write!(hex, "{b:02x}").expect("writing to String cannot fail");
        }
        let mut obj = serde_json::Map::new();
        obj.insert("seed", hex);
        obj.insert("word_pos", self.word_pos);
        serde_json::Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the malformed field.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let hex = v
            .get("seed")
            .and_then(serde_json::Value::as_str)
            .ok_or("StreamState: missing seed")?;
        if hex.len() != 64 || !hex.is_ascii() {
            return Err(format!(
                "StreamState: seed must be 64 hex chars, got {hex:?}"
            ));
        }
        let mut seed = [0u8; 32];
        for (i, b) in seed.iter_mut().enumerate() {
            *b = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
                .map_err(|e| format!("StreamState: bad seed hex: {e}"))?;
        }
        let word_pos = v
            .get("word_pos")
            .and_then(serde_json::Value::as_u64)
            .ok_or("StreamState: missing word_pos")?;
        Ok(StreamState { seed, word_pos })
    }
}

/// Mixes two 64-bit values into 64 well-scrambled bits.
#[must_use]
pub fn mix64(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(counter)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes to a non-negative `i32` (31 uniform bits) — the value produced by
/// the `rng.next` instruction.
#[must_use]
pub fn mix_to_u31(seed: i64, counter: i64) -> i32 {
    // Cast-preserving: the device op operates on i64 operands.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let bits = (mix64(seed as u64, counter as u64) >> 33) as u32;
    #[allow(clippy::cast_possible_wrap)]
    {
        (bits & 0x7FFF_FFFF) as i32
    }
}

/// A draw in `[0, 1)` derived from the same stream, used by CPU oracles
/// for probability thresholds.
#[must_use]
pub fn mix_to_unit_f64(seed: i64, counter: i64) -> f64 {
    f64::from(mix_to_u31(seed, counter)) / (f64::from(0x4000_0000i32) * 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn stream_state_restores_midflight() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
        for _ in 0..23 {
            rng.next_u32();
        }
        let snap = StreamState::capture(&rng);
        let mut restored = snap.restore();
        for i in 0..100 {
            assert_eq!(restored.next_u64(), rng.next_u64(), "diverged at draw {i}");
        }
    }

    #[test]
    fn stream_state_json_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        rng.next_u64();
        let snap = StreamState::capture(&rng);
        let json = snap.to_json();
        let reparsed = serde_json::from_str(&json.to_string()).unwrap();
        assert_eq!(StreamState::from_json(&reparsed).unwrap(), snap);
    }

    #[test]
    fn stream_state_rejects_malformed_json() {
        for bad in [
            "{}",
            r#"{"seed":"zz","word_pos":0}"#,
            r#"{"seed":"00","word_pos":0}"#,
            r#"{"seed":"0000000000000000000000000000000000000000000000000000000000000000"}"#,
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(StreamState::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(mix64(42, 7), mix64(42, 7));
        assert_eq!(mix_to_u31(42, 7), mix_to_u31(42, 7));
    }

    #[test]
    fn nonnegative() {
        for c in 0..1000 {
            assert!(mix_to_u31(12345, c) >= 0);
        }
    }

    #[test]
    fn counter_sensitivity() {
        // Adjacent counters should produce different values almost surely.
        let distinct = (0..100)
            .map(|c| mix_to_u31(1, c))
            .collect::<std::collections::HashSet<_>>();
        assert!(
            distinct.len() > 95,
            "only {} distinct draws",
            distinct.len()
        );
    }

    #[test]
    fn seed_sensitivity() {
        assert_ne!(mix_to_u31(1, 0), mix_to_u31(2, 0));
    }

    #[test]
    fn unit_interval() {
        for c in 0..1000 {
            let v = mix_to_unit_f64(9, c);
            assert!((0.0..1.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn roughly_uniform() {
        // Crude uniformity check: bucket 10k draws into deciles.
        let mut buckets = [0usize; 10];
        for c in 0..10_000 {
            let v = mix_to_unit_f64(777, c);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let b = (v * 10.0) as usize;
            buckets[b.min(9)] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!((800..1200).contains(&count), "decile {i} has {count} draws");
        }
    }
}
