//! Helpers shared by the fixed-seed trajectory pins.

use gevo_repro::prelude::*;

/// CRC-32 (IEEE) — same polynomial as the checkpoint footer, local so
/// the pins do not depend on gevo-bench.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A one-thread GA budget small enough for tier-1.
pub fn tiny(seed: u64, pop: usize, gens: usize) -> GaConfig {
    GaConfig {
        population: pop,
        generations: gens,
        seed,
        threads: 1,
        ..GaConfig::scaled()
    }
}
