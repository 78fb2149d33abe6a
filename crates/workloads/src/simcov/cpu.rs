//! CPU reference implementation of `SIMCoV` — the ground-truth oracle
//! (paper §III-C: "We use the simulation output generated from the
//! unmodified `SIMCoV` as ground truth").
//!
//! Every update rule, constant, floating-point operation *and operation
//! order* matches the GPU kernels bit-for-bit, including the shared
//! counter-based RNG ([`gevo_ir::rng`]). The one deliberate difference is
//! T-cell movement-claim resolution order: the CPU resolves claims in
//! row-major cell order, the GPU in warp-scheduler order — precisely the
//! §II-C2 race the paper's per-value mean/variance validation tolerates.

use super::kernels::NEIGHBORS;
use super::SimcovParams;
use gevo_ir::rng::mix_to_u31;

/// Full simulation state for a `g × g` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SimcovState {
    /// Grid side.
    pub g: i32,
    /// Epithelial state per cell (0 healthy, 1 infected, 2 expressing,
    /// 3 apoptotic, 4 dead).
    pub epi: Vec<i32>,
    /// State-machine countdown per cell.
    pub timer: Vec<i32>,
    /// Virion concentration per cell.
    pub vir: Vec<f32>,
    /// Inflammatory-signal concentration per cell.
    pub chem: Vec<f32>,
    /// T-cell presence per cell (0/1).
    pub tcell: Vec<i32>,
    /// T-cell remaining lifetime per cell.
    pub tlife: Vec<i32>,
}

impl SimcovState {
    /// Fresh healthy tissue with `infections` initial infection sites
    /// placed by the shared RNG (paper §II-C: "a set of infection sites").
    #[must_use]
    pub fn new(g: i32, p: &SimcovParams) -> SimcovState {
        #[allow(clippy::cast_sign_loss)]
        let cells = (g * g) as usize;
        let mut s = SimcovState {
            g,
            epi: vec![0; cells],
            timer: vec![0; cells],
            vir: vec![0.0; cells],
            chem: vec![0.0; cells],
            tcell: vec![0; cells],
            tlife: vec![0; cells],
        };
        // Infection sites land in the central third of the tissue — the
        // physical scenario the paper simulates (infection far from the
        // tissue boundary), and the reason §VI-D's boundary-check removal
        // survives the small-grid fitness tests: the fields stay quiet at
        // the edges.
        let third = (g / 3).max(1);
        for k in 0..p.initial_infections {
            let r = g / 2 - third / 2 + mix_to_u31(p.seed, -(i64::from(k)) - 1) % third;
            let col = g / 2 - third / 2 + mix_to_u31(p.seed, -(i64::from(k)) - 101) % third;
            #[allow(clippy::cast_sign_loss)]
            {
                s.vir[(r * g + col) as usize] = p.initial_virions;
            }
        }
        s
    }

    /// Cells in the grid.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.epi.len()
    }

    /// Advances one step, mirroring the GPU kernel sequence 1–7 (the
    /// stats kernel has no state effect).
    #[allow(clippy::too_many_lines, clippy::cast_sign_loss)]
    pub fn step(&mut self, p: &SimcovParams, step: i32) {
        let g = self.g;
        let cells = self.cells();
        let cells_i64 = i64::from(g) * i64::from(g);
        let ctr = |k: i64, c: usize| (i64::from(step) * 2 * cells_i64) + k * cells_i64 + c as i64;

        // 1. extravasate
        for c in 0..cells {
            if self.tcell[c] == 0 && self.chem[c] > p.chem_threshold {
                let r = mix_to_u31(p.seed, ctr(0, c));
                if r < p.p_extravasate_q31 {
                    self.tcell[c] = 1;
                    self.tlife[c] = p.tcell_life;
                }
            }
        }

        // 2. move: claims into tnext (1-based source index).
        let mut tnext = vec![0i32; cells];
        for c in 0..cells {
            if self.tcell[c] != 1 {
                continue;
            }
            let r = mix_to_u31(p.seed, ctr(1, c));
            let d = r % 5;
            let (dx, dy) = match d {
                1 => (0, -1),
                2 => (0, 1),
                3 => (-1, 0),
                4 => (1, 0),
                _ => (0, 0),
            };
            let (row, col) = ((c as i32) / g, (c as i32) % g);
            let (nr, nc) = (row + dy, col + dx);
            let ok = nr >= 0 && nr < g && nc >= 0 && nc < g;
            let dest = if ok { (nr * g + nc) as usize } else { c };
            #[allow(clippy::cast_possible_wrap)]
            let claim = c as i32 + 1;
            if tnext[dest] == 0 {
                tnext[dest] = claim;
            } else if dest != c && tnext[c] == 0 {
                tnext[c] = claim;
            }
        }

        // 3. commit
        let mut tnew = vec![0i32; cells];
        let mut lnew = vec![0i32; cells];
        for c in 0..cells {
            let claim = tnext[c];
            if claim > 0 {
                let src = (claim - 1) as usize;
                let l = self.tlife[src] - 1;
                if l > 0 {
                    tnew[c] = 1;
                    lnew[c] = l;
                }
            }
        }

        // 4. epithelial update (reads post-move T-cell positions).
        for c in 0..cells {
            let e = self.epi[c];
            let tm = self.timer[c];
            let infect = e == 0 && self.vir[c] > p.infect_threshold;
            let live_inf = e == 1 || e == 2;
            let apopt = live_inf && tnew[c] == 1;
            let timed = live_inf || e == 3;
            let tm_dec = tm - 1;
            let expired = tm_dec <= 0;
            let mut e_out = e;
            let mut t_out = tm;
            if timed {
                t_out = tm_dec;
            }
            if e == 3 && expired {
                e_out = 4;
            }
            if e == 2 && expired {
                e_out = 4;
            }
            if e == 1 && expired {
                e_out = 2;
                t_out = p.express_time;
            }
            if apopt {
                e_out = 3;
                t_out = p.apoptosis_time;
            }
            if infect {
                e_out = 1;
                t_out = p.incubation_time;
            }
            self.epi[c] = e_out;
            self.timer[c] = t_out;
        }

        // 5 & 6. diffusion into double buffers, on the finer field
        // timescale (diffusion_substeps per agent step).
        for _sub in 0..p.diffusion_substeps {
            let mut next_vir = vec![0.0f32; cells];
            let mut next_chem = vec![0.0f32; cells];
            for c in 0..cells {
                let (row, col) = ((c as i32) / g, (c as i32) % g);
                let gather = |field: &[f32]| {
                    let mut acc = 0.0f32;
                    for (dx, dy) in NEIGHBORS {
                        let (nr, nc) = (row + dy, col + dx);
                        if nr >= 0 && nr < g && nc >= 0 && nc < g {
                            acc += field[(nr * g + nc) as usize];
                        }
                    }
                    acc
                };
                // Virions: spread, production, decay, clearance, clamp —
                // the exact f32 operation order of the GPU kernel.
                let v = self.vir[c];
                let avg = gather(&self.vir) / 8.0;
                let v1 = v + (avg - v) * p.diffuse_v;
                let prod = if self.epi[c] == 2 {
                    p.vir_production
                } else {
                    0.0
                };
                let v2 = v1 + prod;
                let v3 = v2 * (1.0 - p.decay_v);
                let v4 = if tnew[c] == 1 { v3 * p.tcell_clear } else { v3 };
                next_vir[c] = v4.max(0.0);

                let ch = self.chem[c];
                let avg_c = gather(&self.chem) / 8.0;
                let c1 = ch + (avg_c - ch) * p.diffuse_c;
                let src = if self.epi[c] >= 1 && self.epi[c] <= 3 {
                    p.chem_production
                } else {
                    0.0
                };
                let c2 = c1 + src;
                let c3 = c2 * (1.0 - p.decay_c);
                next_chem[c] = c3.max(0.0);
            }

            // 7. commit/swap (the T-cell copies are idempotent across
            // substeps, exactly as on the device).
            self.vir = next_vir;
            self.chem = next_chem;
        }
        self.tcell = tnew;
        self.tlife = lnew;
    }

    /// Runs `steps` steps.
    pub fn run(&mut self, p: &SimcovParams, steps: i32) {
        for s in 0..steps {
            self.step(p, s);
        }
    }

    /// The stats the reduce kernel computes:
    /// `[virion_q8 (sum of (v*256) as i32), infected, dead, tcells]`.
    #[must_use]
    pub fn stats(&self) -> [i64; 4] {
        let mut out = [0i64; 4];
        for c in 0..self.cells() {
            #[allow(clippy::cast_possible_truncation)]
            let vq = (self.vir[c] * 256.0) as i32;
            out[0] += i64::from(vq);
            if self.epi[c] == 1 || self.epi[c] == 2 {
                out[1] += 1;
            }
            if self.epi[c] == 4 {
                out[2] += 1;
            }
            out[3] += i64::from(self.tcell[c]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimcovParams {
        SimcovParams::default()
    }

    #[test]
    fn infection_spreads_and_kills() {
        let p = params();
        let mut s = SimcovState::new(24, &p);
        assert!(s.vir.iter().any(|&v| v > 0.0), "initial infection seeded");
        s.run(&p, 40);
        let st = s.stats();
        assert!(
            st[2] > 3,
            "infection spread beyond the initial sites and killed cells: {st:?}"
        );
    }

    #[test]
    fn tcells_eventually_arrive() {
        // T cells surge during the infection and retreat once it clears;
        // check the peak rather than the final count.
        let p = params();
        let mut s = SimcovState::new(24, &p);
        let mut peak = 0;
        for step in 0..40 {
            s.step(&p, step);
            peak = peak.max(s.stats()[3]);
        }
        assert!(
            peak > 5,
            "inflammatory signal recruits T cells: peak {peak}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = params();
        let mut a = SimcovState::new(16, &p);
        let mut b = SimcovState::new(16, &p);
        a.run(&p, 12);
        b.run(&p, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let p = params();
        let mut a = SimcovState::new(16, &p);
        let mut p2 = params();
        p2.seed = p.seed + 1;
        let mut b = SimcovState::new(16, &p2);
        a.run(&p, 12);
        b.run(&p2, 12);
        assert_ne!(a.vir, b.vir);
    }

    #[test]
    fn virions_and_chem_stay_nonnegative_and_finite() {
        let p = params();
        let mut s = SimcovState::new(16, &p);
        s.run(&p, 60);
        for c in 0..s.cells() {
            assert!(s.vir[c] >= 0.0 && s.vir[c].is_finite());
            assert!(s.chem[c] >= 0.0 && s.chem[c].is_finite());
        }
    }

    #[test]
    fn tcell_count_conserved_by_moves() {
        // Between extravasation (adds) and expiry (removes), moves alone
        // never duplicate a T cell: occupancy stays 0/1.
        let p = params();
        let mut s = SimcovState::new(16, &p);
        for step in 0..30 {
            s.step(&p, step);
            for c in 0..s.cells() {
                assert!(s.tcell[c] == 0 || s.tcell[c] == 1);
                if s.tcell[c] == 1 {
                    assert!(s.tlife[c] > 0, "live T cell has lifetime");
                }
            }
        }
    }
}
