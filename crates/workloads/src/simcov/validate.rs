//! Per-value mean/variance fuzzy validation (paper §II-C2, §III-C).
//!
//! `SIMCoV`'s fitness check cannot demand bit-equality: T-cell movement
//! claims resolve in scheduler order, which differs between the GPU and
//! the row-major CPU oracle (and between GPU scheduler seeds). The paper
//! introduces "the concepts of per-value mean and per-value variance to
//! measure how close the output is to ground truth" — implemented here as
//! bounds on the mean and variance of per-cell deviations, plus mismatch
//! budgets for the discrete fields.

use super::cpu::SimcovState;

/// Everything read back from the device after a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRunOutput {
    /// Virion field (logical grid, border stripped for padded layouts).
    pub vir: Vec<f32>,
    /// Inflammatory-signal field.
    pub chem: Vec<f32>,
    /// Epithelial states.
    pub epi: Vec<i32>,
    /// T-cell occupancy.
    pub tcell: Vec<i32>,
    /// `[virion_q8, infected, dead, tcells]` from the reduce kernel.
    pub stats: [i64; 4],
}

/// Acceptance thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerance {
    /// Bound on mean |gpu−cpu| per cell, relative to the oracle's mean
    /// magnitude.
    pub field_rel_mean: f64,
    /// Absolute slack added to the mean bound.
    pub field_abs_mean: f64,
    /// Bound on the variance of (gpu−cpu), relative to the square of the
    /// oracle's mean magnitude.
    pub field_rel_var: f64,
    /// Absolute slack added to the variance bound.
    pub field_abs_var: f64,
    /// Maximum fraction of cells whose epithelial state differs.
    pub epi_mismatch_frac: f64,
    /// Maximum number of cells whose T-cell occupancy differs, as
    /// `max(tcell_abs, tcell_rel × live_tcells)`.
    pub tcell_abs: usize,
    /// Relative component of the T-cell budget.
    pub tcell_rel: f64,
    /// Relative bound on the reduce-kernel tallies.
    pub stats_rel: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            field_rel_mean: 0.06,
            field_abs_mean: 0.03,
            field_rel_var: 0.02,
            field_abs_var: 0.02,
            epi_mismatch_frac: 0.03,
            tcell_abs: 3,
            tcell_rel: 0.35,
            stats_rel: 0.10,
        }
    }
}

/// Mean |d| and variance of d for one field.
fn diff_stats(gpu: &[f32], cpu: &[f32]) -> (f64, f64, f64) {
    let n = gpu.len().max(1) as f64;
    let mut sum_abs_d = 0.0f64;
    let mut sum_d = 0.0f64;
    let mut sum_d2 = 0.0f64;
    let mut sum_abs_ref = 0.0f64;
    for (a, b) in gpu.iter().zip(cpu) {
        let d = f64::from(*a) - f64::from(*b);
        sum_abs_d += d.abs();
        sum_d += d;
        sum_d2 += d * d;
        sum_abs_ref += f64::from(*b).abs();
    }
    let mean_abs = sum_abs_d / n;
    let mean = sum_d / n;
    let var = (sum_d2 / n - mean * mean).max(0.0);
    (mean_abs, var, sum_abs_ref / n)
}

/// Compares a GPU run against the oracle.
///
/// On success, returns the run\'s **normalized error**: the largest
/// fraction of any tolerance budget the deviation consumed (0 = exact
/// match, 1 = right on a bound). This is the continuous correctness
/// score behind `gevo_engine::Objective::Error` — the paper\'s second
/// GEVO objective — so a multi-objective search can trade accuracy for
/// speed *within* the acceptance region.
///
/// # Errors
/// Returns a description of the first violated bound.
pub fn compare(gpu: &GpuRunOutput, cpu: &SimcovState, tol: &Tolerance) -> Result<f64, String> {
    if gpu.vir.len() != cpu.vir.len() {
        return Err("field size mismatch".into());
    }
    let mut error = 0.0f64;
    for (name, g_field, c_field) in [
        ("virions", &gpu.vir, &cpu.vir),
        ("chemokine", &gpu.chem, &cpu.chem),
    ] {
        let (mean_abs, var, ref_mean) = diff_stats(g_field, c_field);
        let mean_bound = tol.field_abs_mean + tol.field_rel_mean * ref_mean;
        if mean_abs > mean_bound {
            return Err(format!(
                "{name}: per-value mean deviation {mean_abs:.4} exceeds {mean_bound:.4}"
            ));
        }
        error = error.max(mean_abs / mean_bound);
        let var_bound = tol.field_abs_var + tol.field_rel_var * ref_mean * ref_mean;
        if var > var_bound {
            return Err(format!(
                "{name}: per-value variance {var:.4} exceeds {var_bound:.4}"
            ));
        }
        error = error.max(var / var_bound);
    }

    let epi_mismatch = gpu.epi.iter().zip(&cpu.epi).filter(|(a, b)| a != b).count();
    #[allow(clippy::cast_precision_loss)]
    let frac = epi_mismatch as f64 / gpu.epi.len().max(1) as f64;
    if frac > tol.epi_mismatch_frac {
        return Err(format!(
            "epithelial states: {epi_mismatch} cells differ ({frac:.3} > {:.3})",
            tol.epi_mismatch_frac
        ));
    }
    error = error.max(frac / tol.epi_mismatch_frac);

    let t_mismatch = gpu
        .tcell
        .iter()
        .zip(&cpu.tcell)
        .filter(|(a, b)| a != b)
        .count();
    let live: usize = cpu.tcell.iter().map(|&t| t as usize).sum();
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let budget = tol
        .tcell_abs
        .max((tol.tcell_rel * live as f64).ceil() as usize);
    if t_mismatch > budget {
        return Err(format!(
            "T cells: {t_mismatch} cells differ (budget {budget}, {live} live)"
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    {
        error = error.max(t_mismatch as f64 / budget as f64);
    }

    let ref_stats = cpu.stats();
    for (i, name) in ["virion total", "infected", "dead", "tcells"]
        .iter()
        .enumerate()
    {
        let (a, b) = (gpu.stats[i], ref_stats[i]);
        // The floor keeps small-count tallies from tripping on single
        // claim-order races (one displaced T cell shifts `infected` by 1).
        #[allow(clippy::cast_precision_loss)]
        let scale = (b.abs().max(16)) as f64;
        #[allow(clippy::cast_precision_loss)]
        let d = (a - b).abs() as f64;
        if d / scale > tol.stats_rel {
            return Err(format!("stats[{name}]: {a} vs oracle {b}"));
        }
        error = error.max(d / scale / tol.stats_rel);
    }
    Ok(error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcov::SimcovParams;

    fn oracle() -> SimcovState {
        let p = SimcovParams::default();
        let mut s = SimcovState::new(16, &p);
        s.run(&p, 10);
        s
    }

    fn exact_copy(s: &SimcovState) -> GpuRunOutput {
        GpuRunOutput {
            vir: s.vir.clone(),
            chem: s.chem.clone(),
            epi: s.epi.clone(),
            tcell: s.tcell.clone(),
            stats: s.stats(),
        }
    }

    #[test]
    fn exact_output_passes() {
        let s = oracle();
        assert_eq!(compare(&exact_copy(&s), &s, &Tolerance::default()), Ok(0.0));
    }

    #[test]
    fn small_race_noise_passes() {
        let s = oracle();
        let mut g = exact_copy(&s);
        // Move one T cell to a neighboring empty cell (claim-order noise).
        if let Some(i) = g.tcell.iter().position(|&t| t == 1) {
            let j = if i + 1 < g.tcell.len() { i + 1 } else { i - 1 };
            g.tcell[i] = 0;
            g.tcell[j] = 1;
        }
        // Tiny field jitter.
        for v in g.vir.iter_mut().take(20) {
            *v += 0.003;
        }
        let err = compare(&g, &s, &Tolerance::default()).expect("within tolerance");
        assert!(
            err > 0.0 && err <= 1.0,
            "noise consumes part of the budget: {err}"
        );
    }

    #[test]
    fn broken_field_fails() {
        let s = oracle();
        let mut g = exact_copy(&s);
        for v in &mut g.vir {
            *v = 0.0;
        }
        let err = compare(&g, &s, &Tolerance::default()).unwrap_err();
        assert!(err.contains("virions"), "{err}");
    }

    #[test]
    fn broken_epi_fails() {
        let s = oracle();
        let mut g = exact_copy(&s);
        for e in &mut g.epi {
            *e = 0;
        }
        // The oracle has infected cells by step 10; zeroing all states
        // must blow the epi budget (or the derived stats budget).
        assert!(compare(&g, &s, &Tolerance::default()).is_err());
    }

    #[test]
    fn missing_tcells_fail() {
        let s = oracle();
        let mut g = exact_copy(&s);
        for t in &mut g.tcell {
            *t = 0;
        }
        if s.tcell.iter().sum::<i32>() >= 4 {
            assert!(compare(&g, &s, &Tolerance::default()).is_err());
        }
    }

    #[test]
    fn broken_stats_fail() {
        let s = oracle();
        let mut g = exact_copy(&s);
        g.stats[0] = 0;
        if s.stats()[0] > 8 {
            assert!(compare(&g, &s, &Tolerance::default()).is_err());
        }
    }
}
