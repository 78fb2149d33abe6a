//! Random edit generation: GEVO's mutation operators.
//!
//! The operator set is the paper's (§II-A): instruction **copy, delete,
//! move, replace, swap** plus **operand replacement**, extended with the
//! explicit branch-**condition replacement** that §VI-A's edits 8/10 are
//! instances of. Operand pools are type-compatible by construction
//! (replacements that would not verify are never proposed).
//!
//! New edits always reference *pristine* instruction IDs so that every
//! edit remains meaningful in any subset of its patch (DESIGN.md §3.3).
//!
//! ```
//! use gevo_engine::{MutationSpace, MutationWeights, Patch};
//! use gevo_ir::{AddrSpace, KernelBuilder, Operand, Special};
//! use rand::SeedableRng;
//!
//! let mut b = KernelBuilder::new("k");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let x = b.add(tid.into(), Operand::ImmI32(1));
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! b.store_global_i32(addr.into(), x.into());
//! b.ret();
//! let kernels = vec![b.finish()];
//!
//! let space = MutationSpace::new(&kernels, MutationWeights::default());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut genome = Patch::empty();
//! for _ in 0..5 {
//!     space.mutate(&mut genome, &mut rng);
//! }
//! assert_eq!(genome.len(), 5, "every mutation appends one edit");
//! // Proposed edits always target this workload's kernel.
//! assert!(genome.edits().iter().all(|e| e.kernel() == 0));
//! ```

use crate::edit::{Edit, Patch};
use gevo_ir::{InstId, Kernel, Operand, Ty};
use rand::seq::SliceRandom;
use rand::Rng;

/// Relative weights of the operator kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationWeights {
    /// Instruction deletion.
    pub delete: f64,
    /// Operand replacement.
    pub operand_replace: f64,
    /// Branch-condition replacement.
    pub cond_replace: f64,
    /// Instruction copy (duplicate elsewhere).
    pub copy: f64,
    /// Instruction move.
    pub mov: f64,
    /// Instruction swap.
    pub swap: f64,
    /// Instruction replace (content overwrite).
    pub replace: f64,
}

impl Default for MutationWeights {
    fn default() -> Self {
        MutationWeights {
            delete: 0.30,
            operand_replace: 0.25,
            cond_replace: 0.15,
            copy: 0.10,
            mov: 0.08,
            swap: 0.06,
            replace: 0.06,
        }
    }
}

/// Pre-computed sampling tables for one workload's kernels.
#[derive(Debug)]
pub struct MutationSpace {
    per_kernel: Vec<KernelSpace>,
    weights: MutationWeights,
}

#[derive(Debug)]
struct KernelSpace {
    inst_ids: Vec<InstId>,
    /// Anchors for insertion: instruction IDs plus terminator IDs.
    anchors: Vec<InstId>,
    cond_terms: Vec<InstId>,
    /// Operand pools, one per type, drawn from the pristine kernel.
    pools: [Vec<Operand>; 4],
    /// (inst, arg, ty) triples eligible for operand replacement.
    operand_slots: Vec<(InstId, usize, Ty)>,
}

fn ty_index(ty: Ty) -> usize {
    match ty {
        Ty::I32 => 0,
        Ty::I64 => 1,
        Ty::F32 => 2,
        Ty::Bool => 3,
    }
}

impl MutationSpace {
    /// Builds the sampling tables for a set of pristine kernels.
    #[must_use]
    pub fn new(kernels: &[Kernel], weights: MutationWeights) -> MutationSpace {
        let per_kernel = kernels
            .iter()
            .map(|k| {
                let inst_ids = k.inst_ids();
                let mut anchors = inst_ids.clone();
                anchors.extend(k.blocks.iter().map(|b| b.term.id));
                let pools = [
                    k.operand_pool(Ty::I32),
                    k.operand_pool(Ty::I64),
                    k.operand_pool(Ty::F32),
                    k.operand_pool(Ty::Bool),
                ];
                let mut operand_slots = Vec::new();
                for (_, inst) in k.iter_insts() {
                    for (ai, a) in inst.args.iter().enumerate() {
                        operand_slots.push((inst.id, ai, k.operand_ty(a)));
                    }
                }
                KernelSpace {
                    inst_ids,
                    anchors,
                    cond_terms: k.cond_br_ids(),
                    pools,
                    operand_slots,
                }
            })
            .collect();
        MutationSpace {
            per_kernel,
            weights,
        }
    }

    /// Samples one random edit (or `None` for degenerate kernels).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<Edit> {
        // Kernel choice weighted by instruction count.
        let total: usize = self.per_kernel.iter().map(|k| k.inst_ids.len()).sum();
        if total == 0 {
            return None;
        }
        let mut pick = rng.gen_range(0..total);
        let mut kernel = 0;
        for (i, k) in self.per_kernel.iter().enumerate() {
            if pick < k.inst_ids.len() {
                kernel = i;
                break;
            }
            pick -= k.inst_ids.len();
        }

        let w = &self.weights;
        let sum =
            w.delete + w.operand_replace + w.cond_replace + w.copy + w.mov + w.swap + w.replace;
        let mut x = rng.gen_range(0.0..sum);
        let mut kind = 0;
        for (i, wt) in [
            w.delete,
            w.operand_replace,
            w.cond_replace,
            w.copy,
            w.mov,
            w.swap,
            w.replace,
        ]
        .into_iter()
        .enumerate()
        {
            if x < wt {
                kind = i;
                break;
            }
            x -= wt;
        }

        // Retry a few times if the chosen kind has no candidates.
        for fallback in [kind, 0, 1, 3] {
            if let Some(e) = self.sample_kind(rng, kernel, fallback) {
                return Some(e);
            }
        }
        None
    }

    fn sample_kind<R: Rng>(&self, rng: &mut R, kernel: usize, kind: usize) -> Option<Edit> {
        let ks = &self.per_kernel[kernel];
        match kind {
            0 => {
                let target = *ks.inst_ids.choose(rng)?;
                Some(Edit::Delete { kernel, target })
            }
            1 => {
                let (target, arg, ty) = *ks.operand_slots.choose(rng)?;
                let pool = &ks.pools[ty_index(ty)];
                let mut new = *pool.choose(rng)?;
                // Occasionally perturb integer immediates instead of
                // swapping operands — GEVO's constant mutation.
                if ty == Ty::I32 && rng.gen_bool(0.2) {
                    let delta = [-1, 1, 2, -2][rng.gen_range(0..4usize)];
                    if let Operand::ImmI32(v) = new {
                        new = Operand::ImmI32(v.wrapping_add(delta));
                    }
                }
                Some(Edit::OperandReplace {
                    kernel,
                    target,
                    arg,
                    new,
                })
            }
            2 => {
                let term = *ks.cond_terms.choose(rng)?;
                let pool = &ks.pools[ty_index(Ty::Bool)];
                let new = if pool.is_empty() || rng.gen_bool(0.1) {
                    Operand::ImmBool(rng.gen_bool(0.5))
                } else {
                    *pool.choose(rng)?
                };
                Some(Edit::CondReplace { kernel, term, new })
            }
            3 => {
                let source = *ks.inst_ids.choose(rng)?;
                let before = *ks.anchors.choose(rng)?;
                Some(Edit::Copy {
                    kernel,
                    source,
                    before,
                })
            }
            4 => {
                let source = *ks.inst_ids.choose(rng)?;
                let before = *ks.anchors.choose(rng)?;
                (source != before).then_some(Edit::Move {
                    kernel,
                    source,
                    before,
                })
            }
            5 => {
                let a = *ks.inst_ids.choose(rng)?;
                let b = *ks.inst_ids.choose(rng)?;
                (a != b).then_some(Edit::Swap { kernel, a, b })
            }
            6 => {
                let target = *ks.inst_ids.choose(rng)?;
                let source = *ks.inst_ids.choose(rng)?;
                (target != source).then_some(Edit::Replace {
                    kernel,
                    target,
                    source,
                })
            }
            _ => None,
        }
    }

    /// Appends a sampled edit to the patch (the GA's mutation step).
    pub fn mutate<R: Rng>(&self, patch: &mut Patch, rng: &mut R) {
        if let Some(e) = self.sample(rng) {
            patch.push(e);
        }
    }
}

/// One-point crossover over edit lists (GEVO's patch crossover): child
/// takes a prefix of `a` and a suffix of `b`.
pub fn crossover_one_point<R: Rng>(a: &Patch, b: &Patch, rng: &mut R) -> Patch {
    let cut_a = if a.is_empty() {
        0
    } else {
        rng.gen_range(0..=a.len())
    };
    let cut_b = if b.is_empty() {
        0
    } else {
        rng.gen_range(0..=b.len())
    };
    let mut edits: Vec<Edit> = a.edits()[..cut_a].to_vec();
    edits.extend_from_slice(&b.edits()[cut_b..]);
    Patch::from_edits(edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_ir::{AddrSpace, KernelBuilder, Operand as Opnd, Special};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn kernels() -> Vec<Kernel> {
        let mut b = KernelBuilder::new("m");
        let out = b.param_ptr("out", AddrSpace::Global);
        let n = b.param_i32("n");
        let tid = b.special_i32(Special::ThreadId);
        let c = b.icmp_lt(tid.into(), Opnd::Param(n));
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let v = b.mul(tid.into(), Opnd::ImmI32(3));
        let addr = b.index_addr(Opnd::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), v.into());
        b.br(exit);
        b.switch_to(exit);
        b.ret();
        vec![b.finish()]
    }

    #[test]
    fn sampled_edits_apply_and_verify() {
        let ks = kernels();
        let space = MutationSpace::new(&ks, MutationWeights::default());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut applied = 0;
        for _ in 0..500 {
            let e = space.sample(&mut rng).expect("kernel is non-degenerate");
            let p = Patch::from_edits(vec![e]);
            let (out, n) = p.apply(&ks);
            applied += n;
            assert!(
                gevo_ir::verify::verify(&out[0]).is_ok(),
                "sampled edit breaks verification: {e}"
            );
        }
        // The vast majority of proposals must be applicable.
        assert!(applied > 400, "only {applied}/500 edits applied");
    }

    #[test]
    fn sampling_covers_all_operator_kinds() {
        let ks = kernels();
        let space = MutationSpace::new(&ks, MutationWeights::default());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..2000 {
            match space.sample(&mut rng).unwrap() {
                Edit::Delete { .. } => seen[0] = true,
                Edit::OperandReplace { .. } => seen[1] = true,
                Edit::CondReplace { .. } => seen[2] = true,
                Edit::Copy { .. } => seen[3] = true,
                Edit::Move { .. } => seen[4] = true,
                Edit::Swap { .. } => seen[5] = true,
                Edit::Replace { .. } => seen[6] = true,
            }
        }
        assert!(seen.iter().all(|s| *s), "kinds seen: {seen:?}");
    }

    #[test]
    fn crossover_one_point_combines_prefix_suffix() {
        let ks = kernels();
        let ids = ks[0].inst_ids();
        let pa = Patch::from_edits(
            ids[..3]
                .iter()
                .map(|id| Edit::Delete {
                    kernel: 0,
                    target: *id,
                })
                .collect(),
        );
        let pb = Patch::from_edits(
            ids[3..6]
                .iter()
                .map(|id| Edit::Delete {
                    kernel: 0,
                    target: *id,
                })
                .collect(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let child = crossover_one_point(&pa, &pb, &mut rng);
            // Every edit in the child comes from a parent.
            for e in child.edits() {
                assert!(pa.edits().contains(e) || pb.edits().contains(e));
            }
            assert!(child.len() <= pa.len() + pb.len());
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ks = kernels();
        let space = MutationSpace::new(&ks, MutationWeights::default());
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..20)
                .map(|_| space.sample(&mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
