//! Edits and patches: GEVO's genome representation.
//!
//! An [`Edit`] is one applied mutation operator; a [`Patch`] is an ordered
//! list of edits — the genome of one individual. Patches are applied to
//! the *pristine* kernels every time (GEVO's patch-based representation),
//! and every edit addresses instructions by their stable [`InstId`], so
//! **any subset of a patch is itself a valid patch**. That property is
//! what the paper's Algorithm 1 (weak-edit minimization), Algorithm 2
//! (independent/epistatic separation) and the exhaustive subset analysis
//! of §V-C all rely on.
//!
//! Edits that no longer apply (their target was deleted by an earlier
//! edit in the same patch) are silently skipped, mirroring GEVO.
//!
//! ```
//! use gevo_engine::{Edit, Patch};
//! use gevo_ir::{AddrSpace, KernelBuilder, Operand, Special};
//!
//! let mut b = KernelBuilder::new("k");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let dead = b.add(tid.into(), Operand::ImmI32(9));
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! b.store_global_i32(addr.into(), tid.into());
//! b.ret();
//! let pristine = vec![b.finish()];
//!
//! // Delete the dead add; the duplicate edit is skipped, not an error.
//! let del = Edit::Delete { kernel: 0, target: pristine[0].inst_ids()[1] };
//! let patch = Patch::from_edits(vec![del, del]);
//! let (variant, applied) = patch.apply(&pristine);
//! assert_eq!(applied, 1);
//! assert_eq!(variant[0].inst_count(), pristine[0].inst_count() - 1);
//!
//! // Any subset of a patch is itself a valid patch.
//! assert_eq!(patch.without(&del).len(), 1);
//! ```

use gevo_ir::{InstId, Kernel, Operand, TermKind};
use std::fmt;

/// One mutation operator application. `kernel` indexes the workload's
/// kernel list (multi-kernel programs like ADEPT-V1 and `SIMCoV` evolve all
/// their kernels in one genome, as GEVO does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edit {
    /// Remove the instruction.
    Delete {
        /// Kernel index within the workload.
        kernel: usize,
        /// Instruction to remove.
        target: InstId,
    },
    /// Insert a clone of `source` immediately before `before` (`before`
    /// may be a terminator ID, meaning "append at the end of that block").
    Copy {
        /// Kernel index within the workload.
        kernel: usize,
        /// Instruction to clone.
        source: InstId,
        /// Anchor position.
        before: InstId,
    },
    /// Move `source` so it executes immediately before `before`.
    Move {
        /// Kernel index within the workload.
        kernel: usize,
        /// Instruction to relocate.
        source: InstId,
        /// Anchor position.
        before: InstId,
    },
    /// Exchange the positions of two instructions.
    Swap {
        /// Kernel index within the workload.
        kernel: usize,
        /// First instruction.
        a: InstId,
        /// Second instruction.
        b: InstId,
    },
    /// Overwrite `target`'s operation/operands with a clone of `source`
    /// (keeping `target`'s identity).
    Replace {
        /// Kernel index within the workload.
        kernel: usize,
        /// Instruction whose content is overwritten.
        target: InstId,
        /// Instruction providing the new content.
        source: InstId,
    },
    /// Replace one operand of an instruction with a type-compatible
    /// operand.
    OperandReplace {
        /// Kernel index within the workload.
        kernel: usize,
        /// Instruction whose operand changes.
        target: InstId,
        /// Operand position.
        arg: usize,
        /// The replacement operand.
        new: Operand,
    },
    /// Replace the condition of a conditional branch — the edit kind
    /// behind the paper's edits 8 and 10 ("replacing the if condition
    /// with the existing boolean expression", §VI-A).
    CondReplace {
        /// Kernel index within the workload.
        kernel: usize,
        /// The branch terminator's ID.
        term: InstId,
        /// The new condition operand (must be `b1`-typed).
        new: Operand,
    },
}

impl Edit {
    /// The kernel this edit touches.
    #[must_use]
    pub fn kernel(&self) -> usize {
        match self {
            Edit::Delete { kernel, .. }
            | Edit::Copy { kernel, .. }
            | Edit::Move { kernel, .. }
            | Edit::Swap { kernel, .. }
            | Edit::Replace { kernel, .. }
            | Edit::OperandReplace { kernel, .. }
            | Edit::CondReplace { kernel, .. } => *kernel,
        }
    }

    /// Applies this edit to a kernel in place. Returns `true` if the edit
    /// took effect, `false` if it was skipped as inapplicable.
    pub fn apply(&self, k: &mut Kernel) -> bool {
        match *self {
            Edit::Delete { target, .. } => k.remove_inst(target).is_some(),
            Edit::Copy { source, before, .. } => {
                let Some(pos) = k.locate(source) else {
                    return false;
                };
                let inst = k.inst_at(pos).expect("located").clone();
                let fresh = k.fresh_inst_id();
                let clone = inst.clone_with_id(fresh);
                insert_before_or_at_term(k, before, clone)
            }
            Edit::Move { source, before, .. } => {
                if source == before {
                    return false;
                }
                // Both endpoints must exist up front so a failed insert
                // cannot lose the instruction.
                if k.locate(source).is_none() || !anchor_exists(k, before) {
                    return false;
                }
                let inst = k.remove_inst(source).expect("checked above");
                // The anchor may have been the moved instruction's own
                // neighbor; it still exists because source != before.
                insert_before_or_at_term(k, before, inst)
            }
            Edit::Swap { a, b, .. } => {
                if a == b {
                    return false;
                }
                let (Some(pa), Some(pb)) = (k.locate(a), k.locate(b)) else {
                    return false;
                };
                if pa.block == pb.block {
                    k.blocks[pa.block].instrs.swap(pa.index, pb.index);
                } else {
                    let ia = k.blocks[pa.block].instrs[pa.index].clone();
                    let ib = k.blocks[pb.block].instrs[pb.index].clone();
                    k.blocks[pa.block].instrs[pa.index] = ib;
                    k.blocks[pb.block].instrs[pb.index] = ia;
                }
                true
            }
            Edit::Replace { target, source, .. } => {
                if target == source {
                    return false;
                }
                let (Some(pt), Some(ps)) = (k.locate(target), k.locate(source)) else {
                    return false;
                };
                let src = k.blocks[ps.block].instrs[ps.index].clone();
                let t = &mut k.blocks[pt.block].instrs[pt.index];
                let keep_id = t.id;
                let keep_loc = t.loc;
                *t = src.clone_with_id(keep_id);
                t.loc = keep_loc;
                true
            }
            Edit::OperandReplace {
                target, arg, new, ..
            } => {
                let Some(pos) = k.locate(target) else {
                    return false;
                };
                let Some(old) = k.inst_at(pos).expect("located").args.get(arg).copied() else {
                    return false;
                };
                // Type compatibility is enforced at application time so
                // that arbitrary subsets stay verifiable.
                if k.operand_ty(&old) != k.operand_ty(&new) {
                    return false;
                }
                k.blocks[pos.block].instrs[pos.index].args[arg] = new;
                true
            }
            Edit::CondReplace { term, new, .. } => {
                if k.operand_ty(&new) != gevo_ir::Ty::Bool {
                    return false;
                }
                let Some(t) = k.terminator_mut(term) else {
                    return false;
                };
                match &mut t.kind {
                    TermKind::CondBr { cond, .. } => {
                        *cond = new;
                        true
                    }
                    _ => false,
                }
            }
        }
    }
}

/// Insert before a body instruction, or at the end of the block whose
/// terminator carries the anchor ID.
fn insert_before_or_at_term(k: &mut Kernel, before: InstId, inst: gevo_ir::Instr) -> bool {
    match k.insert_before(before, inst) {
        Ok(()) => true,
        Err(inst) => {
            // Maybe the anchor is a terminator: append to that block.
            for block in &mut k.blocks {
                if block.term.id == before {
                    block.instrs.push(inst);
                    return true;
                }
            }
            false
        }
    }
}

fn anchor_exists(k: &Kernel, anchor: InstId) -> bool {
    k.locate(anchor).is_some() || k.blocks.iter().any(|b| b.term.id == anchor)
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::Delete { kernel, target } => write!(f, "k{kernel}:del {target}"),
            Edit::Copy {
                kernel,
                source,
                before,
            } => write!(f, "k{kernel}:copy {source} -> before {before}"),
            Edit::Move {
                kernel,
                source,
                before,
            } => write!(f, "k{kernel}:move {source} -> before {before}"),
            Edit::Swap { kernel, a, b } => write!(f, "k{kernel}:swap {a} <-> {b}"),
            Edit::Replace {
                kernel,
                target,
                source,
            } => write!(f, "k{kernel}:replace {target} := {source}"),
            Edit::OperandReplace {
                kernel,
                target,
                arg,
                new,
            } => write!(f, "k{kernel}:opnd {target}[{arg}] := {new}"),
            Edit::CondReplace { kernel, term, new } => {
                write!(f, "k{kernel}:cond {term} := {new}")
            }
        }
    }
}

/// An ordered list of edits: one individual's genome.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Patch {
    edits: Vec<Edit>,
}

impl Patch {
    /// The empty patch (the unmodified program).
    #[must_use]
    pub fn empty() -> Patch {
        Patch::default()
    }

    /// A patch from an edit list, in order.
    #[must_use]
    pub fn from_edits(edits: Vec<Edit>) -> Patch {
        Patch { edits }
    }

    /// The edits, in application order.
    #[must_use]
    pub fn edits(&self) -> &[Edit] {
        &self.edits
    }

    /// Number of edits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// True when there are no edits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Appends an edit.
    pub fn push(&mut self, e: Edit) {
        self.edits.push(e);
    }

    /// The patch without the given edit (first occurrence), preserving
    /// order — `S − e` in the paper's algorithms.
    #[must_use]
    pub fn without(&self, e: &Edit) -> Patch {
        let mut edits = self.edits.clone();
        if let Some(i) = edits.iter().position(|x| x == e) {
            edits.remove(i);
        }
        Patch { edits }
    }

    /// The patch without any of the given edits — `S − weaks`.
    #[must_use]
    pub fn without_all(&self, drop: &[Edit]) -> Patch {
        Patch {
            edits: self
                .edits
                .iter()
                .filter(|e| !drop.contains(e))
                .copied()
                .collect(),
        }
    }

    /// The sub-patch containing exactly `keep`, in this patch's order.
    #[must_use]
    pub fn subset(&self, keep: &[Edit]) -> Patch {
        Patch {
            edits: self
                .edits
                .iter()
                .filter(|e| keep.contains(e))
                .copied()
                .collect(),
        }
    }

    /// Applies the patch to pristine kernels, producing the variant.
    /// Inapplicable edits are skipped; the returned count says how many
    /// actually landed.
    #[must_use]
    pub fn apply(&self, pristine: &[Kernel]) -> (Vec<Kernel>, usize) {
        let mut kernels: Vec<Kernel> = pristine.to_vec();
        let mut applied = 0;
        for e in &self.edits {
            let ki = e.kernel();
            if ki < kernels.len() && e.apply(&mut kernels[ki]) {
                applied += 1;
            }
        }
        (kernels, applied)
    }

    /// Stable content hash, for fitness memoization.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.edits.hash(&mut h);
        h.finish()
    }
}

impl FromIterator<Edit> for Patch {
    fn from_iter<T: IntoIterator<Item = Edit>>(iter: T) -> Self {
        Patch {
            edits: iter.into_iter().collect(),
        }
    }
}

impl Extend<Edit> for Patch {
    fn extend<T: IntoIterator<Item = Edit>>(&mut self, iter: T) {
        self.edits.extend(iter);
    }
}

impl fmt::Display for Patch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.edits.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_ir::{AddrSpace, KernelBuilder, Operand, Special};

    fn kernels() -> Vec<Kernel> {
        let mut b = KernelBuilder::new("k");
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId); // inst 0
        let v = b.mul(tid.into(), Operand::ImmI32(3)); // inst 1
        let w = b.add(v.into(), Operand::ImmI32(1)); // inst 2
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4); // 3,4,5
        b.store_global_i32(addr.into(), w.into()); // inst 6
        b.ret();
        vec![b.finish()]
    }

    fn ids(k: &Kernel) -> Vec<InstId> {
        k.inst_ids()
    }

    #[test]
    fn delete_applies_and_skips() {
        let ks = kernels();
        let target = ids(&ks[0])[1];
        let p = Patch::from_edits(vec![Edit::Delete { kernel: 0, target }]);
        let (out, applied) = p.apply(&ks);
        assert_eq!(applied, 1);
        assert_eq!(out[0].inst_count(), ks[0].inst_count() - 1);

        // Deleting twice: second edit skips.
        let p2 = Patch::from_edits(vec![
            Edit::Delete { kernel: 0, target },
            Edit::Delete { kernel: 0, target },
        ]);
        let (out2, applied2) = p2.apply(&ks);
        assert_eq!(applied2, 1);
        assert_eq!(out2[0].inst_count(), ks[0].inst_count() - 1);
    }

    #[test]
    fn copy_inserts_clone_with_fresh_id() {
        let ks = kernels();
        let all = ids(&ks[0]);
        let p = Patch::from_edits(vec![Edit::Copy {
            kernel: 0,
            source: all[1],
            before: all[2],
        }]);
        let (out, applied) = p.apply(&ks);
        assert_eq!(applied, 1);
        assert_eq!(out[0].inst_count(), ks[0].inst_count() + 1);
        // The clone has a fresh ID beyond the pristine range.
        let fresh: Vec<_> = out[0]
            .inst_ids()
            .into_iter()
            .filter(|id| id.0 >= ks[0].inst_id_bound())
            .collect();
        assert_eq!(fresh.len(), 1);
    }

    #[test]
    fn copy_to_terminator_appends() {
        let ks = kernels();
        let all = ids(&ks[0]);
        let term_id = ks[0].blocks[0].term.id;
        let p = Patch::from_edits(vec![Edit::Copy {
            kernel: 0,
            source: all[0],
            before: term_id,
        }]);
        let (out, applied) = p.apply(&ks);
        assert_eq!(applied, 1);
        let last = out[0].blocks[0].instrs.last().unwrap();
        assert!(last.id.0 >= ks[0].inst_id_bound());
    }

    #[test]
    fn move_reorders() {
        let ks = kernels();
        let all = ids(&ks[0]);
        let p = Patch::from_edits(vec![Edit::Move {
            kernel: 0,
            source: all[0],
            before: all[2],
        }]);
        let (out, applied) = p.apply(&ks);
        assert_eq!(applied, 1);
        assert_eq!(out[0].inst_count(), ks[0].inst_count());
        let order = out[0].inst_ids();
        assert_eq!(order[1], all[0], "moved after inst 1");
    }

    #[test]
    fn swap_exchanges_slots() {
        let ks = kernels();
        let all = ids(&ks[0]);
        let p = Patch::from_edits(vec![Edit::Swap {
            kernel: 0,
            a: all[0],
            b: all[2],
        }]);
        let (out, _) = p.apply(&ks);
        let order = out[0].inst_ids();
        assert_eq!(order[0], all[2]);
        assert_eq!(order[2], all[0]);
    }

    #[test]
    fn replace_keeps_identity() {
        let ks = kernels();
        let all = ids(&ks[0]);
        let p = Patch::from_edits(vec![Edit::Replace {
            kernel: 0,
            target: all[2],
            source: all[1],
        }]);
        let (out, _) = p.apply(&ks);
        let pos = out[0].locate(all[2]).unwrap();
        let inst = out[0].inst_at(pos).unwrap();
        let src_pos = out[0].locate(all[1]).unwrap();
        let src = out[0].inst_at(src_pos).unwrap();
        assert_eq!(inst.op, src.op);
        assert_eq!(inst.args, src.args);
        assert_eq!(inst.id, all[2], "identity preserved");
    }

    #[test]
    fn operand_replace_respects_types() {
        let ks = kernels();
        let all = ids(&ks[0]);
        // inst 1 is `mul tid, 3` — replace the 3 with 7 (same type).
        let good = Edit::OperandReplace {
            kernel: 0,
            target: all[1],
            arg: 1,
            new: Operand::ImmI32(7),
        };
        // Replacing with an i64 immediate is type-incompatible: skipped.
        let bad = Edit::OperandReplace {
            kernel: 0,
            target: all[1],
            arg: 1,
            new: Operand::ImmI64(7),
        };
        let (out, applied) = Patch::from_edits(vec![good, bad]).apply(&ks);
        assert_eq!(applied, 1);
        let pos = out[0].locate(all[1]).unwrap();
        assert_eq!(out[0].inst_at(pos).unwrap().args[1], Operand::ImmI32(7));
    }

    #[test]
    fn subsets_and_without() {
        let ks = kernels();
        let all = ids(&ks[0]);
        let e1 = Edit::Delete {
            kernel: 0,
            target: all[1],
        };
        let e2 = Edit::Delete {
            kernel: 0,
            target: all[2],
        };
        let p = Patch::from_edits(vec![e1, e2]);
        assert_eq!(p.without(&e1).edits(), &[e2]);
        assert_eq!(p.without_all(&[e1, e2]).len(), 0);
        assert_eq!(p.subset(&[e2]).edits(), &[e2]);
    }

    #[test]
    fn every_subset_applies_cleanly() {
        // The foundational property for Algorithms 1/2: all 2^n subsets
        // of a patch apply and verify.
        let ks = kernels();
        let all = ids(&ks[0]);
        let edits = vec![
            Edit::Delete {
                kernel: 0,
                target: all[2],
            },
            Edit::OperandReplace {
                kernel: 0,
                target: all[1],
                arg: 1,
                new: Operand::ImmI32(5),
            },
            Edit::Copy {
                kernel: 0,
                source: all[0],
                before: all[1],
            },
        ];
        let p = Patch::from_edits(edits.clone());
        for mask in 0..(1u32 << edits.len()) {
            let keep: Vec<Edit> = edits
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, e)| *e)
                .collect();
            let sub = p.subset(&keep);
            let (out, _) = sub.apply(&ks);
            assert!(
                gevo_ir::verify::verify(&out[0]).is_ok(),
                "subset {mask:b} fails verification"
            );
        }
    }

    #[test]
    fn content_hash_is_order_sensitive_and_stable() {
        let ks = kernels();
        let all = ids(&ks[0]);
        let e1 = Edit::Delete {
            kernel: 0,
            target: all[1],
        };
        let e2 = Edit::Delete {
            kernel: 0,
            target: all[2],
        };
        let p1 = Patch::from_edits(vec![e1, e2]);
        let p2 = Patch::from_edits(vec![e1, e2]);
        let p3 = Patch::from_edits(vec![e2, e1]);
        assert_eq!(p1.content_hash(), p2.content_hash());
        assert_ne!(p1.content_hash(), p3.content_hash());
    }

    #[test]
    fn cond_replace_only_touches_cond_br() {
        let mut b = KernelBuilder::new("cb");
        let n = b.param_i32("n");
        let tid = b.special_i32(Special::ThreadId);
        let c = b.icmp_lt(tid.into(), Operand::Param(n));
        let t = b.new_block("t");
        let e = b.new_block("e");
        b.cond_br(c.into(), t, e);
        b.switch_to(t);
        b.ret();
        b.switch_to(e);
        b.ret();
        let k = b.finish();
        let term_id = k.blocks[0].term.id;
        let ret_id = k.blocks[1].term.id;

        let ok = Edit::CondReplace {
            kernel: 0,
            term: term_id,
            new: Operand::ImmBool(true),
        };
        let not_condbr = Edit::CondReplace {
            kernel: 0,
            term: ret_id,
            new: Operand::ImmBool(true),
        };
        let wrong_ty = Edit::CondReplace {
            kernel: 0,
            term: term_id,
            new: Operand::ImmI32(1),
        };
        let (out, applied) =
            Patch::from_edits(vec![ok, not_condbr, wrong_ty]).apply(std::slice::from_ref(&k));
        assert_eq!(applied, 1);
        match out[0].blocks[0].term.kind {
            TermKind::CondBr { cond, .. } => assert_eq!(cond, Operand::ImmBool(true)),
            _ => panic!("terminator shape preserved"),
        }
    }
}
