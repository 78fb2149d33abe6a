//! Kernels: the unit of compilation, mutation and launch.

use crate::inst::{
    BlockId, InstId, Instr, LocId, Operand, Reg, Special, TermKind, Terminator, LOC_NONE,
};
use crate::types::{ParamTy, Ty};

/// A formal kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Human-readable name (printed, never semantically meaningful).
    pub name: String,
    /// The parameter's type.
    pub ty: ParamTy,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Label for printing.
    pub name: String,
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// The closing control transfer.
    pub term: Terminator,
}

/// Where an instruction lives right now: block index and position within
/// the block. Positions are *not* stable across edits — use [`InstId`] for
/// stable references and [`Kernel::locate`] to resolve them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstPos {
    /// Index into [`Kernel::blocks`].
    pub block: usize,
    /// Index into [`Block::instrs`].
    pub index: usize,
}

/// A GPU kernel in gevo-ir form.
///
/// Kernels are built with [`crate::KernelBuilder`], verified with
/// [`crate::verify::verify`], executed by `gevo-gpu`, and mutated by
/// `gevo-engine` (which clones the pristine kernel and edits the clone).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (diagnostics only).
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Bytes of shared memory the kernel statically declares per block.
    pub shared_bytes: u32,
    /// Type of each virtual register, indexed by `Reg.0`.
    reg_tys: Vec<Ty>,
    /// Source-tag table; `LocId` indexes here. Entry 0 is the empty tag.
    pub locs: Vec<String>,
    /// Next unassigned instruction ID.
    next_inst: u32,
}

impl Kernel {
    /// Creates an empty kernel shell. Prefer [`crate::KernelBuilder`].
    #[must_use]
    pub fn empty(name: &str) -> Kernel {
        Kernel {
            name: name.to_string(),
            params: Vec::new(),
            blocks: Vec::new(),
            shared_bytes: 0,
            reg_tys: Vec::new(),
            locs: vec![String::new()],
            next_inst: 0,
        }
    }

    /// Number of virtual registers allocated.
    #[must_use]
    pub fn reg_count(&self) -> usize {
        self.reg_tys.len()
    }

    /// The type of a register.
    ///
    /// # Panics
    /// Panics if the register was never allocated.
    #[must_use]
    pub fn reg_ty(&self, r: Reg) -> Ty {
        self.reg_tys[r.0 as usize]
    }

    /// Allocates a fresh register of type `ty`.
    pub fn alloc_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(u32::try_from(self.reg_tys.len()).expect("register count overflow"));
        self.reg_tys.push(ty);
        r
    }

    /// Allocates a fresh instruction ID (monotonic, never reused).
    pub fn fresh_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst);
        self.next_inst += 1;
        id
    }

    /// Interns a source tag and returns its ID.
    pub fn intern_loc(&mut self, tag: &str) -> LocId {
        if tag.is_empty() {
            return LOC_NONE;
        }
        if let Some(i) = self.locs.iter().position(|l| l == tag) {
            return LocId(u16::try_from(i).expect("loc table overflow"));
        }
        self.locs.push(tag.to_string());
        LocId(u16::try_from(self.locs.len() - 1).expect("loc table overflow"))
    }

    /// The source tag string for a `LocId`.
    #[must_use]
    pub fn loc_str(&self, loc: LocId) -> &str {
        self.locs.get(loc.0 as usize).map_or("", |s| s.as_str())
    }

    /// The static type of an operand in this kernel.
    ///
    /// # Panics
    /// Panics if a register or parameter index is out of range.
    #[must_use]
    pub fn operand_ty(&self, op: &Operand) -> Ty {
        match op {
            Operand::Reg(r) => self.reg_ty(*r),
            Operand::ImmI32(_) => Ty::I32,
            Operand::ImmI64(_) => Ty::I64,
            Operand::ImmF32(_) => Ty::F32,
            Operand::ImmBool(_) => Ty::Bool,
            Operand::Special(_) => Ty::I32,
            Operand::Param(i) => self.params[*i as usize].ty.value_ty(),
        }
    }

    /// Total number of body (non-terminator) instructions.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Iterates over every body instruction with its current position.
    pub fn iter_insts(&self) -> impl Iterator<Item = (InstPos, &Instr)> {
        self.blocks.iter().enumerate().flat_map(|(bi, b)| {
            b.instrs.iter().enumerate().map(move |(ii, inst)| {
                (
                    InstPos {
                        block: bi,
                        index: ii,
                    },
                    inst,
                )
            })
        })
    }

    /// Resolves a (body) instruction ID to its current position, scanning.
    #[must_use]
    pub fn locate(&self, id: InstId) -> Option<InstPos> {
        self.iter_insts()
            .find(|(_, inst)| inst.id == id)
            .map(|(pos, _)| pos)
    }

    /// The instruction at a position, if in bounds.
    #[must_use]
    pub fn inst_at(&self, pos: InstPos) -> Option<&Instr> {
        self.blocks.get(pos.block)?.instrs.get(pos.index)
    }

    /// Finds the terminator with the given ID.
    #[must_use]
    pub fn terminator(&self, id: InstId) -> Option<&Terminator> {
        self.blocks.iter().map(|b| &b.term).find(|t| t.id == id)
    }

    /// Mutable access to the terminator with the given ID.
    pub fn terminator_mut(&mut self, id: InstId) -> Option<&mut Terminator> {
        self.blocks
            .iter_mut()
            .map(|b| &mut b.term)
            .find(|t| t.id == id)
    }

    /// IDs of all conditional-branch terminators (condition-replacement
    /// targets for the mutation engine).
    #[must_use]
    pub fn cond_br_ids(&self) -> Vec<InstId> {
        self.blocks
            .iter()
            .filter(|b| matches!(b.term.kind, TermKind::CondBr { .. }))
            .map(|b| b.term.id)
            .collect()
    }

    /// Removes the instruction with the given ID. Returns it, or `None` if
    /// absent (edits referring to already-deleted instructions are skipped
    /// by the engine, mirroring GEVO's silent-skip semantics).
    pub fn remove_inst(&mut self, id: InstId) -> Option<Instr> {
        let pos = self.locate(id)?;
        Some(self.blocks[pos.block].instrs.remove(pos.index))
    }

    /// Inserts an instruction immediately before the instruction with ID
    /// `before`. Returns false (and drops nothing — the instruction is
    /// returned to the caller untouched via `Err`) if `before` is absent.
    ///
    /// # Errors
    /// Returns the instruction back if the anchor does not exist.
    pub fn insert_before(&mut self, before: InstId, inst: Instr) -> Result<(), Instr> {
        match self.locate(before) {
            Some(pos) => {
                self.blocks[pos.block].instrs.insert(pos.index, inst);
                Ok(())
            }
            None => Err(inst),
        }
    }

    /// Registers of a given type, in allocation order (operand-replacement
    /// candidate pool).
    #[must_use]
    pub fn regs_of_ty(&self, ty: Ty) -> Vec<Reg> {
        self.reg_tys
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == ty)
            .map(|(i, _)| Reg(u32::try_from(i).expect("register index overflow")))
            .collect()
    }

    /// All operands appearing anywhere in the kernel with the given type
    /// (richer operand-replacement pool: registers, params, specials,
    /// immediates already present in the code).
    #[must_use]
    pub fn operand_pool(&self, ty: Ty) -> Vec<Operand> {
        let mut pool: Vec<Operand> = Vec::new();
        let push = |op: Operand, pool: &mut Vec<Operand>| {
            if !pool.contains(&op) {
                pool.push(op);
            }
        };
        for r in self.regs_of_ty(ty) {
            push(Operand::Reg(r), &mut pool);
        }
        for (i, p) in self.params.iter().enumerate() {
            if p.ty.value_ty() == ty {
                push(
                    Operand::Param(u16::try_from(i).expect("param index overflow")),
                    &mut pool,
                );
            }
        }
        if ty == Ty::I32 {
            for s in Special::ALL {
                push(Operand::Special(s), &mut pool);
            }
        }
        for (_, inst) in self.iter_insts() {
            for a in &inst.args {
                if !a.is_reg() && self.operand_ty(a) == ty {
                    push(*a, &mut pool);
                }
            }
        }
        pool
    }

    /// The IDs of every body instruction, in layout order.
    #[must_use]
    pub fn inst_ids(&self) -> Vec<InstId> {
        self.iter_insts().map(|(_, i)| i.id).collect()
    }

    /// Highest instruction ID ever allocated plus one; IDs below this bound
    /// belong to the pristine kernel or earlier insertions.
    #[must_use]
    pub fn inst_id_bound(&self) -> u32 {
        self.next_inst
    }

    /// Pushes a finished block, used by the builder.
    pub(crate) fn push_block(&mut self, block: Block) -> BlockId {
        let id = BlockId(u32::try_from(self.blocks.len()).expect("block count overflow"));
        self.blocks.push(block);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::inst::Op;
    use crate::types::AddrSpace;

    fn small_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let tid64 = b.sext(tid.into());
        let off = b.mul_i64(tid64.into(), Operand::ImmI64(4));
        let addr = b.add_i64(Operand::Param(out), off.into());
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        b.finish()
    }

    #[test]
    fn ids_are_stable_and_unique() {
        let k = small_kernel();
        let ids = k.inst_ids();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate instruction IDs");
    }

    #[test]
    fn locate_and_remove() {
        let mut k = small_kernel();
        let ids = k.inst_ids();
        let victim = ids[1];
        let n = k.inst_count();
        let removed = k.remove_inst(victim).expect("instruction exists");
        assert_eq!(removed.id, victim);
        assert_eq!(k.inst_count(), n - 1);
        assert!(k.locate(victim).is_none());
        assert!(k.remove_inst(victim).is_none(), "second removal is a no-op");
    }

    #[test]
    fn insert_before_anchors() {
        let mut k = small_kernel();
        let ids = k.inst_ids();
        let anchor = ids[2];
        let pos_before = k.locate(anchor).unwrap();
        let src = k.inst_at(k.locate(ids[0]).unwrap()).unwrap().clone();
        let fresh = k.fresh_inst_id();
        let clone = src.clone_with_id(fresh);
        k.insert_before(anchor, clone).expect("anchor exists");
        let pos_after = k.locate(anchor).unwrap();
        assert_eq!(pos_after.index, pos_before.index + 1);
        assert_eq!(k.locate(fresh).unwrap().index, pos_before.index);
    }

    #[test]
    fn insert_before_missing_anchor_returns_inst() {
        let mut k = small_kernel();
        let fresh = k.fresh_inst_id();
        let inst = Instr {
            id: fresh,
            dst: None,
            op: Op::SyncThreads,
            args: vec![],
            loc: LOC_NONE,
        };
        let missing = InstId(9999);
        let res = k.insert_before(missing, inst);
        assert!(res.is_err());
    }

    #[test]
    fn operand_pool_is_type_homogeneous() {
        let k = small_kernel();
        for ty in [Ty::I32, Ty::I64, Ty::F32, Ty::Bool] {
            for op in k.operand_pool(ty) {
                assert_eq!(k.operand_ty(&op), ty);
            }
        }
    }

    #[test]
    fn loc_interning_dedups() {
        let mut k = Kernel::empty("k");
        let a = k.intern_loc("site_a");
        let b = k.intern_loc("site_b");
        let a2 = k.intern_loc("site_a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(k.loc_str(a), "site_a");
        assert_eq!(k.loc_str(LOC_NONE), "");
    }
}
