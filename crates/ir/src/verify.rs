//! Static well-formedness checks for kernels.
//!
//! Hand-built kernels must verify cleanly. *Mutated* kernels are also run
//! through the verifier before simulation: edits that produce structurally
//! broken code (wrong arity, type-incompatible operands, dangling branch
//! targets) are rejected cheaply, playing the role of "fails to compile"
//! in GEVO's pipeline. Dynamic properties (use of uninitialized registers,
//! out-of-bounds addresses, barrier divergence) are deliberately *not*
//! rejected here — those surface as wrong answers or runtime faults during
//! fitness evaluation, exactly as on real hardware.

use crate::inst::{Instr, Op, Operand, TermKind};
use crate::kernel::Kernel;
use crate::types::Ty;
use std::fmt;

/// A structural defect found by [`verify`].
///
/// Deliberately all-`Copy` (`&'static str`, no heap): `gevo-gpu` embeds
/// this enum in its `ExecError`, whose by-value size and drop glue are
/// priced on the simulator's per-operand hot path. Growing these fields
/// to `String` measurably slows every kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// An instruction's operand count does not match its op.
    Arity {
        /// Offending instruction ID (as `u32` for compactness).
        inst: u32,
        /// What the op requires.
        expected: usize,
        /// What was found.
        found: usize,
    },
    /// An operand's type is incompatible with its position.
    OperandType {
        /// Offending instruction ID.
        inst: u32,
        /// Operand index.
        arg: usize,
        /// Human-readable expectation.
        expected: &'static str,
        /// The type found.
        found: Ty,
    },
    /// An instruction has a destination although its op writes none,
    /// or none although its op writes one.
    DstPresence {
        /// Offending instruction ID.
        inst: u32,
        /// Whether the op writes a register.
        expected: bool,
    },
    /// The destination register's type does not match the op result.
    DstType {
        /// Offending instruction ID.
        inst: u32,
        /// Expected result type.
        expected: Ty,
        /// The destination register's type.
        found: Ty,
    },
    /// A register or parameter index is out of range.
    DanglingRef {
        /// Offending instruction ID.
        inst: u32,
        /// Description of the dangling entity.
        what: &'static str,
    },
    /// A branch targets a nonexistent block.
    BadBranchTarget {
        /// Block whose terminator is broken.
        block: usize,
    },
    /// A `CondBr` condition is not `b1`.
    BadCondType {
        /// Block whose terminator is broken.
        block: usize,
        /// The type found.
        found: Ty,
    },
    /// Kernel has no blocks.
    Empty,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Arity {
                inst,
                expected,
                found,
            } => write!(
                f,
                "inst #{inst}: expected {expected} operands, found {found}"
            ),
            VerifyError::OperandType {
                inst,
                arg,
                expected,
                found,
            } => write!(
                f,
                "inst #{inst}: operand {arg} expected {expected}, found {found}"
            ),
            VerifyError::DstPresence { inst, expected } => {
                let (op, has) = if *expected {
                    ("writes a register", "no")
                } else {
                    ("writes no register", "a")
                };
                write!(f, "inst #{inst}: op {op} but has {has} destination")
            }
            VerifyError::DstType {
                inst,
                expected,
                found,
            } => write!(
                f,
                "inst #{inst}: destination expected {expected}, found {found}"
            ),
            VerifyError::DanglingRef { inst, what } => {
                write!(f, "inst #{inst}: dangling {what}")
            }
            VerifyError::BadBranchTarget { block } => {
                write!(f, "block {block}: branch to nonexistent block")
            }
            VerifyError::BadCondType { block, found } => {
                write!(
                    f,
                    "block {block}: branch condition has type {found}, expected b1"
                )
            }
            VerifyError::Empty => write!(f, "kernel has no blocks"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks one kernel, returning the first defect found.
///
/// # Errors
/// Returns the first [`VerifyError`] encountered, scanning blocks in
/// layout order.
pub fn verify(kernel: &Kernel) -> Result<(), VerifyError> {
    if kernel.blocks.is_empty() {
        return Err(VerifyError::Empty);
    }
    let n_blocks = kernel.blocks.len();
    for (bi, block) in kernel.blocks.iter().enumerate() {
        for inst in &block.instrs {
            verify_inst(kernel, inst)?;
        }
        match block.term.kind {
            TermKind::Br(t) => {
                if t.index() >= n_blocks {
                    return Err(VerifyError::BadBranchTarget { block: bi });
                }
            }
            TermKind::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                if if_true.index() >= n_blocks || if_false.index() >= n_blocks {
                    return Err(VerifyError::BadBranchTarget { block: bi });
                }
                if !operand_in_range(kernel, &cond) {
                    return Err(VerifyError::DanglingRef {
                        inst: block.term.id.0,
                        what: "branch condition operand",
                    });
                }
                let ty = kernel.operand_ty(&cond);
                if ty != Ty::Bool {
                    return Err(VerifyError::BadCondType {
                        block: bi,
                        found: ty,
                    });
                }
            }
            TermKind::Ret => {}
        }
    }
    Ok(())
}

fn operand_in_range(kernel: &Kernel, op: &Operand) -> bool {
    match op {
        Operand::Reg(r) => (r.0 as usize) < kernel.reg_count(),
        Operand::Param(p) => (*p as usize) < kernel.params.len(),
        _ => true,
    }
}

fn verify_inst(kernel: &Kernel, inst: &Instr) -> Result<(), VerifyError> {
    let id = inst.id.0;
    if inst.args.len() != inst.op.arity() {
        return Err(VerifyError::Arity {
            inst: id,
            expected: inst.op.arity(),
            found: inst.args.len(),
        });
    }
    if inst.dst.is_some() != inst.op.has_dst() {
        return Err(VerifyError::DstPresence {
            inst: id,
            expected: inst.op.has_dst(),
        });
    }
    for a in &inst.args {
        if !operand_in_range(kernel, a) {
            return Err(VerifyError::DanglingRef {
                inst: id,
                what: "operand",
            });
        }
    }
    if let Some(d) = inst.dst {
        if (d.0 as usize) >= kernel.reg_count() {
            return Err(VerifyError::DanglingRef {
                inst: id,
                what: "destination register",
            });
        }
    }
    let t = |i: usize| kernel.operand_ty(&inst.args[i]);
    let expect = |i: usize, pred: fn(Ty) -> bool, what: &'static str| {
        let ty = t(i);
        if pred(ty) {
            Ok(ty)
        } else {
            Err(VerifyError::OperandType {
                inst: id,
                arg: i,
                expected: what,
                found: ty,
            })
        }
    };
    let is_int = |ty: Ty| matches!(ty, Ty::I32 | Ty::I64);
    let dst_ty = inst.dst.map(|d| kernel.reg_ty(d));
    let check_dst = |expected: Ty| -> Result<(), VerifyError> {
        match dst_ty {
            Some(found) if found != expected => Err(VerifyError::DstType {
                inst: id,
                expected,
                found,
            }),
            _ => Ok(()),
        }
    };

    match inst.op {
        Op::IBin(op) => {
            let ta = t(0);
            let tb = t(1);
            let ok = (is_int(ta) || (ta == Ty::Bool && op.is_logical())) && ta == tb;
            if !ok {
                return Err(VerifyError::OperandType {
                    inst: id,
                    arg: 1,
                    expected: "matching integer (or b1 for logical ops)",
                    found: tb,
                });
            }
            check_dst(ta)?;
        }
        Op::FBin(_) => {
            expect(0, |ty| ty == Ty::F32, "f32")?;
            expect(1, |ty| ty == Ty::F32, "f32")?;
            check_dst(Ty::F32)?;
        }
        Op::Icmp(_) => {
            let ta = expect(0, is_int, "integer")?;
            let tb = t(1);
            if ta != tb {
                return Err(VerifyError::OperandType {
                    inst: id,
                    arg: 1,
                    expected: "matching integer",
                    found: tb,
                });
            }
            check_dst(Ty::Bool)?;
        }
        Op::Fcmp(_) => {
            expect(0, |ty| ty == Ty::F32, "f32")?;
            expect(1, |ty| ty == Ty::F32, "f32")?;
            check_dst(Ty::Bool)?;
        }
        Op::Select => {
            expect(0, |ty| ty == Ty::Bool, "b1")?;
            let ta = t(1);
            let tb = t(2);
            if ta != tb {
                return Err(VerifyError::OperandType {
                    inst: id,
                    arg: 2,
                    expected: "matching arm type",
                    found: tb,
                });
            }
            check_dst(ta)?;
        }
        Op::Mov => {
            check_dst(t(0))?;
        }
        Op::Not => {
            let ta = expect(0, |ty| ty != Ty::F32, "integer or b1")?;
            check_dst(ta)?;
        }
        Op::Neg => {
            let ta = expect(0, is_int, "integer")?;
            check_dst(ta)?;
        }
        Op::FNeg => {
            expect(0, |ty| ty == Ty::F32, "f32")?;
            check_dst(Ty::F32)?;
        }
        Op::Sext => {
            expect(0, |ty| ty == Ty::I32, "i32")?;
            check_dst(Ty::I64)?;
        }
        Op::Trunc => {
            expect(0, |ty| ty == Ty::I64, "i64")?;
            check_dst(Ty::I32)?;
        }
        Op::SiToFp => {
            expect(0, |ty| ty == Ty::I32, "i32")?;
            check_dst(Ty::F32)?;
        }
        Op::FpToSi => {
            expect(0, |ty| ty == Ty::F32, "f32")?;
            check_dst(Ty::I32)?;
        }
        Op::ZextBool => {
            expect(0, |ty| ty == Ty::Bool, "b1")?;
            check_dst(Ty::I32)?;
        }
        Op::Load { ty, .. } => {
            expect(0, |t| t == Ty::I64, "i64 address")?;
            check_dst(ty.value_ty())?;
        }
        Op::Store { ty, .. } => {
            expect(0, |t| t == Ty::I64, "i64 address")?;
            let tv = t(1);
            if tv != ty.value_ty() {
                return Err(VerifyError::OperandType {
                    inst: id,
                    arg: 1,
                    expected: "value matching store width",
                    found: tv,
                });
            }
        }
        Op::AtomicAdd { .. } | Op::AtomicMax { .. } => {
            expect(0, |t| t == Ty::I64, "i64 address")?;
            expect(1, |t| t == Ty::I32, "i32")?;
            check_dst(Ty::I32)?;
        }
        Op::AtomicCas { .. } => {
            expect(0, |t| t == Ty::I64, "i64 address")?;
            expect(1, |t| t == Ty::I32, "i32")?;
            expect(2, |t| t == Ty::I32, "i32")?;
            check_dst(Ty::I32)?;
        }
        Op::ShflSync | Op::ShflUpSync => {
            let ta = t(0);
            expect(1, |t| t == Ty::I32, "i32 lane")?;
            check_dst(ta)?;
        }
        Op::BallotSync => {
            expect(0, |ty| ty == Ty::Bool, "b1")?;
            check_dst(Ty::I32)?;
        }
        Op::ActiveMask => {
            check_dst(Ty::I32)?;
        }
        Op::SyncThreads => {}
        Op::RngNext => {
            expect(0, |ty| ty == Ty::I64, "i64")?;
            expect(1, |ty| ty == Ty::I64, "i64")?;
            check_dst(Ty::I32)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::inst::{BlockId, InstId, Operand, Special, Terminator, LOC_NONE};
    use crate::types::AddrSpace;

    fn good_kernel() -> Kernel {
        let mut b = KernelBuilder::new("good");
        let p = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(p), tid.into(), 4);
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        b.finish()
    }

    #[test]
    fn clean_kernel_verifies() {
        assert_eq!(verify(&good_kernel()), Ok(()));
    }

    #[test]
    fn empty_kernel_rejected() {
        let k = Kernel::empty("nothing");
        assert_eq!(verify(&k), Err(VerifyError::Empty));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut k = good_kernel();
        // Drop an operand from the store.
        let victim = k
            .iter_insts()
            .find(|(_, i)| matches!(i.op, Op::Store { .. }))
            .map(|(_, i)| i.id)
            .unwrap();
        let pos = k.locate(victim).unwrap();
        k.blocks[pos.block].instrs[pos.index].args.pop();
        assert!(matches!(verify(&k), Err(VerifyError::Arity { .. })));
    }

    #[test]
    fn operand_type_mismatch_detected() {
        let mut k = good_kernel();
        // Make the store address an i32 immediate (addresses must be i64).
        let victim = k
            .iter_insts()
            .find(|(_, i)| matches!(i.op, Op::Store { .. }))
            .map(|(_, i)| i.id)
            .unwrap();
        let pos = k.locate(victim).unwrap();
        k.blocks[pos.block].instrs[pos.index].args[0] = Operand::ImmI32(0);
        assert!(matches!(verify(&k), Err(VerifyError::OperandType { .. })));
    }

    #[test]
    fn bad_branch_target_detected() {
        let mut k = good_kernel();
        k.blocks[0].term = Terminator {
            id: InstId(999),
            kind: crate::inst::TermKind::Br(BlockId(42)),
            loc: LOC_NONE,
        };
        assert!(matches!(
            verify(&k),
            Err(VerifyError::BadBranchTarget { .. })
        ));
    }

    #[test]
    fn non_bool_condition_detected() {
        let mut b = KernelBuilder::new("k");
        let c = b.icmp_eq(Operand::ImmI32(0), Operand::ImmI32(0));
        let t = b.new_block("t");
        let f = b.new_block("f");
        b.cond_br(c.into(), t, f);
        b.switch_to(t);
        b.ret();
        b.switch_to(f);
        b.ret();
        let mut k = b.finish();
        // Corrupt the condition to an i32 immediate.
        if let crate::inst::TermKind::CondBr { cond, .. } = &mut k.blocks[0].term.kind {
            *cond = Operand::ImmI32(1);
        }
        assert!(matches!(verify(&k), Err(VerifyError::BadCondType { .. })));
    }

    #[test]
    fn dangling_register_detected() {
        let mut k = good_kernel();
        let victim = k.inst_ids()[0];
        let pos = k.locate(victim).unwrap();
        k.blocks[pos.block].instrs[pos.index].args[0] = Operand::Reg(crate::inst::Reg(9999));
        assert!(matches!(verify(&k), Err(VerifyError::DanglingRef { .. })));
    }

    #[test]
    fn dst_type_mismatch_detected() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::ImmI32(5));
        let y = b.icmp_eq(x.into(), Operand::ImmI32(5));
        b.ret();
        let mut k = b.finish();
        let _ = y;
        // Retarget the icmp's destination to the i32 register.
        let pos = k
            .iter_insts()
            .find(|(_, i)| matches!(i.op, Op::Icmp(_)))
            .map(|(p, _)| p)
            .unwrap();
        k.blocks[pos.block].instrs[pos.index].dst = Some(x);
        assert!(matches!(verify(&k), Err(VerifyError::DstType { .. })));
    }

    /// A hand-edited instruction whose destination presence does not
    /// match its op: a load with no destination, a store with one.
    #[test]
    fn dst_presence_mismatch_detected() {
        let mut b = KernelBuilder::new("k");
        let p = b.param_ptr("out", AddrSpace::Global);
        let v = b.load_global_i32(Operand::Param(p));
        b.store_global_i32(Operand::Param(p), v.into());
        b.ret();
        let k = b.finish();
        assert_eq!(verify(&k), Ok(()));
        let at = |op: fn(&Op) -> bool| {
            k.iter_insts()
                .find(|(_, i)| op(&i.op))
                .map(|(p, _)| p)
                .unwrap()
        };
        let (load, store) = (
            at(|op| matches!(op, Op::Load { .. })),
            at(|op| matches!(op, Op::Store { .. })),
        );

        let mut no_dst = k.clone();
        no_dst.blocks[load.block].instrs[load.index].dst = None;
        let err = verify(&no_dst).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::DstPresence { expected: true, .. }
        ));
        assert!(err
            .to_string()
            .contains("writes a register but has no destination"));

        let mut with_dst = k.clone();
        with_dst.blocks[store.block].instrs[store.index].dst = Some(v);
        assert!(matches!(
            verify(&with_dst),
            Err(VerifyError::DstPresence {
                expected: false,
                ..
            })
        ));
    }
}
