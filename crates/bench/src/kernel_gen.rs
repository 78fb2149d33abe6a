//! Deterministic pseudo-random kernel generation for the differential
//! property tests (`tests/compile_diff.rs`, `tests/scratch_reuse.rs`).

use gevo_ir::{
    rng, CmpPred, FloatBinOp, IntBinOp, Kernel, KernelBuilder, Op, Operand, Reg, Special, Ty,
};

const INT_OPS: [IntBinOp; 13] = [
    IntBinOp::Add,
    IntBinOp::Sub,
    IntBinOp::Mul,
    IntBinOp::Div,
    IntBinOp::Rem,
    IntBinOp::Min,
    IntBinOp::Max,
    IntBinOp::And,
    IntBinOp::Or,
    IntBinOp::Xor,
    IntBinOp::Shl,
    IntBinOp::AShr,
    IntBinOp::LShr,
];
const LOGICAL_OPS: [IntBinOp; 3] = [IntBinOp::And, IntBinOp::Or, IntBinOp::Xor];
const FLOAT_OPS: [FloatBinOp; 6] = [
    FloatBinOp::Add,
    FloatBinOp::Sub,
    FloatBinOp::Mul,
    FloatBinOp::Div,
    FloatBinOp::Min,
    FloatBinOp::Max,
];
const PREDS: [CmpPred; 6] = [
    CmpPred::Eq,
    CmpPred::Ne,
    CmpPred::Lt,
    CmpPred::Le,
    CmpPred::Gt,
    CmpPred::Ge,
];
/// Float immediates: zero (division by it), a fraction, a value out of
/// `i32` range (saturating `fptosi`) and NaN.
const FLOAT_IMMS: [f32; 4] = [0.0, -1.5, 3.0e9, f32::NAN];

/// The generator's draw stream: [`gevo_ir::rng::mix64`] over a counter.
struct Draws {
    seed: u64,
    ctr: u64,
}

impl Draws {
    fn below(&mut self, bound: u64) -> u64 {
        self.ctr += 1;
        rng::mix64(self.seed, self.ctr) % bound.max(1)
    }

    #[allow(clippy::cast_possible_truncation)] // pool/op indices are tiny
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Typed register pools the generator samples operands from.
struct Pools {
    ints: Vec<Reg>,
    longs: Vec<Reg>,
    floats: Vec<Reg>,
    bools: Vec<Reg>,
}

/// Emits one random scalar op over the pools and adds its result to
/// the pool of its type.
#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)] // tiny draws
fn scalar_op(b: &mut KernelBuilder, draws: &mut Draws, pools: &mut Pools) {
    match draws.below(12) {
        0..=3 => {
            let a = draws.pick(&pools.ints);
            let rhs = if draws.below(3) == 0 {
                // -8..=40: negative, zero and past-the-width shifts.
                Operand::ImmI32(draws.below(49) as i32 - 8)
            } else {
                draws.pick(&pools.ints).into()
            };
            pools.ints.push(b.ibin(draws.pick(&INT_OPS), a.into(), rhs));
        }
        4 if draws.below(2) == 0 => pools.longs.push(b.sext(draws.pick(&pools.ints).into())),
        4 => {
            let a = draws.pick(&pools.longs);
            let rhs = if draws.below(3) == 0 {
                Operand::ImmI64(draws.below(81) as i64 - 8)
            } else {
                draws.pick(&pools.longs).into()
            };
            pools
                .longs
                .push(b.ibin(draws.pick(&INT_OPS), a.into(), rhs));
        }
        5 => pools.ints.push(b.trunc(draws.pick(&pools.longs).into())),
        6 if draws.below(2) == 0 => pools.floats.push(b.sitofp(draws.pick(&pools.ints).into())),
        6 => {
            let a = draws.pick(&pools.floats);
            let rhs = if draws.below(3) == 0 {
                Operand::f32(draws.pick(&FLOAT_IMMS))
            } else {
                draws.pick(&pools.floats).into()
            };
            pools
                .floats
                .push(b.fbin(draws.pick(&FLOAT_OPS), a.into(), rhs));
        }
        7 => pools.ints.push(b.fptosi(draws.pick(&pools.floats).into())),
        8 if draws.below(2) == 0 => {
            let (x, y) = (draws.pick(&pools.ints), draws.pick(&pools.ints));
            pools
                .bools
                .push(b.icmp(draws.pick(&PREDS), x.into(), y.into()));
        }
        8 => {
            let (x, y) = (draws.pick(&pools.floats), draws.pick(&pools.floats));
            pools
                .bools
                .push(b.fcmp(draws.pick(&PREDS), x.into(), y.into()));
        }
        9 if draws.below(2) == 0 => {
            let (c, t, f) = (
                draws.pick(&pools.bools),
                draws.pick(&pools.ints),
                draws.pick(&pools.ints),
            );
            pools.ints.push(b.select(c.into(), t.into(), f.into()));
        }
        9 => {
            let (x, y) = (draws.pick(&pools.bools), draws.pick(&pools.bools));
            pools
                .bools
                .push(b.ibin(draws.pick(&LOGICAL_OPS), x.into(), y.into()));
        }
        10 => match draws.below(5) {
            0 => pools.ints.push(b.not(draws.pick(&pools.ints).into())),
            1 => {
                let a = draws.pick(&pools.ints).into();
                pools
                    .ints
                    .push(b.emit(Op::Neg, vec![a], Some(Ty::I32)).expect("dst"));
            }
            2 => {
                let a = draws.pick(&pools.floats).into();
                pools
                    .floats
                    .push(b.emit(Op::FNeg, vec![a], Some(Ty::F32)).expect("dst"));
            }
            3 => pools.bools.push(b.not(draws.pick(&pools.bools).into())),
            _ => pools
                .ints
                .push(b.zext_bool(draws.pick(&pools.bools).into())),
        },
        _ => {
            let s = draws.pick(&pools.longs);
            let c: Operand = if draws.below(2) == 0 {
                Operand::ImmI64(draws.below(1000) as i64)
            } else {
                draws.pick(&pools.longs).into()
            };
            pools.ints.push(b.rng_next(s.into(), c));
        }
    }
}

/// Deterministic pseudo-random kernel generator driven by
/// [`gevo_ir::rng::mix64`]: straight-line scalar code over four typed
/// register pools — every `IntBinOp` on `i32` and `i64` (division by
/// zero and shift counts past the width included), `f32` arithmetic and
/// compares with NaN and out-of-range casts, `b1` logic, `select`, the
/// unary ops, the conversions between the types and `rng_next` — then
/// warp intrinsics (shuffle + ballot), shared scratch traffic, a
/// barrier, and a data-dependent diamond, closed by a per-thread global
/// store of an `i32` that every pool feeds. Everything the interpreter
/// dispatches on, in one kernel family; the kernels never fault.
#[must_use]
#[allow(clippy::missing_panics_doc)]
pub fn random_kernel(seed: u64, n_ops: u64) -> Kernel {
    let mut draws = Draws { seed, ctr: 0 };
    let mut b = KernelBuilder::new("rand");
    b.shared_bytes(64 * 4);
    let out = b.param_ptr("out", gevo_ir::AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let lane = b.special_i32(Special::LaneId);
    // Warp-uniform but not constant: ops over it take O2's uniform path.
    let bid = b.special_i32(Special::BlockId);
    let mut pools = Pools {
        ints: vec![tid, lane, bid],
        longs: vec![b.sext(tid.into())],
        floats: vec![b.sitofp(lane.into())],
        bools: vec![b.icmp_lt(lane.into(), Operand::ImmI32(4))],
    };
    for _ in 0..n_ops {
        scalar_op(&mut b, &mut draws, &mut pools);
    }
    // Fold the newest value of every pool into the stored accumulator,
    // so each type's arithmetic reaches memory.
    let last = |pool: &[Reg]| pool[pool.len() - 1];
    let from_long = b.trunc(last(&pools.longs).into());
    let from_float = b.fptosi(last(&pools.floats).into());
    let from_bool = b.zext_bool(last(&pools.bools).into());
    let mut acc = last(&pools.ints);
    for r in [from_long, from_float, from_bool] {
        acc = b.ibin(IntBinOp::Xor, acc.into(), r.into());
    }

    // Shared scratch: publish, barrier, read a neighbour's slot.
    let my_slot = b.index_addr(Operand::ImmI64(0), tid.into(), 4);
    b.store_shared_i32(my_slot.into(), acc.into());
    b.sync_threads();
    let nb = b.ibin(IntBinOp::Xor, tid.into(), Operand::ImmI32(1));
    let nb_clamped = b.min(nb.into(), Operand::ImmI32(63));
    let nb_slot = b.index_addr(Operand::ImmI64(0), nb_clamped.into(), 4);
    let nb_val = b.load_shared_i32(nb_slot.into());

    // Warp intrinsics.
    let sel = b.and(lane.into(), Operand::ImmI32(3));
    let shuffled = b.shfl(acc.into(), sel.into());
    let odd = b.and(tid.into(), Operand::ImmI32(1));
    let is_odd = b.icmp_eq(odd.into(), Operand::ImmI32(1));
    let votes = b.ballot(is_odd.into());

    // Data-dependent diamond (divergent for mixed predicates).
    #[allow(clippy::cast_possible_wrap, clippy::cast_possible_truncation)]
    let pivot = Operand::ImmI32(draws.below(8) as i32);
    let cond = b.icmp_lt(acc.into(), pivot);
    let then_b = b.new_block("then");
    let else_b = b.new_block("else");
    let join_b = b.new_block("join");
    let result = b.fresh_reg(gevo_ir::Ty::I32);
    b.cond_br(cond.into(), then_b, else_b);
    b.switch_to(then_b);
    let t = b.add(nb_val.into(), shuffled.into());
    b.mov_to(result, t.into());
    b.br(join_b);
    b.switch_to(else_b);
    let e = b.sub(votes.into(), nb_val.into());
    b.mov_to(result, e.into());
    b.br(join_b);
    b.switch_to(join_b);
    let gtid = b.global_thread_id();
    let addr = b.index_addr(Operand::Param(out), gtid.into(), 4);
    b.store_global_i32(addr.into(), result.into());
    b.ret();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_kernels_verify() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            let k = random_kernel(seed, 12);
            assert!(gevo_ir::verify::verify(&k).is_ok(), "seed {seed}");
        }
    }

    /// Across a few dozen seeds the generator emits every scalar op
    /// (each `IntBinOp`, `FloatBinOp` and compare predicate apart), so
    /// the differentials built on it exercise all of them.
    #[test]
    fn generated_kernels_cover_every_scalar_op() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let k = random_kernel(seed, 32);
            assert!(gevo_ir::verify::verify(&k).is_ok(), "seed {seed}");
            for block in &k.blocks {
                seen.extend(block.instrs.iter().map(|i| format!("{:?}", i.op)));
            }
        }
        let mut want: Vec<Op> = INT_OPS.map(Op::IBin).to_vec();
        want.extend(FLOAT_OPS.map(Op::FBin));
        want.extend(PREDS.map(Op::Icmp));
        want.extend(PREDS.map(Op::Fcmp));
        want.extend([
            Op::Select,
            Op::Not,
            Op::Neg,
            Op::FNeg,
            Op::Sext,
            Op::Trunc,
            Op::SiToFp,
            Op::FpToSi,
            Op::ZextBool,
            Op::RngNext,
        ]);
        for op in want {
            assert!(seen.contains(&format!("{op:?}")), "{op:?} never generated");
        }
    }
}
