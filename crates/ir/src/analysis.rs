//! Dataflow analyses over a kernel's CFG, computed once at compile
//! time so the interpreter's hot loops can consume their results as
//! per-instruction facts.
//!
//! The only analysis so far is **warp-uniformity** ([`uniformity`]): a
//! register is *uniform* when, at every point a lane could read it, all
//! active lanes of the warp would read the same value. The GPU backend
//! bakes this into its lowered instruction stream so uniform compute,
//! loads and stores execute **once per warp** with a broadcast write
//! instead of a per-lane mask walk (DESIGN.md §3.8), and conditional
//! branches on uniform registers are decided with a single read.
//!
//! The lattice has two points per register — `uniform ⊒ varying` — and
//! the fixpoint is optimistic: start everything uniform, demote until
//! stable. Demotion is monotone (a register never returns to uniform),
//! so termination is bounded by `registers + blocks` demotions.
//!
//! Soundness rests on three facts about the executor:
//!
//! 1. Register files start as per-register typed sentinels, identical
//!    across lanes — an undefined read is uniform.
//! 2. Outside divergent control flow, a warp executes under its
//!    top-level mask, and that mask only shrinks warp-wide (a
//!    non-divergent `Ret` retires every active lane at once). A def
//!    executed there writes every lane any later read can see active.
//! 3. Inside divergent control flow a def covers only a sub-mask, so
//!    lanes reactivated at reconvergence could hold stale values —
//!    which is exactly why defs in divergent-flow blocks are demoted,
//!    and why a `Ret` reachable under divergence (which retires lanes
//!    piecemeal, leaving partial top-level masks behind) demotes
//!    every block.

use crate::cfg::Cfg;
use crate::inst::{BlockId, Op, Operand, Special, TermKind};
use crate::kernel::Kernel;

/// Results of the warp-uniformity analysis; see [`uniformity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformityInfo {
    /// Per-register verdict, indexed by `Reg.0`: `true` means every
    /// reaching def (and the initial sentinel) gives all active lanes
    /// the same value.
    pub uniform_regs: Vec<bool>,
    /// Per-block flag: the block can execute under a divergence frame
    /// (it lies in the influence region of some non-uniform branch), so
    /// defs inside it only cover a sub-mask of the warp.
    pub div_flow: Vec<bool>,
}

impl UniformityInfo {
    /// True when reading `op` yields the same value in every active
    /// lane: immediates and parameters trivially, lane-independent
    /// specials, and registers the fixpoint proved uniform.
    #[must_use]
    pub fn operand_uniform(&self, op: &Operand) -> bool {
        match op {
            Operand::Reg(r) => self
                .uniform_regs
                .get(r.0 as usize)
                .copied()
                .unwrap_or(false),
            Operand::ImmI32(_)
            | Operand::ImmI64(_)
            | Operand::ImmF32(_)
            | Operand::ImmBool(_)
            | Operand::Param(_) => true,
            Operand::Special(s) => !matches!(s, Special::ThreadId | Special::LaneId),
        }
    }
}

/// Whether a def of this op yields the same value in every lane that
/// executes it, assuming every operand read is uniform. Atomics return
/// per-lane serialization results and shuffles read other lanes'
/// (possibly stale) registers, so neither is ever uniform; ballots and
/// `activemask` derive from the active mask itself, which all active
/// lanes share.
fn def_uniform_given_uniform_sources(op: Op) -> bool {
    match op {
        Op::AtomicAdd { .. } | Op::AtomicMax { .. } | Op::AtomicCas { .. } => false,
        Op::ShflSync | Op::ShflUpSync => false,
        // Everything else (pure scalar compute, RNG mixing, loads from
        // a uniform address, ballots/activemask) maps uniform inputs —
        // or the shared mask — to one warp-wide value.
        _ => true,
    }
}

/// Ops whose result is uniform regardless of operand uniformity, because
/// it is computed from the warp's shared active mask and broadcast to
/// every active lane.
fn def_uniform_unconditionally(op: Op) -> bool {
    matches!(op, Op::BallotSync | Op::ActiveMask)
}

/// Computes warp-uniformity facts for `kernel` (with its prebuilt
/// [`Cfg`]) by optimistic fixpoint. See the module docs for the lattice
/// and the soundness argument; DESIGN.md §3.8 for how the GPU backend
/// consumes the result.
#[must_use]
pub fn uniformity(kernel: &Kernel, cfg: &Cfg) -> UniformityInfo {
    let n_blocks = kernel.blocks.len();
    let mut info = UniformityInfo {
        uniform_regs: vec![true; kernel.reg_count()],
        div_flow: vec![false; n_blocks],
    };
    loop {
        let mut changed = false;

        // 1. Divergent-flow regions: every block reachable from a
        //    non-uniform branch's successors without passing through its
        //    reconvergence point can run under a divergence frame.
        for (b, block) in kernel.blocks.iter().enumerate() {
            let TermKind::CondBr {
                cond,
                if_true,
                if_false,
            } = block.term.kind
            else {
                continue;
            };
            if info.operand_uniform(&cond) {
                continue;
            }
            let reconv = cfg.reconvergence(BlockId(u32::try_from(b).expect("block idx")));
            for start in [if_true, if_false] {
                changed |= mark_influence(kernel, &mut info.div_flow, start, reconv);
            }
        }

        // A `Ret` under divergence retires lanes piecemeal: the warp's
        // top-level mask afterwards is partial, so *no* block is safe
        // from sub-mask execution. Demote everything (conservative; the
        // Table-1 kernels never take this path — their exits are
        // straight-line).
        let partial_exit = kernel
            .blocks
            .iter()
            .enumerate()
            .any(|(b, blk)| info.div_flow[b] && matches!(blk.term.kind, TermKind::Ret));
        if partial_exit && !info.div_flow.iter().all(|&d| d) {
            info.div_flow.iter_mut().for_each(|d| *d = true);
            changed = true;
        }

        // 2. Demote registers: a def under divergent flow, with a
        //    varying source, or of an inherently per-lane op makes its
        //    destination varying everywhere (registers are multi-def;
        //    uniformity must hold for every reaching def).
        for (b, block) in kernel.blocks.iter().enumerate() {
            for inst in &block.instrs {
                let Some(dst) = inst.dst else { continue };
                if !info.uniform_regs[dst.0 as usize] {
                    continue;
                }
                let uniform = !info.div_flow[b]
                    && (def_uniform_unconditionally(inst.op)
                        || (def_uniform_given_uniform_sources(inst.op)
                            && inst.args.iter().all(|a| info.operand_uniform(a))));
                if !uniform {
                    info.uniform_regs[dst.0 as usize] = false;
                    changed = true;
                }
            }
        }

        if !changed {
            return info;
        }
    }
}

/// Marks the influence region of one divergent branch: blocks reachable
/// from `start` without passing through `reconv`. Returns whether any
/// flag flipped.
fn mark_influence(
    kernel: &Kernel,
    div_flow: &mut [bool],
    start: BlockId,
    reconv: Option<BlockId>,
) -> bool {
    let mut changed = false;
    let mut stack = vec![start];
    let mut seen = vec![false; kernel.blocks.len()];
    while let Some(b) = stack.pop() {
        if Some(b) == reconv || seen[b.index()] {
            continue;
        }
        seen[b.index()] = true;
        if !div_flow[b.index()] {
            div_flow[b.index()] = true;
            changed = true;
        }
        stack.extend(kernel.blocks[b.index()].term.successors());
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::types::AddrSpace;

    fn analyse(k: &Kernel) -> UniformityInfo {
        uniformity(k, &Cfg::build(k))
    }

    #[test]
    fn straight_line_imm_chain_is_uniform() {
        let mut b = KernelBuilder::new("u");
        let out = b.param_ptr("out", AddrSpace::Global);
        let a = b.add(Operand::ImmI32(1), Operand::ImmI32(2));
        let c = b.add(a.into(), Operand::ImmI32(3));
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), c.into());
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(info.uniform_regs[a.0 as usize], "imm-only def");
        assert!(info.uniform_regs[c.0 as usize], "uniform-chain def");
        assert!(!info.uniform_regs[tid.0 as usize], "tid varies per lane");
        assert!(
            !info.uniform_regs[addr.0 as usize],
            "address derived from tid"
        );
        assert!(info.div_flow.iter().all(|&d| !d), "no branches at all");
    }

    #[test]
    fn lane_seeds_propagate_varying() {
        let mut b = KernelBuilder::new("v");
        let lane = b.special_i32(Special::LaneId);
        let x = b.add(lane.into(), Operand::ImmI32(1));
        let y = b.add(x.into(), Operand::ImmI32(0));
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(!info.uniform_regs[lane.0 as usize]);
        assert!(!info.uniform_regs[x.0 as usize]);
        assert!(!info.uniform_regs[y.0 as usize], "transitive demotion");
    }

    #[test]
    fn uniform_specials_stay_uniform() {
        let mut b = KernelBuilder::new("s");
        let bd = b.special_i32(Special::BlockDim);
        let wid = b.special_i32(Special::WarpId);
        let mix = b.add(bd.into(), wid.into());
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(info.uniform_regs[bd.0 as usize]);
        assert!(info.uniform_regs[wid.0 as usize], "warp id is warp-shared");
        assert!(info.uniform_regs[mix.0 as usize]);
    }

    /// Builds `if (tid < 4) { body(b) } else {} join`, returning the
    /// kernel plus the registers the closure defined in the then-block.
    fn divergent_diamond(
        body: impl FnOnce(&mut KernelBuilder) -> Vec<crate::inst::Reg>,
    ) -> (Kernel, Vec<crate::inst::Reg>) {
        let mut b = KernelBuilder::new("d");
        let tid = b.special_i32(Special::ThreadId);
        let cond = b.icmp_lt(tid.into(), Operand::ImmI32(4));
        let then_b = b.new_block("t");
        let else_b = b.new_block("e");
        let join_b = b.new_block("j");
        b.cond_br(cond.into(), then_b, else_b);
        b.switch_to(then_b);
        let defined = body(&mut b);
        b.br(join_b);
        b.switch_to(else_b);
        b.br(join_b);
        b.switch_to(join_b);
        b.ret();
        (b.finish(), defined)
    }

    #[test]
    fn defs_under_divergence_are_demoted() {
        // `x = 1 + 2` is imm-only, but it executes under the divergent
        // `tid < 4` mask: lanes in the else-path keep the sentinel.
        let (k, defs) = divergent_diamond(|b| vec![b.add(Operand::ImmI32(1), Operand::ImmI32(2))]);
        let info = analyse(&k);
        assert!(info.div_flow[1], "then-block is in the influence region");
        assert!(info.div_flow[2], "else-block too");
        assert!(!info.div_flow[0], "entry is not");
        assert!(!info.div_flow[3], "join (reconvergence) is not");
        assert!(!info.uniform_regs[defs[0].0 as usize], "sub-mask def");
    }

    #[test]
    fn uniform_branch_creates_no_divergent_region() {
        let mut b = KernelBuilder::new("ub");
        let t = b.new_block("t");
        let j = b.new_block("j");
        b.cond_br(Operand::ImmBool(false), t, j);
        b.switch_to(t);
        let x = b.add(Operand::ImmI32(5), Operand::ImmI32(6));
        b.br(j);
        b.switch_to(j);
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(info.div_flow.iter().all(|&d| !d), "imm cond cannot diverge");
        assert!(info.uniform_regs[x.0 as usize]);
    }

    #[test]
    fn branch_on_demoted_register_divergifies_its_region() {
        // cond starts out "uniform" optimistically, but its def reads
        // the lane id; the fixpoint must demote the def and THEN the
        // branch's influence region — a two-round fixpoint.
        let mut b = KernelBuilder::new("two");
        let lane = b.special_i32(Special::LaneId);
        let cond = b.icmp_lt(lane.into(), Operand::ImmI32(2));
        let t = b.new_block("t");
        let j = b.new_block("j");
        b.cond_br(cond.into(), t, j);
        b.switch_to(t);
        let x = b.add(Operand::ImmI32(1), Operand::ImmI32(1));
        b.br(j);
        b.switch_to(j);
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(!info.uniform_regs[cond.0 as usize]);
        assert!(info.div_flow[1]);
        assert!(!info.uniform_regs[x.0 as usize]);
    }

    #[test]
    fn ret_under_divergence_demotes_everything() {
        // then-path exits directly: lanes retire piecemeal, so even the
        // entry block's defs are no longer mask-complete afterwards.
        let mut b = KernelBuilder::new("pr");
        let pre = b.add(Operand::ImmI32(3), Operand::ImmI32(4));
        let tid = b.special_i32(Special::ThreadId);
        let cond = b.icmp_lt(tid.into(), Operand::ImmI32(4));
        let t = b.new_block("t");
        let j = b.new_block("j");
        b.cond_br(cond.into(), t, j);
        b.switch_to(t);
        b.ret();
        b.switch_to(j);
        let post = b.add(Operand::ImmI32(5), Operand::ImmI32(6));
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(info.div_flow.iter().all(|&d| d), "partial exit: all blocks");
        assert!(!info.uniform_regs[pre.0 as usize]);
        assert!(!info.uniform_regs[post.0 as usize]);
    }

    #[test]
    fn atomics_and_shuffles_never_define_uniform() {
        let mut b = KernelBuilder::new("as");
        let out = b.param_ptr("out", AddrSpace::Global);
        let old = b.atomic_add(AddrSpace::Global, Operand::Param(out), Operand::ImmI32(1));
        let shf = b.shfl(Operand::ImmI32(7), Operand::ImmI32(0));
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(
            !info.uniform_regs[old.0 as usize],
            "atomics serialize per lane"
        );
        assert!(
            !info.uniform_regs[shf.0 as usize],
            "shuffles read per-lane state"
        );
    }

    #[test]
    fn ballot_is_uniform_outside_divergence_only() {
        let mut b = KernelBuilder::new("bal");
        let lane = b.special_i32(Special::LaneId);
        let p = b.icmp_lt(lane.into(), Operand::ImmI32(2));
        let votes = b.ballot(p.into());
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(
            info.uniform_regs[votes.0 as usize],
            "ballot broadcasts one mask even from a varying predicate"
        );

        let (dk, defs) = divergent_diamond(|b| vec![b.ballot(Operand::ImmBool(true))]);
        let dinfo = analyse(&dk);
        assert!(
            !dinfo.uniform_regs[defs[0].0 as usize],
            "ballot under divergence covers a sub-mask"
        );
    }

    #[test]
    fn loads_from_uniform_addresses_are_uniform() {
        let mut b = KernelBuilder::new("ld");
        let out = b.param_ptr("out", AddrSpace::Global);
        let v = b.load_global_i32(Operand::Param(out));
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        let w = b.load_global_i32(addr.into());
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(info.uniform_regs[v.0 as usize], "one address, one value");
        assert!(!info.uniform_regs[w.0 as usize], "per-lane addresses");
    }

    #[test]
    fn multi_def_register_needs_every_def_uniform() {
        let mut b = KernelBuilder::new("md");
        let lane = b.special_i32(Special::LaneId);
        let x = b.add(Operand::ImmI32(1), Operand::ImmI32(2));
        b.mov_to(x, lane.into()); // second def reads the lane id
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(!info.uniform_regs[x.0 as usize]);
    }

    #[test]
    fn loop_counters_stay_uniform() {
        // for (i = 0; i < 10; i++) — the canonical uniform loop: the
        // back-edge and counter must both be proved uniform, because
        // that is what lets the executor skip the per-lane predicate
        // walk on every iteration.
        let mut b = KernelBuilder::new("loop");
        let i = b.mov(Operand::ImmI32(0));
        let head = b.new_block("head");
        let body = b.new_block("body");
        let done = b.new_block("done");
        b.br(head);
        b.switch_to(head);
        let c = b.icmp_lt(i.into(), Operand::ImmI32(10));
        b.cond_br(c.into(), body, done);
        b.switch_to(body);
        let next = b.add(i.into(), Operand::ImmI32(1));
        b.mov_to(i, next.into());
        b.br(head);
        b.switch_to(done);
        b.ret();
        let k = b.finish();
        let info = analyse(&k);
        assert!(info.uniform_regs[i.0 as usize], "counter");
        assert!(info.uniform_regs[c.0 as usize], "bound check");
        assert!(info.div_flow.iter().all(|&d| !d), "uniform back-edge");
    }
}
