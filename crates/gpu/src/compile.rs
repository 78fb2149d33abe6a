//! Compile-once lowering of [`Kernel`]s into an executable form.
//!
//! A GEVO-style search launches the *same* kernel variant many times —
//! once per fitness evaluation at minimum, and `SIMCoV` launches each of
//! its eight kernels over a hundred times per evaluation. Before this
//! module existed, every [`crate::Gpu::launch`] re-verified the kernel,
//! rebuilt its CFG and re-resolved every operand through an enum match;
//! all of that work is invariant across launches.
//!
//! [`CompiledKernel::compile`] runs verification and [`Cfg::build`]
//! exactly once and lowers the kernel into a dense, block-ordered
//! instruction stream:
//!
//! * operands become pre-resolved slots — register operands are pre-multiplied
//!   into direct indices into the per-warp register file, immediates are
//!   pre-converted to runtime [`Value`]s (no `F32Bits` decode on the hot
//!   path);
//! * branch targets and each block's reconvergence point (immediate
//!   post-dominator) are baked into flat arrays;
//! * the static issue cost of every scalar instruction is resolved
//!   against the [`GpuSpec`]'s cost table at compile time;
//! * the per-warp register-file image (one typed sentinel per register ×
//!   lane) is prebuilt so warp initialization is a `clone`.
//!
//! A `CompiledKernel` is tied to the spec it was compiled for (the warp
//! width shapes the register file, the cost table is baked in);
//! [`crate::Gpu::launch_compiled`] rejects a mismatched device. Execution
//! semantics are bit-identical to compiling at launch time —
//! [`crate::Gpu::launch`] is now a thin verify-compile-run wrapper over
//! the same interpreter.

use crate::spec::GpuSpec;
use crate::value::Value;
use gevo_ir::analysis::uniformity;
use gevo_ir::verify::{verify, VerifyError};
use gevo_ir::{Cfg, Kernel, Op, Operand, Param, Reg};
use std::sync::atomic::{AtomicU8, Ordering};

/// Optimization level of the lowering pipeline (DESIGN.md §3.8).
///
/// `O0` is the direct lowering this module has always performed — kept
/// as the differential control arm: every `O2` behaviour is pinned
/// result-invisible (fitness, [`crate::LaunchStats`], memory, faults)
/// against it. `O2` additionally runs the warp-uniformity analysis
/// ([`gevo_ir::analysis::uniformity`]) and constant folding over the
/// lowered stream, baking per-instruction facts into `OpClass` tags
/// so the interpreter executes uniform work once per warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Direct lowering, no optimizing passes (the differential control
    /// arm, and the process default).
    #[default]
    O0,
    /// Warp-uniformity scalarization + constant folding.
    O2,
}

/// Process-wide default optimization level consumed by
/// [`CompiledKernel::compile`]. `0` ⇒ `O0`, anything else ⇒ `O2`.
///
/// A global (rather than a parameter threaded through every workload's
/// compile path) keeps the knob result-invisible by construction: no
/// serialized artifact — checkpoints, search results, compiled-image
/// equality — depends on it, so flipping it cannot perturb a
/// trajectory, only the wall-clock of reaching it. Harness binaries set
/// it from the `GEVO_OPT` environment knob before building workloads.
static OPT_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default optimization level (see [`OptLevel`]).
/// Stays a process global while the benchmark (`perfbench/`) sets O2 through it.
pub fn set_opt_level(level: OptLevel) {
    OPT_LEVEL.store(
        match level {
            OptLevel::O0 => 0,
            OptLevel::O2 => 1,
        },
        Ordering::Relaxed,
    );
}

/// The process-wide default optimization level.
#[must_use]
pub fn opt_level() -> OptLevel {
    if OPT_LEVEL.load(Ordering::Relaxed) == 0 {
        OptLevel::O0
    } else {
        OptLevel::O2
    }
}

/// Sentinel block index meaning "reconverges at thread exit".
pub(crate) const EXIT: u32 = u32::MAX;

/// A pre-resolved operand: everything the interpreter needs to read a
/// value without touching the source kernel.
///
/// Immediates are split per type rather than stored as one [`Value`]
/// payload: nesting `Value` here lets rustc niche-pack the enum
/// (folding this discriminant into `Value`'s tag ranges), and the
/// resulting multi-compare decode on every operand read measurably
/// slows the interpreter. The flat shape keeps a plain one-byte tag —
/// the same dispatch cost as the IR's `Operand` — while still baking
/// in the pre-multiplied register base and the decoded `f32`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    // PartialEq is manual (bitwise on `ImmF32`): the differential test
    // layer compares compiled streams for *bit* identity, and a NaN
    // float immediate must compare equal to itself there.
    /// Register-file base index, pre-multiplied (`reg × lanes`); add the
    /// lane to address one thread's copy.
    Reg(u32),
    /// `i32` immediate.
    ImmI32(i32),
    /// `i64` immediate.
    ImmI64(i64),
    /// `f32` immediate, already decoded from its `F32Bits`.
    ImmF32(f32),
    /// `b1` immediate.
    ImmBool(bool),
    /// Hardware special register (lane-dependent, resolved at execution).
    Special(gevo_ir::Special),
    /// Kernel parameter index (resolved against the launch's arguments).
    Param(u16),
}

impl PartialEq for Slot {
    fn eq(&self, other: &Slot) -> bool {
        match (self, other) {
            (Slot::Reg(a), Slot::Reg(b)) => a == b,
            (Slot::ImmI32(a), Slot::ImmI32(b)) => a == b,
            (Slot::ImmI64(a), Slot::ImmI64(b)) => a == b,
            (Slot::ImmF32(a), Slot::ImmF32(b)) => a.to_bits() == b.to_bits(),
            (Slot::ImmBool(a), Slot::ImmBool(b)) => a == b,
            (Slot::Special(a), Slot::Special(b)) => a == b,
            (Slot::Param(a), Slot::Param(b)) => a == b,
            _ => false,
        }
    }
}

impl Slot {
    /// True when reading this slot yields the same value in **every**
    /// lane of a warp: immediates and parameters trivially, and the
    /// specials that do not depend on the lane (block/grid geometry and
    /// the warp's own id — every lane of a warp shares its warp id).
    /// Registers are never statically uniform (lanes own private
    /// copies), and `ThreadId`/`LaneId` are lane-dependent by
    /// definition.
    ///
    /// The interpreter's uniform-branch fast path keys off this: a
    /// conditional branch whose predicate slot is warp-uniform can be
    /// decided with a single read — divergence is statically
    /// impossible, so the per-lane predicate loop and the divergence
    /// bookkeeping are skipped entirely.
    pub(crate) fn is_warp_uniform(&self) -> bool {
        use gevo_ir::Special;
        match self {
            Slot::Reg(_) => false,
            Slot::ImmI32(_)
            | Slot::ImmI64(_)
            | Slot::ImmF32(_)
            | Slot::ImmBool(_)
            | Slot::Param(_) => true,
            Slot::Special(s) => !matches!(s, Special::ThreadId | Special::LaneId),
        }
    }
}

/// Sentinel for [`CInst::dst`]: the instruction has no destination.
pub(crate) const NO_DST: u32 = u32::MAX;

/// Pre-decoded dispatch class of a [`CInst`], stored in the padding
/// byte after [`CInst::op`] (so it is free, layout-wise). The
/// interpreter's per-instruction dispatch matches on this one-byte tag
/// — a dense 8-way jump — instead of re-deriving the class from `Op`'s
/// payload-carrying discriminant on every executed instruction; the
/// `Op` payload (space, type, predicate…) is only decoded inside the
/// arm that needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    /// Plain per-lane compute op (the `exec_scalar` family).
    Scalar,
    /// `__syncthreads`.
    Sync,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Atomic read-modify-write.
    Atomic,
    /// Warp shuffle.
    Shfl,
    /// `ballot_sync`.
    Ballot,
    /// `activemask`.
    ActiveMask,
    /// Scalar op whose operands are all warp-uniform (O2): every active
    /// lane would compute the same value, so the interpreter evaluates
    /// it **once per warp** and broadcasts the result to the active
    /// lanes instead of bit-walking the mask.
    UniformScalar,
    /// Scalar op over immediate-only operands, evaluated at compile
    /// time (O2): `args[0]` holds the precomputed result and execution
    /// is a broadcast write. Cost and stats charges are those of the
    /// original op — folding is result-invisible by contract.
    Folded,
    /// Load whose address is warp-uniform (O2): one address read and
    /// one memory access serve the whole warp; coalescing/cache stats
    /// are charged analytically for the single segment.
    UniformLoad,
    /// Store whose address *and* value are warp-uniform (O2): all
    /// active lanes write the same word, one store suffices.
    UniformStore,
}

/// Classifies an op once, at compile time.
fn op_class(op: Op) -> OpClass {
    match op {
        Op::SyncThreads => OpClass::Sync,
        Op::Load { .. } => OpClass::Load,
        Op::Store { .. } => OpClass::Store,
        Op::AtomicAdd { .. } | Op::AtomicMax { .. } | Op::AtomicCas { .. } => OpClass::Atomic,
        Op::ShflSync | Op::ShflUpSync => OpClass::Shfl,
        Op::BallotSync => OpClass::Ballot,
        Op::ActiveMask => OpClass::ActiveMask,
        _ => OpClass::Scalar,
    }
}

/// One lowered instruction in the flattened stream.
///
/// `repr(C)` with this exact field order packs the struct to 64 bytes —
/// one cache line per instruction (the interpreter's fetch granularity)
/// instead of the 72 bytes rustc's default ordering produces with an
/// `Option<u32>` destination. `dst` uses [`NO_DST`] instead of `Option`
/// to make that possible; register-file bases never reach `u32::MAX`
/// (the file is `regs × lanes` values long and allocation would fail
/// far earlier).
#[derive(Debug, Clone, PartialEq)]
#[repr(C)]
pub(crate) struct CInst {
    /// The operation (shared with the IR; `Copy` and match-dispatched).
    pub op: Op,
    /// Pre-decoded dispatch class of `op` (fills `op`'s padding byte).
    pub tag: OpClass,
    /// Destination register-file base index, pre-multiplied;
    /// [`NO_DST`] when the op writes no register.
    pub dst: u32,
    /// Pre-resolved operands; only the first `op.arity()` are meaningful.
    pub args: [Slot; 3],
    /// Static issue cost of a scalar op, baked from the spec's cost
    /// table (ignored by ops whose cost is runtime-dependent).
    pub cost: u64,
}

/// A lowered block terminator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CTerm {
    /// Unconditional jump.
    Br(u32),
    /// Two-way conditional jump with a pre-resolved condition.
    CondBr {
        /// Branch predicate slot.
        cond: Slot,
        /// Successor when true.
        if_true: u32,
        /// Successor when false.
        if_false: u32,
    },
    /// Thread exit.
    Ret,
}

/// A kernel lowered for repeated launching: verification and CFG
/// analysis already done, operands and costs pre-resolved.
///
/// Compile once with [`CompiledKernel::compile`], launch many times with
/// [`crate::Gpu::launch_compiled`]. See the module docs for what is
/// precomputed.
///
/// Equality compares every lowered table — instruction stream, bounds,
/// terminators, reconvergence, register file.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Kernel name (diagnostics only).
    pub(crate) name: String,
    /// Formal parameters, kept for launch-time argument validation.
    pub(crate) params: Vec<Param>,
    /// Static shared-memory declaration.
    pub(crate) shared_bytes: u32,
    /// Warp width this kernel was compiled for (register-file stride).
    pub(crate) lanes: u32,
    /// Fingerprint of the cost table baked into [`CInst::cost`], checked
    /// against the launching device.
    pub(crate) costs: crate::spec::CostModel,
    /// Dense block-ordered instruction stream.
    pub(crate) code: Vec<CInst>,
    /// Per-block half-open bounds into `code`; length `blocks + 1`.
    pub(crate) block_bounds: Vec<u32>,
    /// Per-block lowered terminator.
    pub(crate) terms: Vec<CTerm>,
    /// Per-block reconvergence target (immediate post-dominator), with
    /// [`EXIT`] for blocks that reconverge only at thread exit.
    pub(crate) reconv: Vec<u32>,
    /// Per-block flag: the terminator is a [`CTerm::CondBr`] whose
    /// condition is warp-uniform — statically ([`Slot::is_warp_uniform`])
    /// at every level, and additionally by dataflow analysis
    /// ([`gevo_ir::analysis::uniformity`]) for register conditions at
    /// O2 — so the branch can never diverge and the interpreter decides
    /// it with a single operand read. `false` for unconditional
    /// terminators.
    pub(crate) uniform_cond: Vec<bool>,
    /// Per-block flag (O2): the source terminator was a conditional
    /// branch on a boolean immediate and was folded to [`CTerm::Br`].
    /// All-`false` at O0.
    pub(crate) term_folded: Vec<bool>,
    /// Optimization level this image was lowered at.
    pub(crate) opt: OptLevel,
    /// Prebuilt per-warp register-file image: `regs × lanes` typed
    /// sentinels, reg-major.
    pub(crate) reg_file: Vec<Value>,
}

impl CompiledKernel {
    /// Verifies `kernel` and lowers it for execution on devices matching
    /// `spec` (same warp width and cost table).
    ///
    /// # Errors
    /// Returns the structural defect if the kernel fails verification —
    /// the same check [`crate::Gpu::launch`] has always applied.
    pub fn compile(kernel: &Kernel, spec: &GpuSpec) -> Result<CompiledKernel, VerifyError> {
        Self::compile_with(kernel, spec, opt_level())
    }

    /// [`Self::compile`] at an explicit [`OptLevel`], bypassing the
    /// process-wide default — the differential test layer compiles the
    /// same kernel at `O0` and `O2` side by side through this.
    ///
    /// # Errors
    /// Returns the structural defect if the kernel fails verification.
    pub fn compile_with(
        kernel: &Kernel,
        spec: &GpuSpec,
        opt: OptLevel,
    ) -> Result<CompiledKernel, VerifyError> {
        verify(kernel)?;
        let cfg = Cfg::build(kernel);
        let lanes = spec.warp_size;
        // The uniformity fixpoint is the O2 passes' single source of
        // analysis facts; O0 skips it and lowers exactly as before.
        let info = match opt {
            OptLevel::O0 => None,
            OptLevel::O2 => Some(uniformity(kernel, &cfg)),
        };
        let slot_uniform = |s: &Slot| match (&info, s) {
            // Register slots are pre-multiplied bases; divide the warp
            // width back out to index the analysis result.
            (Some(i), Slot::Reg(base)) => i.uniform_regs[(base / lanes) as usize],
            _ => s.is_warp_uniform(),
        };

        let mut code = Vec::with_capacity(kernel.inst_count());
        let mut block_bounds = Vec::with_capacity(kernel.blocks.len() + 1);
        let mut terms = Vec::with_capacity(kernel.blocks.len());
        block_bounds.push(0u32);
        for block in &kernel.blocks {
            for inst in &block.instrs {
                let mut args = [Slot::ImmI32(0); 3];
                for (i, a) in inst.args.iter().enumerate() {
                    args[i] = lower_operand(a, lanes);
                }
                let mut ci = CInst {
                    op: inst.op,
                    tag: op_class(inst.op),
                    dst: inst.dst.map_or(NO_DST, |r| reg_base(r, lanes)),
                    args,
                    cost: scalar_cost(inst.op, spec),
                };
                if info.is_some() {
                    optimize_inst(&mut ci, &slot_uniform);
                }
                code.push(ci);
            }
            block_bounds.push(u32::try_from(code.len()).expect("code stream fits u32"));
            terms.push(match block.term.kind {
                gevo_ir::TermKind::Br(t) => CTerm::Br(t.0),
                gevo_ir::TermKind::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => CTerm::CondBr {
                    cond: lower_operand(&cond, lanes),
                    if_true: if_true.0,
                    if_false: if_false.0,
                },
                gevo_ir::TermKind::Ret => CTerm::Ret,
            });
        }

        // O2 folds already-resolved conditional branches — the dominant
        // product of `CondReplace(ImmBool)` mutations — to plain jumps.
        // The interpreter charges every terminator kind identically
        // (one instruction, one issue, one ALU cycle), so the fold is
        // `LaunchStats`-invisible by construction.
        let mut term_folded = vec![false; terms.len()];
        if info.is_some() {
            for (b, t) in terms.iter_mut().enumerate() {
                if let CTerm::CondBr {
                    cond: Slot::ImmBool(v),
                    if_true,
                    if_false,
                } = *t
                {
                    *t = CTerm::Br(if v { if_true } else { if_false });
                    term_folded[b] = true;
                }
            }
        }

        let uniform_cond = terms
            .iter()
            .map(|t| matches!(t, CTerm::CondBr { cond, .. } if slot_uniform(cond)))
            .collect();

        let reconv = (0..kernel.blocks.len())
            .map(|b| {
                cfg.reconvergence(gevo_ir::BlockId(u32::try_from(b).expect("block idx")))
                    .map_or(EXIT, |r| r.0)
            })
            .collect();

        let mut reg_file = Vec::with_capacity(kernel.reg_count() * lanes as usize);
        for r in 0..kernel.reg_count() {
            let sentinel = Value::sentinel(kernel.reg_ty(Reg(u32::try_from(r).expect("reg idx"))));
            for _ in 0..lanes {
                reg_file.push(sentinel);
            }
        }

        Ok(CompiledKernel {
            name: kernel.name.clone(),
            params: kernel.params.clone(),
            shared_bytes: kernel.shared_bytes,
            lanes,
            costs: spec.costs.clone(),
            code,
            block_bounds,
            terms,
            reconv,
            uniform_cond,
            term_folded,
            opt,
            reg_file,
        })
    }

    /// The kernel's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Formal parameters (launch arguments are validated against these).
    #[must_use]
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Declared shared-memory bytes per block.
    #[must_use]
    pub fn shared_bytes(&self) -> u32 {
        self.shared_bytes
    }

    /// Warp width this kernel was compiled for.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Number of body instructions in the flattened stream.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.code.len()
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.terms.len()
    }

    /// Optimization level this image was lowered at.
    #[must_use]
    pub fn opt(&self) -> OptLevel {
        self.opt
    }

    /// Number of instructions the uniformity pass scalarized (tagged
    /// `OpClass::UniformScalar`/`OpClass::UniformLoad`/
    /// `OpClass::UniformStore`). Zero at O0.
    #[must_use]
    pub fn uniform_inst_count(&self) -> usize {
        self.code
            .iter()
            .filter(|c| {
                matches!(
                    c.tag,
                    OpClass::UniformScalar | OpClass::UniformLoad | OpClass::UniformStore
                )
            })
            .count()
    }

    /// Number of compile-time-folded facts in this image: instructions
    /// evaluated to constants plus conditional branches resolved to
    /// plain jumps. Zero at O0.
    #[must_use]
    pub fn folded_inst_count(&self) -> usize {
        self.code
            .iter()
            .filter(|c| c.tag == OpClass::Folded)
            .count()
            + self.term_folded.iter().filter(|&&f| f).count()
    }

    /// True when this kernel can execute on a device with the given spec:
    /// the warp width matches the register-file stride and the baked
    /// costs match the device's table.
    #[must_use]
    pub fn matches_spec(&self, spec: &GpuSpec) -> bool {
        self.lanes == spec.warp_size && self.costs == spec.costs
    }
}

/// Register-file base index for a register at a given warp width.
fn reg_base(r: Reg, lanes: u32) -> u32 {
    u32::try_from(u64::from(r.0) * u64::from(lanes)).expect("register file fits u32")
}

/// Lowers one IR operand to its pre-resolved slot.
fn lower_operand(op: &Operand, lanes: u32) -> Slot {
    match op {
        Operand::Reg(r) => Slot::Reg(reg_base(*r, lanes)),
        Operand::ImmI32(v) => Slot::ImmI32(*v),
        Operand::ImmI64(v) => Slot::ImmI64(*v),
        Operand::ImmF32(v) => Slot::ImmF32(v.value()),
        Operand::ImmBool(v) => Slot::ImmBool(*v),
        Operand::Special(s) => Slot::Special(*s),
        Operand::Param(p) => Slot::Param(*p),
    }
}

/// O2 per-instruction pass: constant folding first (an all-immediate
/// op is trivially uniform, and the folded form is strictly cheaper to
/// execute), then uniformity tagging. `uniform` decides slot-level
/// operand uniformity against the analysis result.
fn optimize_inst(ci: &mut CInst, uniform: &impl Fn(&Slot) -> bool) {
    if ci.tag == OpClass::Scalar && ci.dst != NO_DST {
        if let Some(folded) = fold_value(ci) {
            ci.tag = OpClass::Folded;
            ci.args = [folded, Slot::ImmI32(0), Slot::ImmI32(0)];
            return;
        }
    }
    let n = ci.op.arity();
    if !ci.args[..n].iter().all(uniform) {
        return;
    }
    ci.tag = match ci.tag {
        // Pure per-lane compute over uniform inputs computes one value
        // per warp. (`RngNext` is pure too: the counter-mix is a
        // function of its operands alone.)
        OpClass::Scalar => OpClass::UniformScalar,
        OpClass::Load => OpClass::UniformLoad,
        OpClass::Store => OpClass::UniformStore,
        // Atomics serialize per lane (each RMW observes the previous
        // lane's write) and shuffles read lane-indexed state — never
        // uniform. Ballot/ActiveMask/Sync are mask ops, left alone.
        other => other,
    };
}

/// Attempts compile-time evaluation of a scalar op whose operands are
/// all immediates, through the interpreter's own [`crate::exec`]
/// evaluator — the single source of truth, so a folded result (and any
/// fault, by declining to fold) is exactly what per-lane execution
/// would produce.
fn fold_value(ci: &CInst) -> Option<Slot> {
    let n = ci.op.arity();
    let mut vals = [Value::I32(0); 3];
    for (v, s) in vals.iter_mut().zip(&ci.args[..n]) {
        *v = slot_imm_value(s)?;
    }
    let out = crate::exec::eval_pure(ci.op, |i| vals[i]).ok()?;
    Some(value_slot(out))
}

/// The immediate payload of a slot, if it is one. `Param` and `Special`
/// are warp-uniform but not compile-time constants.
fn slot_imm_value(s: &Slot) -> Option<Value> {
    match s {
        Slot::ImmI32(v) => Some(Value::I32(*v)),
        Slot::ImmI64(v) => Some(Value::I64(*v)),
        Slot::ImmF32(v) => Some(Value::F32(*v)),
        Slot::ImmBool(v) => Some(Value::Bool(*v)),
        Slot::Reg(_) | Slot::Special(_) | Slot::Param(_) => None,
    }
}

/// Re-encodes a folded result as an immediate slot.
fn value_slot(v: Value) -> Slot {
    match v {
        Value::I32(x) => Slot::ImmI32(x),
        Value::I64(x) => Slot::ImmI64(x),
        Value::F32(x) => Slot::ImmF32(x),
        Value::Bool(x) => Slot::ImmBool(x),
    }
}

/// The static issue cost of a scalar op — the same table
/// `BlockExec::exec_scalar` used to consult per execution, resolved once.
fn scalar_cost(op: Op, spec: &GpuSpec) -> u64 {
    use gevo_ir::{FloatBinOp, IntBinOp};
    match op {
        Op::IBin(IntBinOp::Mul) => spec.costs.imul,
        Op::IBin(IntBinOp::Div | IntBinOp::Rem) => spec.costs.idiv,
        Op::IBin(_) => spec.costs.alu,
        Op::FBin(FloatBinOp::Div) => spec.costs.fdiv,
        Op::FBin(_) => spec.costs.falu,
        Op::RngNext => spec.costs.rng,
        _ => spec.costs.alu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gevo_ir::{AddrSpace, KernelBuilder, Special};

    /// Layout regression guard: the interpreter indexes `code` per
    /// executed instruction, so `CInst` staying compact (and `Slot`
    /// staying a flat-tagged 16 bytes, see its doc comment) is a
    /// performance invariant, not an accident.
    #[test]
    fn lowered_types_stay_compact() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        assert_eq!(
            std::mem::size_of::<CInst>(),
            64,
            "one cache line (the OpClass tag must live in Op's padding)"
        );
        assert_eq!(std::mem::size_of::<OpClass>(), 1, "tag is one byte");
        assert!(std::mem::size_of::<CTerm>() <= 24);
    }

    #[test]
    fn uniform_cond_classifies_slots() {
        use gevo_ir::Special;
        assert!(Slot::ImmBool(true).is_warp_uniform());
        assert!(Slot::ImmI32(3).is_warp_uniform());
        assert!(Slot::Param(0).is_warp_uniform());
        assert!(Slot::Special(Special::BlockId).is_warp_uniform());
        assert!(Slot::Special(Special::WarpId).is_warp_uniform());
        assert!(!Slot::Special(Special::ThreadId).is_warp_uniform());
        assert!(!Slot::Special(Special::LaneId).is_warp_uniform());
        assert!(!Slot::Reg(0).is_warp_uniform());
    }

    #[test]
    fn compile_bakes_uniform_cond_flags() {
        // diamond_kernel branches on `tid < 4` — lane-dependent, so its
        // entry block must NOT be flagged uniform.
        let k = diamond_kernel();
        let spec = GpuSpec::p100().scaled(8);
        let ck = CompiledKernel::compile(&k, &spec).expect("verifies");
        assert_eq!(ck.uniform_cond.len(), ck.block_count());
        assert!(!ck.uniform_cond.iter().any(|&u| u));

        // An immediate-boolean condition — what the GA's `CondReplace`
        // edits inject (e.g. the v0 init-skip replaces a branch cond
        // with `ImmBool(false)`) — IS statically warp-uniform.
        let mut b = KernelBuilder::new("ub");
        let out = b.param_ptr("out", AddrSpace::Global);
        let t = b.new_block("t");
        let j = b.new_block("j");
        b.cond_br(Operand::ImmBool(false), t, j);
        b.switch_to(t);
        b.br(j);
        b.switch_to(j);
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        let uk = b.finish();
        let uck = CompiledKernel::compile(&uk, &spec).expect("verifies");
        assert!(uck.uniform_cond[0], "immediate cond is uniform");
        assert!(!uck.uniform_cond[1], "Br block is not flagged");
    }

    fn diamond_kernel() -> Kernel {
        let mut b = KernelBuilder::new("diamond");
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let cond = b.icmp_lt(tid.into(), Operand::ImmI32(4));
        let then_b = b.new_block("t");
        let else_b = b.new_block("e");
        let join_b = b.new_block("j");
        b.cond_br(cond.into(), then_b, else_b);
        b.switch_to(then_b);
        b.br(join_b);
        b.switch_to(else_b);
        b.br(join_b);
        b.switch_to(join_b);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        b.finish()
    }

    #[test]
    fn compile_flattens_blocks_in_order() {
        let k = diamond_kernel();
        let spec = GpuSpec::p100().scaled(8);
        let ck = CompiledKernel::compile(&k, &spec).expect("verifies");
        assert_eq!(ck.block_count(), k.blocks.len());
        assert_eq!(ck.inst_count(), k.inst_count());
        assert_eq!(ck.block_bounds.len(), k.blocks.len() + 1);
        // Bounds are monotone and partition the stream.
        for w in ck.block_bounds.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*ck.block_bounds.last().unwrap() as usize, ck.code.len());
    }

    #[test]
    fn compile_bakes_reconvergence() {
        let k = diamond_kernel();
        let spec = GpuSpec::p100().scaled(8);
        let ck = CompiledKernel::compile(&k, &spec).expect("verifies");
        // Entry's divergent branch reconverges at the join (block 3).
        assert_eq!(ck.reconv[0], 3);
        // The ret block reconverges only at exit.
        assert_eq!(ck.reconv[3], EXIT);
    }

    #[test]
    fn compile_prebuilds_register_file() {
        let k = diamond_kernel();
        let spec = GpuSpec::p100().scaled(8);
        let ck = CompiledKernel::compile(&k, &spec).expect("verifies");
        assert_eq!(ck.reg_file.len(), k.reg_count() * 8);
        for r in 0..k.reg_count() {
            let want = Value::sentinel(k.reg_ty(Reg(u32::try_from(r).unwrap())));
            for lane in 0..8 {
                assert_eq!(ck.reg_file[r * 8 + lane], want);
            }
        }
    }

    #[test]
    fn compile_rejects_broken_kernels() {
        let mut k = diamond_kernel();
        // Corrupt an operand list to the wrong arity.
        k.blocks[3].instrs[0].args.clear();
        let spec = GpuSpec::p100().scaled(8);
        assert!(CompiledKernel::compile(&k, &spec).is_err());
    }

    #[test]
    fn o2_folds_immediate_only_ops() {
        let spec = GpuSpec::p100().scaled(8);
        let mut b = KernelBuilder::new("fold");
        let out = b.param_ptr("out", AddrSpace::Global);
        let c = b.add(Operand::ImmI32(20), Operand::ImmI32(22));
        let tid = b.special_i32(Special::ThreadId);
        let sum = b.add(c.into(), tid.into());
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), sum.into());
        b.ret();
        let k = b.finish();

        let o0 = CompiledKernel::compile_with(&k, &spec, OptLevel::O0).expect("verifies");
        let o2 = CompiledKernel::compile_with(&k, &spec, OptLevel::O2).expect("verifies");
        assert_eq!(o0.folded_inst_count(), 0);
        assert_eq!(o0.uniform_inst_count(), 0);

        let folded = &o2.code[0];
        assert_eq!(folded.tag, OpClass::Folded);
        assert_eq!(folded.args[0], Slot::ImmI32(42), "20 + 22 folded");
        assert_eq!(folded.op, o0.code[0].op, "op (and its cost) kept");
        assert_eq!(folded.cost, o0.code[0].cost);
        assert_eq!(o2.folded_inst_count(), 1);
    }

    #[test]
    fn o2_tags_uniform_and_leaves_divergent_work_alone() {
        let spec = GpuSpec::p100().scaled(8);
        let mut b = KernelBuilder::new("tags");
        let out = b.param_ptr("out", AddrSpace::Global);
        let n = b.param_i32("n");
        // Uniform: params and block-level specials only.
        let bid = b.special_i32(Special::BlockId);
        let base = b.mul(bid.into(), Operand::Param(n));
        // Non-uniform: seeded by the thread id.
        let tid = b.special_i32(Special::ThreadId);
        let off = b.add(base.into(), tid.into());
        let addr = b.index_addr(Operand::Param(out), off.into(), 4);
        b.store_global_i32(addr.into(), off.into());
        b.ret();
        let k = b.finish();

        let o2 = CompiledKernel::compile_with(&k, &spec, OptLevel::O2).expect("verifies");
        // `mul bid, n` is uniform; the tid-seeded adds and the store are not.
        let mul = o2
            .code
            .iter()
            .find(|c| matches!(c.op, Op::IBin(gevo_ir::IntBinOp::Mul)))
            .expect("mul present");
        assert_eq!(mul.tag, OpClass::UniformScalar);
        let store = o2
            .code
            .iter()
            .find(|c| matches!(c.op, Op::Store { .. }))
            .expect("store present");
        assert_eq!(store.tag, OpClass::Store, "tid-addressed store untouched");
        assert!(o2.uniform_inst_count() >= 1);
    }

    #[test]
    fn o2_folds_immediate_cond_branches_to_plain_jumps() {
        let spec = GpuSpec::p100().scaled(8);
        let mut b = KernelBuilder::new("termfold");
        let out = b.param_ptr("out", AddrSpace::Global);
        let t = b.new_block("t");
        let j = b.new_block("j");
        b.cond_br(Operand::ImmBool(false), t, j);
        b.switch_to(t);
        b.br(j);
        b.switch_to(j);
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        let k = b.finish();

        let o0 = CompiledKernel::compile_with(&k, &spec, OptLevel::O0).expect("verifies");
        let o2 = CompiledKernel::compile_with(&k, &spec, OptLevel::O2).expect("verifies");
        assert!(matches!(o0.terms[0], CTerm::CondBr { .. }));
        assert!(o0.uniform_cond[0]);
        assert!(!o0.term_folded[0]);
        // `cond_br false` takes the else edge: block 2 (the join).
        assert_eq!(o2.terms[0], CTerm::Br(2));
        assert!(o2.term_folded[0]);
        assert!(!o2.uniform_cond[0], "folded terminator is not a CondBr");
        assert_eq!(o2.folded_inst_count(), 1);
    }

    #[test]
    fn o2_flags_analysis_uniform_register_branches() {
        let spec = GpuSpec::p100().scaled(8);
        let mut b = KernelBuilder::new("ubr");
        let out = b.param_ptr("out", AddrSpace::Global);
        let n = b.param_i32("n");
        let cond = b.icmp_lt(Operand::Param(n), Operand::ImmI32(4));
        let then_b = b.new_block("t");
        let join = b.new_block("j");
        b.cond_br(cond.into(), then_b, join);
        b.switch_to(then_b);
        b.br(join);
        b.switch_to(join);
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), tid.into());
        b.ret();
        let k = b.finish();

        let o0 = CompiledKernel::compile_with(&k, &spec, OptLevel::O0).expect("verifies");
        let o2 = CompiledKernel::compile_with(&k, &spec, OptLevel::O2).expect("verifies");
        assert!(
            !o0.uniform_cond[0],
            "register cond is not *statically* uniform"
        );
        assert!(o2.uniform_cond[0], "but the dataflow analysis proves it");
        assert!(!o2.term_folded[0], "not resolvable at compile time");
    }

    #[test]
    fn opt_level_defaults_off() {
        // The global default protects every pre-existing trajectory: a
        // process that never touches the knob compiles at O0. (The
        // set/get round trip is exercised in a dedicated integration
        // test process — flipping the global here would race the other
        // unit tests in this binary, which compile through the default.)
        assert_eq!(OptLevel::default(), OptLevel::O0);
        assert_eq!(opt_level(), OptLevel::O0);
    }

    #[test]
    fn spec_match_checks_lanes_and_costs() {
        let k = diamond_kernel();
        let spec8 = GpuSpec::p100().scaled(8);
        let ck = CompiledKernel::compile(&k, &spec8).expect("verifies");
        assert!(ck.matches_spec(&spec8));
        assert!(!ck.matches_spec(&GpuSpec::p100()), "32-lane device");
        let mut other = spec8;
        other.costs.alu = 99;
        assert!(!ck.matches_spec(&other), "different cost table");
    }
}
