//! Instructions, operands and their identities.
//!
//! Every instruction (including block terminators) carries a stable
//! [`InstId`] assigned when the kernel is built. Evolutionary edits address
//! instructions by ID rather than position, which makes *any subset* of an
//! evolved patch applicable to the pristine kernel — the property the
//! paper's Algorithms 1 and 2 rely on when they measure the fitness of
//! edit subsets.

use crate::types::{AddrSpace, CmpPred, MemTy};
use std::fmt;

/// A virtual register. Registers are per-thread storage with a fixed type
/// assigned at allocation; unlike LLVM-IR, a register may be written by
/// more than one instruction (see DESIGN.md §4.1 for why the reproduction
/// uses a register machine instead of SSA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// Stable identity of an instruction within its kernel.
///
/// IDs are never reused: instructions inserted by edits receive fresh IDs
/// above the pristine kernel's range, so an ID unambiguously names either
/// an original instruction or a specific insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identity of a basic block within its kernel (index into `Kernel::blocks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`crate::Kernel::blocks`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// IEEE-754 bits of an `f32` immediate.
///
/// Immediates appear inside edits, which must be `Eq + Hash` so patches can
/// be deduplicated and memoized; raw `f32` is neither. The wrapper stores
/// the bit pattern and converts on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct F32Bits(pub u32);

impl From<f32> for F32Bits {
    fn from(v: f32) -> Self {
        F32Bits(v.to_bits())
    }
}

impl F32Bits {
    /// The float value these bits encode.
    #[must_use]
    pub fn value(self) -> f32 {
        f32::from_bits(self.0)
    }
}

impl fmt::Display for F32Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

/// Built-in per-thread identifiers, the CUDA `threadIdx.x`-family of
/// special registers. One-dimensional launches are sufficient for both
/// workloads (`SIMCoV` linearizes its grid exactly like the CUDA original).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within its block (`threadIdx.x`).
    ThreadId,
    /// Block index within the grid (`blockIdx.x`).
    BlockId,
    /// Threads per block (`blockDim.x`).
    BlockDim,
    /// Blocks per grid (`gridDim.x`).
    GridDim,
    /// Lane index within the warp (`threadIdx.x % warpSize`).
    LaneId,
    /// Warp index within the block (`threadIdx.x / warpSize`).
    WarpId,
    /// The warp width of the executing GPU (`warpSize`).
    WarpSize,
}

impl Special {
    /// All special registers, in a stable order (used by mutation sampling).
    pub const ALL: [Special; 7] = [
        Special::ThreadId,
        Special::BlockId,
        Special::BlockDim,
        Special::GridDim,
        Special::LaneId,
        Special::WarpId,
        Special::WarpSize,
    ];
}

impl Special {
    /// Serializes to a JSON string (the display name without the `%`).
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let s = match self {
            Special::ThreadId => "tid",
            Special::BlockId => "bid",
            Special::BlockDim => "bdim",
            Special::GridDim => "gdim",
            Special::LaneId => "lane",
            Special::WarpId => "warp",
            Special::WarpSize => "wsz",
        };
        serde_json::Value::from(s)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message naming the unrecognized value.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        match v.as_str() {
            Some("tid") => Ok(Special::ThreadId),
            Some("bid") => Ok(Special::BlockId),
            Some("bdim") => Ok(Special::BlockDim),
            Some("gdim") => Ok(Special::GridDim),
            Some("lane") => Ok(Special::LaneId),
            Some("warp") => Ok(Special::WarpId),
            Some("wsz") => Ok(Special::WarpSize),
            _ => Err(format!("Special: unrecognized value {v}")),
        }
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Special::ThreadId => "%tid",
            Special::BlockId => "%bid",
            Special::BlockDim => "%bdim",
            Special::GridDim => "%gdim",
            Special::LaneId => "%lane",
            Special::WarpId => "%warp",
            Special::WarpSize => "%wsz",
        };
        write!(f, "{s}")
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A virtual register.
    Reg(Reg),
    /// A 32-bit integer immediate.
    ImmI32(i32),
    /// A 64-bit integer immediate.
    ImmI64(i64),
    /// A float immediate (stored as bits; see [`F32Bits`]).
    ImmF32(F32Bits),
    /// A boolean immediate.
    ImmBool(bool),
    /// A special (hardware) register, always of type `i32`.
    Special(Special),
    /// A kernel parameter, by index.
    Param(u16),
}

impl Operand {
    /// Convenience constructor for float immediates.
    #[must_use]
    pub fn f32(v: f32) -> Self {
        Operand::ImmF32(v.into())
    }

    /// True if the operand is a register.
    #[must_use]
    pub fn is_reg(&self) -> bool {
        matches!(self, Operand::Reg(_))
    }

    /// Serializes to a single-key tagged JSON object, e.g. `{"reg": 3}`
    /// or `{"special": "tid"}`. Float immediates serialize as their
    /// exact bit pattern (`{"f32": <u32>}`), so round-trips are
    /// bit-identical even for payloads JSON text would mangle.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        match self {
            Operand::Reg(r) => obj.insert("reg", r.0),
            Operand::ImmI32(v) => obj.insert("i32", i64::from(*v)),
            Operand::ImmI64(v) => obj.insert("i64", *v),
            Operand::ImmF32(bits) => obj.insert("f32", bits.0),
            Operand::ImmBool(v) => obj.insert("bool", *v),
            Operand::Special(s) => obj.insert("special", s.to_json()),
            Operand::Param(i) => obj.insert("param", u32::from(*i)),
        };
        serde_json::Value::Object(obj)
    }

    /// Deserializes the [`to_json`](Self::to_json) representation.
    ///
    /// # Errors
    /// Returns a message describing the malformed payload.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| format!("Operand: expected object, got {v}"))?;
        let (tag, payload) = obj.iter().next().ok_or("Operand: empty object")?;
        if obj.len() != 1 {
            return Err(format!("Operand: expected one tag, got {}", obj.len()));
        }
        let want_u32 = |p: &serde_json::Value| {
            p.as_u64()
                .and_then(|u| u32::try_from(u).ok())
                .ok_or_else(|| format!("Operand: {tag} payload out of range: {p}"))
        };
        match tag.as_str() {
            "reg" => Ok(Operand::Reg(Reg(want_u32(payload)?))),
            "i32" => payload
                .as_i64()
                .and_then(|i| i32::try_from(i).ok())
                .map(Operand::ImmI32)
                .ok_or_else(|| format!("Operand: i32 payload out of range: {payload}")),
            "i64" => payload
                .as_i64()
                .map(Operand::ImmI64)
                .ok_or_else(|| format!("Operand: i64 payload invalid: {payload}")),
            "f32" => Ok(Operand::ImmF32(F32Bits(want_u32(payload)?))),
            "bool" => payload
                .as_bool()
                .map(Operand::ImmBool)
                .ok_or_else(|| format!("Operand: bool payload invalid: {payload}")),
            "special" => Special::from_json(payload).map(Operand::Special),
            "param" => want_u32(payload)
                .and_then(|u| {
                    u16::try_from(u).map_err(|_| format!("Operand: param index out of range: {u}"))
                })
                .map(Operand::Param),
            other => Err(format!("Operand: unrecognized tag {other:?}")),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::ImmI32(v)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ImmI64(v)
    }
}

impl From<bool> for Operand {
    fn from(v: bool) -> Self {
        Operand::ImmBool(v)
    }
}

impl From<Special> for Operand {
    fn from(s: Special) -> Self {
        Operand::Special(s)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmI32(v) => write!(f, "{v}"),
            Operand::ImmI64(v) => write!(f, "{v}l"),
            Operand::ImmF32(v) => write!(f, "{v}f"),
            Operand::ImmBool(v) => write!(f, "{v}"),
            Operand::Special(s) => write!(f, "{s}"),
            Operand::Param(i) => write!(f, "%p{i}"),
        }
    }
}

/// Integer/bitwise binary operations (valid on `i32`, `i64`; the logical
/// subset is also valid on `b1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntBinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division. Division by zero yields 0 (GPUs do not trap; the
    /// simulator makes the garbage deterministic).
    Div,
    /// Signed remainder. Remainder by zero yields 0.
    Rem,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise/logical AND.
    And,
    /// Bitwise/logical OR.
    Or,
    /// Bitwise/logical XOR.
    Xor,
    /// Shift left (shift amount masked to the operand width).
    Shl,
    /// Arithmetic shift right.
    AShr,
    /// Logical shift right.
    LShr,
}

impl IntBinOp {
    /// All integer binary ops, in a stable order (used by mutation sampling).
    pub const ALL: [IntBinOp; 13] = [
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

    /// True for the logical subset applicable to `b1` operands.
    #[must_use]
    pub fn is_logical(self) -> bool {
        matches!(self, IntBinOp::And | IntBinOp::Or | IntBinOp::Xor)
    }
}

impl fmt::Display for IntBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IntBinOp::Add => "add",
            IntBinOp::Sub => "sub",
            IntBinOp::Mul => "mul",
            IntBinOp::Div => "div",
            IntBinOp::Rem => "rem",
            IntBinOp::Min => "min",
            IntBinOp::Max => "max",
            IntBinOp::And => "and",
            IntBinOp::Or => "or",
            IntBinOp::Xor => "xor",
            IntBinOp::Shl => "shl",
            IntBinOp::AShr => "ashr",
            IntBinOp::LShr => "lshr",
        };
        write!(f, "{s}")
    }
}

/// Floating-point binary operations (valid on `f32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// IEEE minimum (NaN-propagating like CUDA `fminf` on non-NaN inputs).
    Min,
    /// IEEE maximum.
    Max,
}

impl FloatBinOp {
    /// All float binary ops, in a stable order (used by mutation sampling).
    pub const ALL: [FloatBinOp; 6] = [
        FloatBinOp::Add,
        FloatBinOp::Sub,
        FloatBinOp::Mul,
        FloatBinOp::Div,
        FloatBinOp::Min,
        FloatBinOp::Max,
    ];
}

impl fmt::Display for FloatBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FloatBinOp::Add => "fadd",
            FloatBinOp::Sub => "fsub",
            FloatBinOp::Mul => "fmul",
            FloatBinOp::Div => "fdiv",
            FloatBinOp::Min => "fmin",
            FloatBinOp::Max => "fmax",
        };
        write!(f, "{s}")
    }
}

/// The operation an [`Instr`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer/bitwise binary op; args `[a, b]`.
    IBin(IntBinOp),
    /// Float binary op; args `[a, b]`.
    FBin(FloatBinOp),
    /// Integer compare producing `b1`; args `[a, b]`.
    Icmp(CmpPred),
    /// Float compare producing `b1` (ordered; any NaN ⇒ false except `Ne`);
    /// args `[a, b]`.
    Fcmp(CmpPred),
    /// Ternary select; args `[cond(b1), if_true, if_false]`.
    Select,
    /// Register copy; args `[src]`.
    Mov,
    /// Bitwise NOT (int) / logical NOT (`b1`); args `[a]`.
    Not,
    /// Integer negation; args `[a]`.
    Neg,
    /// Float negation; args `[a]`.
    FNeg,
    /// Sign-extend `i32` → `i64`; args `[a]`.
    Sext,
    /// Truncate `i64` → `i32`; args `[a]`.
    Trunc,
    /// Signed `i32` → `f32`; args `[a]`.
    SiToFp,
    /// `f32` → signed `i32` (round toward zero, saturating); args `[a]`.
    FpToSi,
    /// Zero-extend `b1` → `i32`; args `[a]`.
    ZextBool,
    /// Memory load; args `[addr(i64)]`, dst of `ty.value_ty()`.
    Load {
        /// Address space accessed.
        space: AddrSpace,
        /// Width/type of the access.
        ty: MemTy,
    },
    /// Memory store; args `[addr(i64), value]`, no dst.
    Store {
        /// Address space accessed.
        space: AddrSpace,
        /// Width/type of the access.
        ty: MemTy,
    },
    /// Atomic fetch-add on `i32`; args `[addr(i64), value]`, dst = old value.
    AtomicAdd {
        /// Address space accessed.
        space: AddrSpace,
    },
    /// Atomic fetch-max on `i32`; args `[addr(i64), value]`, dst = old value.
    AtomicMax {
        /// Address space accessed.
        space: AddrSpace,
    },
    /// Atomic compare-and-swap on `i32`; args `[addr(i64), expected, new]`,
    /// dst = old value.
    AtomicCas {
        /// Address space accessed.
        space: AddrSpace,
    },
    /// Read a lane's register value within the warp; args
    /// `[value, src_lane(i32)]`. Out-of-range source lanes return the
    /// calling lane's own value, like CUDA `__shfl_sync` with an invalid
    /// lane. Reading from an *inactive* lane returns that lane's stale
    /// register content — warp-synchronous programming's classic hazard.
    ShflSync,
    /// Read the lane `delta` below; args `[value, delta(i32)]`; lanes with
    /// `lane < delta` receive their own value (CUDA `__shfl_up_sync`).
    ShflUpSync,
    /// Warp vote: bit set for each active lane whose predicate is true;
    /// args `[pred(b1)]`, dst `i32`. On architectures with independent
    /// thread scheduling this forces a warp-wide synchronization and is
    /// charged accordingly (paper §VI-B).
    BallotSync,
    /// Mask of currently active lanes; no args, dst `i32`.
    ActiveMask,
    /// Block-wide barrier; no args, no dst.
    SyncThreads,
    /// Counter-based uniform RNG draw: deterministically mixes two `i64`
    /// operands into a non-negative `i32`; args `[seed, counter]`. Both the
    /// device kernels and the CPU reference models call the same mixing
    /// function ([`crate::rng::mix_to_u31`]), which is what lets `SIMCoV`'s
    /// stochastic simulation validate against its oracle under a fixed seed
    /// (paper §II-C2).
    RngNext,
}

impl Op {
    /// Number of operands this op expects.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            Op::IBin(_) | Op::FBin(_) | Op::Icmp(_) | Op::Fcmp(_) => 2,
            Op::Select => 3,
            Op::Mov
            | Op::Not
            | Op::Neg
            | Op::FNeg
            | Op::Sext
            | Op::Trunc
            | Op::SiToFp
            | Op::FpToSi
            | Op::ZextBool => 1,
            Op::Load { .. } => 1,
            Op::Store { .. } => 2,
            Op::AtomicAdd { .. } | Op::AtomicMax { .. } => 2,
            Op::AtomicCas { .. } => 3,
            Op::ShflSync | Op::ShflUpSync => 2,
            Op::BallotSync => 1,
            Op::ActiveMask | Op::SyncThreads => 0,
            Op::RngNext => 2,
        }
    }

    /// True if the op has a destination register.
    #[must_use]
    pub fn has_dst(&self) -> bool {
        !matches!(self, Op::Store { .. } | Op::SyncThreads)
    }

    /// Mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(&self) -> String {
        match self {
            Op::IBin(b) => b.to_string(),
            Op::FBin(b) => b.to_string(),
            Op::Icmp(p) => format!("icmp.{p}"),
            Op::Fcmp(p) => format!("fcmp.{p}"),
            Op::Select => "select".into(),
            Op::Mov => "mov".into(),
            Op::Not => "not".into(),
            Op::Neg => "neg".into(),
            Op::FNeg => "fneg".into(),
            Op::Sext => "sext".into(),
            Op::Trunc => "trunc".into(),
            Op::SiToFp => "sitofp".into(),
            Op::FpToSi => "fptosi".into(),
            Op::ZextBool => "zext".into(),
            Op::Load { space, ty } => format!("ld.{space}.{ty}"),
            Op::Store { space, ty } => format!("st.{space}.{ty}"),
            Op::AtomicAdd { space } => format!("atom.add.{space}"),
            Op::AtomicMax { space } => format!("atom.max.{space}"),
            Op::AtomicCas { space } => format!("atom.cas.{space}"),
            Op::ShflSync => "shfl.sync".into(),
            Op::ShflUpSync => "shfl.up.sync".into(),
            Op::BallotSync => "ballot.sync".into(),
            Op::ActiveMask => "activemask".into(),
            Op::SyncThreads => "bar.sync".into(),
            Op::RngNext => "rng.next".into(),
        }
    }
}

/// Index into a kernel's source-location table; see [`crate::Kernel::locs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocId(pub u16);

/// The anonymous source location.
pub const LOC_NONE: LocId = LocId(0);

/// A single (non-terminator) instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Stable identity; see [`InstId`].
    pub id: InstId,
    /// Destination register, absent for stores and barriers.
    pub dst: Option<Reg>,
    /// The operation performed.
    pub op: Op,
    /// Operand list; length must equal `op.arity()`.
    pub args: Vec<Operand>,
    /// Source tag for mapping edits back to workload source (paper §III-A).
    pub loc: LocId,
}

impl Instr {
    /// A clone of this instruction carrying a different identity.
    #[must_use]
    pub fn clone_with_id(&self, id: InstId) -> Instr {
        Instr {
            id,
            dst: self.dst,
            op: self.op,
            args: self.args.clone(),
            loc: self.loc,
        }
    }
}

/// What a basic block does after its body: the only control-flow
/// constructs in the IR. Evolutionary edits may replace the *condition
/// operand* of [`TermKind::CondBr`] but never the successor structure
/// (DESIGN.md §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// Unconditional jump.
    Br(BlockId),
    /// Two-way conditional jump.
    CondBr {
        /// Branch predicate (`b1`).
        cond: Operand,
        /// Successor when the predicate is true.
        if_true: BlockId,
        /// Successor when the predicate is false.
        if_false: BlockId,
    },
    /// Thread exit.
    Ret,
}

/// A block terminator; carries an [`InstId`] so condition-replacement
/// edits can address it stably.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Terminator {
    /// Stable identity, drawn from the same namespace as instruction IDs.
    pub id: InstId,
    /// The control transfer performed.
    pub kind: TermKind,
    /// Source tag.
    pub loc: LocId,
}

impl Terminator {
    /// Successor blocks, in branch order.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self.kind {
            TermKind::Br(b) => vec![b],
            TermKind::CondBr {
                if_true, if_false, ..
            } => vec![if_true, if_false],
            TermKind::Ret => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_ops() {
        assert_eq!(Op::IBin(IntBinOp::Add).arity(), 2);
        assert_eq!(Op::Select.arity(), 3);
        assert_eq!(Op::Mov.arity(), 1);
        assert_eq!(
            Op::Load {
                space: AddrSpace::Global,
                ty: MemTy::I32
            }
            .arity(),
            1
        );
        assert_eq!(
            Op::Store {
                space: AddrSpace::Shared,
                ty: MemTy::F32
            }
            .arity(),
            2
        );
        assert_eq!(
            Op::AtomicCas {
                space: AddrSpace::Global
            }
            .arity(),
            3
        );
        assert_eq!(Op::SyncThreads.arity(), 0);
        assert_eq!(Op::ActiveMask.arity(), 0);
        assert_eq!(Op::RngNext.arity(), 2);
    }

    #[test]
    fn dst_presence() {
        assert!(Op::Mov.has_dst());
        assert!(Op::AtomicAdd {
            space: AddrSpace::Global
        }
        .has_dst());
        assert!(!Op::Store {
            space: AddrSpace::Global,
            ty: MemTy::I32
        }
        .has_dst());
        assert!(!Op::SyncThreads.has_dst());
    }

    #[test]
    fn f32_bits_roundtrip() {
        let b: F32Bits = 3.25_f32.into();
        assert_eq!(b.value(), 3.25);
        let nan: F32Bits = f32::NAN.into();
        assert!(nan.value().is_nan());
        // Identical bit patterns compare equal even for NaN.
        assert_eq!(nan, f32::NAN.into());
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::Reg(Reg(3)));
        assert_eq!(Operand::from(7i32), Operand::ImmI32(7));
        assert_eq!(Operand::from(7i64), Operand::ImmI64(7));
        assert_eq!(Operand::from(true), Operand::ImmBool(true));
        assert_eq!(Operand::f32(1.5), Operand::ImmF32(1.5.into()));
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator {
            id: InstId(0),
            kind: TermKind::Br(BlockId(2)),
            loc: LOC_NONE,
        };
        assert_eq!(t.successors(), vec![BlockId(2)]);
        let c = Terminator {
            id: InstId(1),
            kind: TermKind::CondBr {
                cond: Operand::ImmBool(true),
                if_true: BlockId(1),
                if_false: BlockId(3),
            },
            loc: LOC_NONE,
        };
        assert_eq!(c.successors(), vec![BlockId(1), BlockId(3)]);
        let r = Terminator {
            id: InstId(2),
            kind: TermKind::Ret,
            loc: LOC_NONE,
        };
        assert!(r.successors().is_empty());
    }

    #[test]
    fn mnemonics_are_distinct_for_spaces() {
        let a = Op::Load {
            space: AddrSpace::Global,
            ty: MemTy::I32,
        };
        let b = Op::Load {
            space: AddrSpace::Shared,
            ty: MemTy::I32,
        };
        assert_ne!(a.mnemonic(), b.mnemonic());
    }

    #[test]
    fn display_operands() {
        assert_eq!(Operand::Reg(Reg(4)).to_string(), "%r4");
        assert_eq!(Operand::ImmI64(9).to_string(), "9l");
        assert_eq!(Operand::Param(2).to_string(), "%p2");
        assert_eq!(Operand::Special(Special::LaneId).to_string(), "%lane");
    }

    #[test]
    fn operand_json_round_trips() {
        let cases = [
            Operand::Reg(Reg(4)),
            Operand::ImmI32(i32::MIN),
            Operand::ImmI32(-1),
            Operand::ImmI64(i64::MIN),
            Operand::ImmI64(i64::MAX),
            Operand::ImmF32(F32Bits(f32::NAN.to_bits())),
            Operand::f32(-0.0),
            Operand::ImmBool(true),
            Operand::Param(u16::MAX),
        ];
        for op in cases {
            let text = op.to_json().to_string();
            let back = serde_json::from_str(&text).unwrap();
            assert_eq!(Operand::from_json(&back).unwrap(), op, "via {text}");
        }
        for s in Special::ALL {
            let back = serde_json::from_str(&s.to_json().to_string()).unwrap();
            assert_eq!(Special::from_json(&back).unwrap(), s);
        }
    }

    #[test]
    fn operand_json_rejects_malformed() {
        for bad in [
            "{}",
            r#"{"reg":-1}"#,
            r#"{"i32":3000000000}"#,
            r#"{"param":70000}"#,
            r#"{"special":"nope"}"#,
            r#"{"reg":1,"i32":2}"#,
            "5",
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(Operand::from_json(&v).is_err(), "accepted {bad}");
        }
    }
}
