//! Scalar and memory types of the IR.
//!
//! The type system is deliberately small: GPU kernels in the workloads this
//! reproduction targets (Smith-Waterman alignment, grid simulations) only
//! manipulate 32-bit integers, 32-bit floats, booleans (predicates) and
//! 64-bit byte addresses. Pointers are represented as [`Ty::I64`] values at
//! run time; their address space is a *static* property of the load/store
//! instruction, mirroring PTX's `ld.global` / `ld.shared` forms.

use std::fmt;

/// The address space a memory instruction operates on.
///
/// The simulator charges very different latencies to the two spaces and
/// models bank conflicts only for [`AddrSpace::Shared`], so the distinction
/// is load-bearing for the paper's Section VI-A analysis (shared memory vs.
/// register exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrSpace {
    /// Device (DRAM-backed) memory, visible to the whole grid.
    Global,
    /// Per-thread-block scratchpad memory.
    Shared,
}

impl fmt::Display for AddrSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrSpace::Global => write!(f, "global"),
            AddrSpace::Shared => write!(f, "shared"),
        }
    }
}

/// Scalar value types carried by registers and operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer; also the representation of pointers.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 1-bit predicate.
    Bool,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I32 => write!(f, "i32"),
            Ty::I64 => write!(f, "i64"),
            Ty::F32 => write!(f, "f32"),
            Ty::Bool => write!(f, "b1"),
        }
    }
}

/// Types that can be loaded from / stored to memory.
///
/// Booleans are not directly addressable; workloads store flags as `i32`,
/// exactly as the CUDA originals do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTy {
    /// 4-byte integer access.
    I32,
    /// 8-byte integer access.
    I64,
    /// 4-byte float access.
    F32,
}

impl MemTy {
    /// Width of the access in bytes.
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            MemTy::I32 | MemTy::F32 => 4,
            MemTy::I64 => 8,
        }
    }

    /// The register type produced by loading this memory type.
    #[must_use]
    pub fn value_ty(self) -> Ty {
        match self {
            MemTy::I32 => Ty::I32,
            MemTy::I64 => Ty::I64,
            MemTy::F32 => Ty::F32,
        }
    }
}

impl fmt::Display for MemTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value_ty())
    }
}

/// Kernel parameter types: scalars or pointers-with-address-space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamTy {
    /// A scalar parameter of the given type.
    Val(Ty),
    /// A pointer parameter into the given address space. Its runtime
    /// representation is an [`Ty::I64`] byte address.
    Ptr(AddrSpace),
}

impl ParamTy {
    /// The register-level type a use of this parameter has.
    #[must_use]
    pub fn value_ty(self) -> Ty {
        match self {
            ParamTy::Val(t) => t,
            ParamTy::Ptr(_) => Ty::I64,
        }
    }
}

impl fmt::Display for ParamTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamTy::Val(t) => write!(f, "{t}"),
            ParamTy::Ptr(s) => write!(f, "ptr.{s}"),
        }
    }
}

/// Comparison predicates shared by integer (`icmp`) and float (`fcmp`)
/// comparisons. Integer comparisons are signed, which matches every index
/// computation in the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed/ordered less-than.
    Lt,
    /// Signed/ordered less-or-equal.
    Le,
    /// Signed/ordered greater-than.
    Gt,
    /// Signed/ordered greater-or-equal.
    Ge,
}

impl CmpPred {
    /// All predicates, in a stable order (used by mutation sampling).
    pub const ALL: [CmpPred; 6] = [
        CmpPred::Eq,
        CmpPred::Ne,
        CmpPred::Lt,
        CmpPred::Le,
        CmpPred::Gt,
        CmpPred::Ge,
    ];

    /// Evaluate the predicate over a pre-computed three-way ordering.
    #[must_use]
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpPred::Eq => ord == Equal,
            CmpPred::Ne => ord != Equal,
            CmpPred::Lt => ord == Less,
            CmpPred::Le => ord != Greater,
            CmpPred::Gt => ord == Greater,
            CmpPred::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn memty_sizes() {
        assert_eq!(MemTy::I32.size(), 4);
        assert_eq!(MemTy::F32.size(), 4);
        assert_eq!(MemTy::I64.size(), 8);
    }

    #[test]
    fn memty_value_types() {
        assert_eq!(MemTy::I32.value_ty(), Ty::I32);
        assert_eq!(MemTy::I64.value_ty(), Ty::I64);
        assert_eq!(MemTy::F32.value_ty(), Ty::F32);
    }

    #[test]
    fn param_value_types() {
        assert_eq!(ParamTy::Val(Ty::F32).value_ty(), Ty::F32);
        assert_eq!(ParamTy::Ptr(AddrSpace::Global).value_ty(), Ty::I64);
        assert_eq!(ParamTy::Ptr(AddrSpace::Shared).value_ty(), Ty::I64);
    }

    #[test]
    fn cmp_pred_eval_covers_all_orderings() {
        assert!(CmpPred::Eq.eval(Ordering::Equal));
        assert!(!CmpPred::Eq.eval(Ordering::Less));
        assert!(CmpPred::Ne.eval(Ordering::Greater));
        assert!(CmpPred::Lt.eval(Ordering::Less));
        assert!(!CmpPred::Lt.eval(Ordering::Equal));
        assert!(CmpPred::Le.eval(Ordering::Equal));
        assert!(CmpPred::Gt.eval(Ordering::Greater));
        assert!(CmpPred::Ge.eval(Ordering::Equal));
        assert!(!CmpPred::Ge.eval(Ordering::Less));
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(Ty::I32.to_string(), "i32");
        assert_eq!(Ty::Bool.to_string(), "b1");
        assert_eq!(AddrSpace::Shared.to_string(), "shared");
        assert_eq!(ParamTy::Ptr(AddrSpace::Global).to_string(), "ptr.global");
        assert_eq!(CmpPred::Le.to_string(), "le");
    }
}
