//! Typed scalars at the simulator's boundaries, and their register words.

use gevo_ir::Ty;
use std::fmt;

/// A typed scalar: the form a value takes at the simulator's boundaries
/// — kernel parameters, device and shared memory, compile-time folding
/// and the pure evaluator the scalar ops share.
///
/// Registers do not hold `Value`s. A warp's register file is untyped
/// `u64` words, and every register has one type, declared by the kernel
/// and enforced by the verifier before a kernel is compiled; the
/// interpreter converts with [`Value::to_bits`] and [`Value::from_bits`]
/// at that declared type. An operand whose type does not fit its op
/// (possible only in a hand-built instruction stream that bypassed the
/// verifier) still surfaces as a *typed execution error* (invalid
/// variant), never a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit signed integer.
    I32(i32),
    /// 64-bit signed integer / byte address.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// Predicate.
    Bool(bool),
}

impl Value {
    /// The deterministic "uninitialized register" sentinel for a type.
    ///
    /// Real GPUs hand back whatever the physical register last held;
    /// mutations that read registers before writing them must produce
    /// *deterministically wrong* answers for fitness evaluation to be
    /// reproducible, so the simulator initializes registers to these
    /// recognizable garbage patterns.
    #[must_use]
    pub fn sentinel(ty: Ty) -> Value {
        match ty {
            Ty::I32 => Value::I32(i32::from_le_bytes([0xDB; 4])),
            Ty::I64 => Value::I64(i64::from_le_bytes([0xDB; 8])),
            Ty::F32 => Value::F32(f32::from_le_bytes([0xDB; 4])),
            Ty::Bool => Value::Bool(false),
        }
    }

    /// The register word holding this value: the value's bits,
    /// zero-extended to 64 (`b1` is 0 or 1).
    #[must_use]
    #[inline]
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I32(v) => u64::from(v as u32),
            Value::I64(v) => v as u64,
            Value::F32(v) => u64::from(v.to_bits()),
            Value::Bool(v) => u64::from(v),
        }
    }

    /// The value of type `ty` held in register word `word`: the inverse
    /// of [`Value::to_bits`] (bits above the type's width are ignored).
    #[must_use]
    #[inline]
    pub fn from_bits(ty: Ty, word: u64) -> Value {
        match ty {
            Ty::I32 => Value::I32(word as i32),
            Ty::I64 => Value::I64(word as i64),
            Ty::F32 => Value::F32(f32::from_bits(word as u32)),
            Ty::Bool => Value::Bool(word & 1 != 0),
        }
    }

    /// This value's type.
    #[must_use]
    pub fn ty(&self) -> Ty {
        match self {
            Value::I32(_) => Ty::I32,
            Value::I64(_) => Ty::I64,
            Value::F32(_) => Ty::F32,
            Value::Bool(_) => Ty::Bool,
        }
    }

    /// Extracts an `i32`, if that is the type.
    #[must_use]
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::I32(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts an `i64`, if that is the type.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts an `f32`, if that is the type.
    #[must_use]
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Value::F32(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a `bool`, if that is the type.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}l"),
            Value::F32(v) => write!(f, "{v}f"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_types_match() {
        for ty in [Ty::I32, Ty::I64, Ty::F32, Ty::Bool] {
            assert_eq!(Value::sentinel(ty).ty(), ty);
        }
    }

    #[test]
    fn sentinels_are_recognizable_garbage() {
        assert_eq!(
            Value::sentinel(Ty::I32).as_i32(),
            Some(i32::from_le_bytes([0xDB; 4]))
        );
        assert_ne!(Value::sentinel(Ty::I32).as_i32(), Some(0));
    }

    #[test]
    fn accessors_reject_wrong_type() {
        let v = Value::I32(7);
        assert_eq!(v.as_i32(), Some(7));
        assert_eq!(v.as_i64(), None);
        assert_eq!(v.as_f32(), None);
        assert_eq!(v.as_bool(), None);
    }

    #[test]
    fn register_words_round_trip_bit_for_bit() {
        let values = [
            Value::I32(-1),
            Value::I32(i32::MIN),
            Value::I64(i64::MIN),
            Value::I64(-2),
            Value::F32(f32::NAN),
            Value::F32(-0.0),
            Value::Bool(true),
            Value::Bool(false),
        ];
        for v in values
            .into_iter()
            .chain([Ty::I32, Ty::I64, Ty::F32, Ty::Bool].map(Value::sentinel))
        {
            let back = Value::from_bits(v.ty(), v.to_bits());
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
            assert_eq!(back.ty(), v.ty());
        }
        // Narrow values zero-extend: a negative i32 is not sign-extended.
        assert_eq!(Value::I32(-1).to_bits(), 0xFFFF_FFFF);
        assert_eq!(Value::sentinel(Ty::F32).to_bits(), 0xDBDB_DBDB);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i32), Value::I32(5));
        assert_eq!(Value::from(5i64), Value::I64(5));
        assert_eq!(Value::from(2.5f32), Value::F32(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
