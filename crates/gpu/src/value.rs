//! Runtime values held in simulated registers.

use gevo_ir::Ty;
use std::fmt;

/// A dynamically typed scalar.
///
/// The executor checks types at every use: a mismatch means the verifier
/// was bypassed or has a hole, so it surfaces as a *typed execution error*
/// (invalid variant), never a panic.
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
    fn conversions() {
        assert_eq!(Value::from(5i32), Value::I32(5));
        assert_eq!(Value::from(5i64), Value::I64(5));
        assert_eq!(Value::from(2.5f32), Value::F32(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
