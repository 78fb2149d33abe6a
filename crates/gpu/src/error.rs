//! Execution failures.
//!
//! Every failure a mutated kernel can provoke is a *value* of
//! [`ExecError`], never a panic: the evolutionary engine scores failing
//! variants as invalid individuals (paper §III-E: "Individuals that fail
//! one or more test cases are not part of the calculation").

use gevo_ir::{Ty, VerifyError};
use std::fmt;

/// Why a kernel launch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Global-memory access outside the device arena (or below the null
    /// guard) — the simulated segmentation fault of the paper's Fig. 10(b).
    GlobalFault {
        /// Offending byte address.
        addr: i64,
        /// Access width.
        bytes: u64,
    },
    /// Shared-memory access outside the block's static allocation.
    SharedFault {
        /// Offending byte offset.
        addr: i64,
        /// The block's shared size.
        shared_bytes: u32,
    },
    /// Misaligned memory access.
    Misaligned {
        /// Offending byte address.
        addr: i64,
        /// Required alignment.
        align: u64,
    },
    /// A barrier was executed by a warp whose divergence stack was not
    /// empty, or some warps can no longer reach the barrier.
    BarrierDivergence,
    /// Block deadlocked: no warp can make progress.
    Deadlock,
    /// The per-block step budget was exhausted (mutation-induced infinite
    /// loop).
    StepLimit,
    /// An operand of the wrong type. Nothing produces this: the verifier
    /// type-checks every operand before a kernel is compiled, the
    /// interpreter runs verified kernels only, and device memory stores
    /// register words ([`crate::DeviceMemory::store_word`]), not typed
    /// values, so a host cannot store a `b1` either.
    TypeMismatch {
        /// What the instruction required.
        expected: Ty,
        /// What it found.
        found: Ty,
    },
    /// The launch configuration is invalid for the spec (too many threads
    /// per block, shared memory oversubscription, zero-sized launch).
    BadLaunch(String),
    /// Kernel failed static verification before launch. The structured
    /// [`VerifyError`] is preserved (and exposed through
    /// [`std::error::Error::source`]) so callers can match on the
    /// verify-failure kind instead of parsing a message.
    ///
    /// Layout matters here: `ExecError` is the error half of the
    /// `Result` every per-lane memory access returns on the
    /// interpreter's hot path. `VerifyError` is all-`Copy` (24 bytes,
    /// no drop glue), so this variant keeps `ExecError` at the same
    /// 32-byte, trivially-droppable-on-the-Ok-path shape it had when
    /// the payload was a `String` — boxed or heap-carrying payloads
    /// here measurably slowed the whole simulator (see the
    /// `size-and-glue` regression test below).
    Verify(VerifyError),
}

impl From<VerifyError> for ExecError {
    fn from(e: VerifyError) -> ExecError {
        ExecError::Verify(e)
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::GlobalFault { addr, bytes } => {
                write!(f, "global memory fault at {addr} ({bytes}-byte access)")
            }
            ExecError::SharedFault { addr, shared_bytes } => {
                write!(
                    f,
                    "shared memory fault at offset {addr} (block has {shared_bytes} bytes)"
                )
            }
            ExecError::Misaligned { addr, align } => {
                write!(f, "misaligned {align}-byte access at {addr}")
            }
            ExecError::BarrierDivergence => write!(f, "barrier reached in divergent control flow"),
            ExecError::Deadlock => write!(f, "block deadlocked at a barrier"),
            ExecError::StepLimit => write!(f, "step limit exhausted (infinite loop?)"),
            ExecError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ExecError::BadLaunch(msg) => write!(f, "invalid launch: {msg}"),
            ExecError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ExecError::GlobalFault {
            addr: 1024,
            bytes: 4,
        };
        assert!(e.to_string().contains("1024"));
        let e = ExecError::TypeMismatch {
            expected: Ty::I32,
            found: Ty::F32,
        };
        assert!(e.to_string().contains("i32"));
        assert!(e.to_string().contains("f32"));
    }

    #[test]
    fn verify_error_is_structured_and_sourced() {
        use std::error::Error;
        let inner = VerifyError::Empty;
        let e = ExecError::from(inner);
        // Callers can match on the verify-failure kind...
        assert!(matches!(&e, ExecError::Verify(VerifyError::Empty)));
        // ...the message is unchanged from the stringly-typed days...
        assert_eq!(e.to_string(), "verification failed: kernel has no blocks");
        // ...and the error chain exposes the inner defect.
        let src = e.source().expect("verify errors carry a source");
        assert_eq!(src.to_string(), inner.to_string());
        // The hot-path Result stays as small as it was with Verify(String),
        // and the verify payload adds no drop glue to the interpreter's
        // per-instruction error paths (both were measured to cost double-
        // digit percentages of simulator throughput when violated).
        assert!(std::mem::size_of::<ExecError>() <= 32);
        assert!(!std::mem::needs_drop::<VerifyError>());
        assert!(ExecError::Deadlock.source().is_none());
    }

    #[test]
    fn errors_are_values_not_panics() {
        // Compile-time statement of intent: ExecError is Clone + Eq so the
        // engine can dedupe and count failure modes.
        fn assert_traits<T: Clone + PartialEq + Send + Sync>() {}
        assert_traits::<ExecError>();
    }
}
