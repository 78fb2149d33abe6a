//! Simulated device (global) memory.
//!
//! The arena models the paper's Fig. 10 behaviour precisely:
//!
//! * the whole arena is zero-initialized, and *reads anywhere inside the
//!   arena succeed* — so a kernel that walks off the end of its buffer
//!   reads zeros as long as it stays inside device memory (`SIMCoV`'s
//!   boundary-check removal passes the small-grid tests this way);
//! * accesses beyond the arena (or below the null guard) fault — the
//!   "segmentation fault on the 2500×2500 held-out grid".

use crate::error::ExecError;
use gevo_ir::MemTy;

/// Addresses below this value fault: the null-pointer guard.
pub const NULL_GUARD: u64 = 256;

/// A device allocation handle (base byte address + length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buffer {
    /// Base byte address inside the arena.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Buffer {
    /// Base address as the `i64` the IR manipulates.
    #[must_use]
    pub fn base(&self) -> i64 {
        i64::try_from(self.addr).expect("arena addresses fit in i64")
    }
}

/// The device-memory arena.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    data: Vec<u8>,
    cursor: u64,
}

impl DeviceMemory {
    /// Creates a zeroed arena of `bytes` bytes.
    #[must_use]
    pub fn new(bytes: u64) -> DeviceMemory {
        DeviceMemory {
            data: vec![0u8; usize::try_from(bytes).expect("arena fits in usize")],
            cursor: NULL_GUARD,
        }
    }

    /// Arena capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes still available to `alloc`.
    #[must_use]
    pub fn available(&self) -> u64 {
        self.capacity().saturating_sub(self.cursor)
    }

    /// Allocates `bytes` bytes, 256-byte aligned (cudaMalloc-like).
    ///
    /// # Errors
    /// Returns [`ExecError::BadLaunch`] when the arena is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> Result<Buffer, ExecError> {
        let base = self.cursor.next_multiple_of(256);
        let end = base
            .checked_add(bytes)
            .ok_or_else(|| ExecError::BadLaunch("allocation size overflow".into()))?;
        if end > self.capacity() {
            return Err(ExecError::BadLaunch(format!(
                "out of device memory: need {bytes} bytes, {} available",
                self.capacity().saturating_sub(base)
            )));
        }
        let buf = Buffer {
            addr: base,
            len: bytes,
        };
        self.cursor = end;
        Ok(buf)
    }

    /// Allocates so that the buffer's **end** coincides with the arena's
    /// end. `SIMCoV`'s held-out validation uses this to place the grid flush
    /// against the top of device memory, reproducing the paper's
    /// segfault-on-large-grid (Fig. 10(b)).
    ///
    /// # Errors
    /// Returns [`ExecError::BadLaunch`] if the buffer cannot fit.
    pub fn alloc_at_end(&mut self, bytes: u64) -> Result<Buffer, ExecError> {
        let base = self
            .capacity()
            .checked_sub(bytes)
            .ok_or_else(|| ExecError::BadLaunch("allocation larger than arena".into()))?;
        let base_aligned = base & !3; // keep 4-byte alignment
        if base_aligned < self.cursor {
            return Err(ExecError::BadLaunch(
                "end-of-arena allocation collides with existing allocations".into(),
            ));
        }
        let buf = Buffer {
            addr: base_aligned,
            len: self.capacity() - base_aligned,
        };
        self.cursor = self.capacity();
        Ok(buf)
    }

    fn check(&self, addr: i64, bytes: u64) -> Result<usize, ExecError> {
        if addr < 0 {
            return Err(ExecError::GlobalFault { addr, bytes });
        }
        let a = addr.unsigned_abs();
        if a < NULL_GUARD || a + bytes > self.capacity() {
            return Err(ExecError::GlobalFault { addr, bytes });
        }
        if !a.is_multiple_of(bytes) {
            return Err(ExecError::Misaligned { addr, align: bytes });
        }
        Ok(usize::try_from(a).expect("checked address fits usize"))
    }

    /// Raw typed load.
    ///
    /// # Errors
    /// Faults per the arena rules described at module level.
    pub fn load(&self, addr: i64, ty: MemTy) -> Result<crate::value::Value, ExecError> {
        let a = self.check(addr, ty.size())?;
        Ok(match ty {
            MemTy::I32 => crate::value::Value::I32(i32::from_le_bytes(
                self.data[a..a + 4].try_into().expect("4 bytes"),
            )),
            MemTy::I64 => crate::value::Value::I64(i64::from_le_bytes(
                self.data[a..a + 8].try_into().expect("8 bytes"),
            )),
            MemTy::F32 => crate::value::Value::F32(f32::from_le_bytes(
                self.data[a..a + 4].try_into().expect("4 bytes"),
            )),
        })
    }

    /// Raw typed store.
    ///
    /// # Errors
    /// Faults per the arena rules described at module level.
    pub fn store(&mut self, addr: i64, v: crate::value::Value) -> Result<(), ExecError> {
        match v {
            crate::value::Value::I32(x) => {
                let a = self.check(addr, 4)?;
                self.data[a..a + 4].copy_from_slice(&x.to_le_bytes());
            }
            crate::value::Value::I64(x) => {
                let a = self.check(addr, 8)?;
                self.data[a..a + 8].copy_from_slice(&x.to_le_bytes());
            }
            crate::value::Value::F32(x) => {
                let a = self.check(addr, 4)?;
                self.data[a..a + 4].copy_from_slice(&x.to_le_bytes());
            }
            crate::value::Value::Bool(_) => {
                return Err(ExecError::TypeMismatch {
                    expected: gevo_ir::Ty::I32,
                    found: gevo_ir::Ty::Bool,
                })
            }
        }
        Ok(())
    }

    // ----- host-side bulk transfer (cudaMemcpy analog) ------------------

    /// Host → device copy of `i32`s into a buffer.
    ///
    /// # Panics
    /// Panics if the slice overruns the buffer (host-side misuse is a bug,
    /// not a simulated fault).
    pub fn write_i32s(&mut self, buf: Buffer, offset_elems: u64, data: &[i32]) {
        let start = usize::try_from(buf.addr + offset_elems * 4).expect("addr");
        let end = start + data.len() * 4;
        assert!(
            end as u64 <= buf.addr + buf.len,
            "write_i32s overruns buffer"
        );
        for (i, v) in data.iter().enumerate() {
            self.data[start + i * 4..start + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Device → host copy of `i32`s out of a buffer.
    ///
    /// # Panics
    /// Panics if the range overruns the buffer.
    #[must_use]
    pub fn read_i32s(&self, buf: Buffer, offset_elems: u64, count: usize) -> Vec<i32> {
        let start = usize::try_from(buf.addr + offset_elems * 4).expect("addr");
        assert!(
            (start + count * 4) as u64 <= buf.addr + buf.len,
            "read_i32s overruns buffer"
        );
        (0..count)
            .map(|i| {
                i32::from_le_bytes(
                    self.data[start + i * 4..start + i * 4 + 4]
                        .try_into()
                        .expect("4 bytes"),
                )
            })
            .collect()
    }

    /// Host → device copy of `f32`s into a buffer.
    ///
    /// # Panics
    /// Panics if the slice overruns the buffer.
    pub fn write_f32s(&mut self, buf: Buffer, offset_elems: u64, data: &[f32]) {
        let start = usize::try_from(buf.addr + offset_elems * 4).expect("addr");
        assert!(
            (start + data.len() * 4) as u64 <= buf.addr + buf.len,
            "write_f32s overruns buffer"
        );
        for (i, v) in data.iter().enumerate() {
            self.data[start + i * 4..start + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Device → host copy of `f32`s out of a buffer.
    ///
    /// # Panics
    /// Panics if the range overruns the buffer.
    #[must_use]
    pub fn read_f32s(&self, buf: Buffer, offset_elems: u64, count: usize) -> Vec<f32> {
        let start = usize::try_from(buf.addr + offset_elems * 4).expect("addr");
        assert!(
            (start + count * 4) as u64 <= buf.addr + buf.len,
            "read_f32s overruns buffer"
        );
        (0..count)
            .map(|i| {
                f32::from_le_bytes(
                    self.data[start + i * 4..start + i * 4 + 4]
                        .try_into()
                        .expect("4 bytes"),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn alloc_respects_alignment_and_capacity() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a.addr % 256, 0);
        assert_eq!(b.addr % 256, 0);
        assert!(b.addr >= a.addr + a.len);
        assert!(m.alloc(1 << 20).is_err(), "over-capacity alloc must fail");
    }

    #[test]
    fn loads_inside_arena_but_outside_buffers_read_zero() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(64).unwrap();
        // Read far past the buffer but inside the arena: zeros, no fault.
        let v = m.load(a.base() + 1024, MemTy::I32).unwrap();
        assert_eq!(v, Value::I32(0));
    }

    #[test]
    fn loads_beyond_arena_fault() {
        let m = DeviceMemory::new(4096);
        assert!(matches!(
            m.load(4096, MemTy::I32),
            Err(ExecError::GlobalFault { .. })
        ));
        assert!(matches!(
            m.load(4094, MemTy::I32), // straddles the end
            Err(ExecError::GlobalFault { .. })
        ));
    }

    #[test]
    fn null_guard_faults() {
        let m = DeviceMemory::new(4096);
        assert!(matches!(
            m.load(0, MemTy::I32),
            Err(ExecError::GlobalFault { .. })
        ));
        assert!(matches!(
            m.load(128, MemTy::I32),
            Err(ExecError::GlobalFault { .. })
        ));
    }

    #[test]
    fn misaligned_access_faults() {
        let m = DeviceMemory::new(4096);
        assert!(matches!(
            m.load(NULL_GUARD as i64 + 2, MemTy::I32),
            Err(ExecError::Misaligned { .. })
        ));
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(64).unwrap();
        m.store(a.base(), Value::I32(-7)).unwrap();
        m.store(a.base() + 8, Value::F32(1.5)).unwrap();
        m.store(a.base() + 16, Value::I64(1 << 40)).unwrap();
        assert_eq!(m.load(a.base(), MemTy::I32).unwrap(), Value::I32(-7));
        assert_eq!(m.load(a.base() + 8, MemTy::F32).unwrap(), Value::F32(1.5));
        assert_eq!(
            m.load(a.base() + 16, MemTy::I64).unwrap(),
            Value::I64(1 << 40)
        );
    }

    #[test]
    fn bulk_transfer_roundtrip() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(64).unwrap();
        m.write_i32s(a, 0, &[1, 2, 3]);
        assert_eq!(m.read_i32s(a, 0, 3), vec![1, 2, 3]);
        m.write_f32s(a, 4, &[0.5, -0.5]);
        assert_eq!(m.read_f32s(a, 4, 2), vec![0.5, -0.5]);
    }

    #[test]
    fn alloc_at_end_touches_arena_top() {
        let mut m = DeviceMemory::new(4096);
        let g = m.alloc_at_end(1024).unwrap();
        assert_eq!(g.addr + g.len, 4096);
        // One element past the buffer faults — there is no slack.
        assert!(matches!(
            m.load((g.addr + g.len) as i64, MemTy::I32),
            Err(ExecError::GlobalFault { .. })
        ));
    }
}
