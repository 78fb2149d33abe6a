//! Simulated device (global) memory, and word access to block shared memory.
//!
//! The arena models the paper's Fig. 10 behaviour precisely:
//!
//! * the whole arena is zero-initialized, and *reads anywhere inside the
//!   arena succeed* — so a kernel that walks off the end of its buffer
//!   reads zeros as long as it stays inside device memory (`SIMCoV`'s
//!   boundary-check removal passes the small-grid tests this way);
//! * accesses beyond the arena (or below the null guard) fault — the
//!   "segmentation fault on the 2500×2500 held-out grid".
//!
//! Kernels move register words: a 4- or 8-byte access is a word's low
//! bytes, little-endian, zero-extended on load, whatever its [`MemTy`].
//! Block shared memory is a byte slice of the launch's scratch, read and
//! written through the same word conversion.

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

    /// The register word a `ty` load at `addr` reads: the access's
    /// little-endian bytes, zero-extended. For every memory type this is
    /// [`crate::Value::to_bits`] of the value those bytes hold.
    ///
    /// # Errors
    /// Faults per the arena rules described at module level.
    #[inline]
    pub fn load_word(&self, addr: i64, ty: MemTy) -> Result<u64, ExecError> {
        let a = self.check(addr, ty.size())?;
        Ok(read_le(&self.data, a, ty.size()))
    }

    /// Stores the low `ty.size()` bytes of register word `word` at
    /// `addr`, little-endian: the inverse of [`Self::load_word`].
    ///
    /// # Errors
    /// Faults per the arena rules described at module level.
    #[inline]
    pub fn store_word(&mut self, addr: i64, ty: MemTy, word: u64) -> Result<(), ExecError> {
        let a = self.check(addr, ty.size())?;
        write_le(&mut self.data, a, ty.size(), word);
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

/// Block shared memory, `shared.len()` bytes: an offset faults unless
/// the whole access lies inside it, and it must be aligned to its size.
fn shared_check(shared: &[u8], addr: i64, bytes: u64) -> Result<usize, ExecError> {
    if addr < 0 || addr.unsigned_abs() + bytes > shared.len() as u64 {
        let shared_bytes = u32::try_from(shared.len()).expect("shared sizes fit u32");
        return Err(ExecError::SharedFault { addr, shared_bytes });
    }
    if !addr.unsigned_abs().is_multiple_of(bytes) {
        return Err(ExecError::Misaligned { addr, align: bytes });
    }
    Ok(usize::try_from(addr).expect("checked shared offset"))
}

/// [`DeviceMemory::load_word`] in block shared memory.
///
/// # Errors
/// [`ExecError::SharedFault`] outside `shared`, [`ExecError::Misaligned`]
/// off the access size.
#[inline]
pub(crate) fn load_shared_word(shared: &[u8], addr: i64, ty: MemTy) -> Result<u64, ExecError> {
    let a = shared_check(shared, addr, ty.size())?;
    Ok(read_le(shared, a, ty.size()))
}

/// [`DeviceMemory::store_word`] in block shared memory.
///
/// # Errors
/// As [`load_shared_word`].
#[inline]
pub(crate) fn store_shared_word(
    shared: &mut [u8],
    addr: i64,
    ty: MemTy,
    word: u64,
) -> Result<(), ExecError> {
    let a = shared_check(shared, addr, ty.size())?;
    write_le(shared, a, ty.size(), word);
    Ok(())
}

/// The `size`-byte (4 or 8) little-endian word at `bytes[a..]`,
/// zero-extended: for every memory type, the register word of the
/// value those bytes hold ([`crate::Value::to_bits`]).
#[inline]
fn read_le(bytes: &[u8], a: usize, size: u64) -> u64 {
    if size == 8 {
        u64::from_le_bytes(bytes[a..a + 8].try_into().expect("8 bytes"))
    } else {
        u64::from(u32::from_le_bytes(
            bytes[a..a + 4].try_into().expect("4 bytes"),
        ))
    }
}

/// Writes the low `size` bytes (4 or 8) of `word` to `bytes[a..]`,
/// little-endian: the inverse of [`read_le`].
#[inline]
fn write_le(bytes: &mut [u8], a: usize, size: u64, word: u64) {
    let n = if size == 8 { 8 } else { 4 };
    bytes[a..a + n].copy_from_slice(&word.to_le_bytes()[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use gevo_ir::Ty;

    const TYS: [MemTy; 3] = [MemTy::I32, MemTy::I64, MemTy::F32];

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
        for ty in TYS {
            assert_eq!(m.load_word(a.base() + 1024, ty), Ok(0), "{ty}");
        }
    }

    #[test]
    fn loads_beyond_arena_fault() {
        let mut m = DeviceMemory::new(4096);
        for (addr, ty) in [
            (4096, MemTy::I32),
            (4094, MemTy::I32), // straddles the end
            (4088 + 8, MemTy::I64),
            (-8, MemTy::I64),
        ] {
            let fault = Err(ExecError::GlobalFault {
                addr,
                bytes: ty.size(),
            });
            assert_eq!(m.load_word(addr, ty), fault, "{addr} {ty}");
            assert_eq!(m.store_word(addr, ty, 0), fault.map(|_| ()), "{addr} {ty}");
        }
        // The last word of the arena is inside it.
        assert_eq!(m.load_word(4088, MemTy::I64), Ok(0));
    }

    #[test]
    fn null_guard_faults() {
        let mut m = DeviceMemory::new(4096);
        for addr in [0, 128, NULL_GUARD as i64 - 4] {
            let fault = Err(ExecError::GlobalFault { addr, bytes: 4 });
            assert_eq!(m.load_word(addr, MemTy::I32), fault);
            assert_eq!(m.store_word(addr, MemTy::F32, 0), fault.map(|_| ()));
        }
        assert_eq!(m.load_word(NULL_GUARD as i64, MemTy::I32), Ok(0));
    }

    #[test]
    fn misaligned_access_faults() {
        let mut m = DeviceMemory::new(4096);
        for (addr, ty) in [
            (NULL_GUARD as i64 + 2, MemTy::I32),
            (NULL_GUARD as i64 + 1, MemTy::F32),
            (NULL_GUARD as i64 + 4, MemTy::I64),
        ] {
            let fault = Err(ExecError::Misaligned {
                addr,
                align: ty.size(),
            });
            assert_eq!(m.load_word(addr, ty), fault, "{addr} {ty}");
            assert_eq!(m.store_word(addr, ty, 1), fault.map(|_| ()), "{addr} {ty}");
        }
    }

    /// The values whose words test the little-endian round trip: a
    /// negative `i32` (a sign-extending load would set the high half),
    /// an `i64` with its high bits set and an `f32` NaN with a payload.
    fn edge_values() -> [(MemTy, Value); 3] {
        [
            (MemTy::I32, Value::I32(-7)),
            (MemTy::I64, Value::I64(-(1 << 40) - 3)),
            (MemTy::F32, Value::F32(f32::from_bits(0x7FC0_1234))),
        ]
    }

    /// A loaded word is the canonical word of its type: converting it
    /// to a value and back is the identity. So a load is the value
    /// conversion it replaced, in global and in shared memory.
    fn assert_canonical(ty: MemTy, w: u64) {
        assert_eq!(
            Value::from_bits(ty.value_ty(), w).to_bits(),
            w,
            "{ty} {w:#x}"
        );
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(64).unwrap();
        let mut shared = vec![0xDB; 64];
        for (k, (ty, v)) in (0..).zip(edge_values()) {
            let addr = a.base() + 8 * k;
            m.store_word(addr, ty, v.to_bits()).unwrap();
            store_shared_word(&mut shared, 8 * k, ty, v.to_bits()).unwrap();
            for w in [
                m.load_word(addr, ty).unwrap(),
                load_shared_word(&shared, 8 * k, ty).unwrap(),
            ] {
                assert_eq!(w, v.to_bits(), "{ty}");
                assert_canonical(ty, w);
            }
        }
        // Words loaded from bytes no store wrote are canonical too: the
        // shared-memory garbage and every width of an all-ones word.
        for ty in TYS {
            assert_canonical(ty, load_shared_word(&shared, 32, ty).unwrap());
        }
        m.write_i32s(a, 12, &[-1, -1]);
        for ty in TYS {
            assert_canonical(ty, m.load_word(a.base() + 48, ty).unwrap());
        }
        assert_eq!(
            m.load_word(a.base() + 48, MemTy::I32),
            Ok(Value::I32(-1).to_bits())
        );
        assert_eq!(Value::I32(-1).to_bits(), 0xFFFF_FFFF);
    }

    /// A 4-byte store writes the word's low four bytes and nothing else.
    #[test]
    fn narrow_stores_write_only_their_bytes() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(16).unwrap();
        m.write_i32s(a, 0, &[1, 2, 3]);
        m.store_word(a.base() + 4, MemTy::I32, Value::I32(-2).to_bits())
            .unwrap();
        assert_eq!(m.read_i32s(a, 0, 3), [1, -2, 3]);
        let mut shared = [0xDBu8; 12];
        store_shared_word(&mut shared, 4, MemTy::F32, Value::F32(1.5).to_bits()).unwrap();
        assert_eq!(shared[..4], [0xDB; 4]);
        assert_eq!(shared[4..8], 1.5f32.to_le_bytes());
        assert_eq!(shared[8..], [0xDB; 4]);
        assert_eq!(
            Value::from_bits(Ty::F32, load_shared_word(&shared, 4, MemTy::F32).unwrap()),
            Value::F32(1.5)
        );
    }

    #[test]
    fn shared_accesses_fault_outside_the_block_and_off_alignment() {
        let mut shared = vec![0u8; 64];
        for (addr, ty) in [
            (64, MemTy::I32),
            (60, MemTy::I64), // straddles the end
            (-4, MemTy::I32),
        ] {
            let fault = Err(ExecError::SharedFault {
                addr,
                shared_bytes: 64,
            });
            assert_eq!(load_shared_word(&shared, addr, ty), fault, "{addr} {ty}");
            assert_eq!(
                store_shared_word(&mut shared, addr, ty, 0),
                fault.map(|_| ()),
                "{addr} {ty}"
            );
        }
        for (addr, ty) in [(2, MemTy::I32), (4, MemTy::I64), (7, MemTy::F32)] {
            let fault = Err(ExecError::Misaligned {
                addr,
                align: ty.size(),
            });
            assert_eq!(load_shared_word(&shared, addr, ty), fault, "{addr} {ty}");
            assert_eq!(
                store_shared_word(&mut shared, addr, ty, 0),
                fault.map(|_| ()),
                "{addr} {ty}"
            );
        }
        // A kernel with no shared memory faults on any shared access.
        assert!(matches!(
            load_shared_word(&[], 0, MemTy::I32),
            Err(ExecError::SharedFault {
                shared_bytes: 0,
                ..
            })
        ));
        assert_eq!(load_shared_word(&shared, 56, MemTy::I64), Ok(0));
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
            m.load_word((g.addr + g.len) as i64, MemTy::I32),
            Err(ExecError::GlobalFault { .. })
        ));
    }
}
