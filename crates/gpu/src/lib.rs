//! # gevo-gpu
//!
//! A deterministic SIMT GPU **timing simulator** that executes
//! [`gevo_ir`] kernels. It stands in for the NVIDIA P100 / 1080Ti / V100
//! hardware of the IISWC'22 GEVO paper (see DESIGN.md §2 for the
//! substitution argument): the evolutionary engine measures *simulated
//! cycles* where the paper measured wall-clock kernel time.
//!
//! The model covers exactly the microarchitectural mechanisms the paper's
//! analysis attributes its discovered optimizations to:
//!
//! * **warp lock-step execution with divergence serialization** (both
//!   paths of a divergent branch run back-to-back; reconvergence at the
//!   immediate post-dominator) — §VI-A's shared-vs-register exchange
//!   finding;
//! * **shared-memory banking** with conflict serialization and a
//!   scalarized single-lane fast path — §VI-A / edit 5;
//! * **`ballot_sync` cost that depends on independent thread scheduling**
//!   (cheap on Pascal, a warp synchronization on Volta) — §VI-B;
//! * **barrier costs** that scale with resident warps — §VI-C's
//!   thirty-fold init-loop bottleneck;
//! * **global-memory coalescing, a per-SM cache and a DRAM row-buffer** —
//!   §VI-D's boundary-check hot-spot and §VI-E's mysterious
//!   redundant-write speedup;
//! * **an arena memory model where out-of-bounds reads inside device
//!   memory succeed (zeros) but accesses beyond it fault** — Fig. 10's
//!   small-grid-passes / large-grid-segfaults behaviour.
//!
//! ## Compile-once execution
//!
//! Evaluation loops launch the same kernel variant many times. The
//! [`compile`] layer lowers a verified kernel once into a
//! [`CompiledKernel`] — flattened instruction stream, pre-resolved
//! operands, baked reconvergence targets and static costs — which
//! [`Gpu::launch_compiled`] executes without any per-launch verification
//! or CFG analysis. [`Gpu::launch`] remains the one-shot
//! verify-compile-run convenience and produces bit-identical results.
//!
//! ## Example
//!
//! ```
//! use gevo_gpu::{Gpu, GpuSpec, KernelArg, LaunchConfig};
//! use gevo_ir::{KernelBuilder, AddrSpace, MemTy, Operand, Special};
//!
//! // out[i] = i * 3 over one block of 64 threads.
//! let mut b = KernelBuilder::new("triple");
//! let out = b.param_ptr("out", AddrSpace::Global);
//! let tid = b.special_i32(Special::ThreadId);
//! let v = b.mul(tid.into(), Operand::ImmI32(3));
//! let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
//! b.store(AddrSpace::Global, MemTy::I32, addr.into(), v.into());
//! b.ret();
//! let kernel = b.finish();
//!
//! let mut gpu = Gpu::new(GpuSpec::p100());
//! let buf = gpu.mem_mut().alloc(64 * 4)?;
//! let stats = gpu.launch(&kernel, LaunchConfig::new(1, 64), &[buf.into()])?;
//! assert_eq!(gpu.mem().read_i32s(buf, 0, 4), vec![0, 3, 6, 9]);
//! assert!(stats.cycles > 0);
//! # Ok::<(), gevo_gpu::ExecError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::missing_panics_doc)]
#![allow(clippy::cast_lossless)]
// The executor's datapath reinterprets register words between
// i32/i64/u64 views on purpose (that is what the simulated hardware
// does); wrapping and truncating casts are the defined semantics.
#![allow(clippy::cast_possible_truncation)]
#![allow(clippy::cast_possible_wrap)]
#![allow(clippy::cast_sign_loss)]
// Per-op cost/semantics tables stay exhaustive even when arms
// coincide, so each op's cost is auditable against DESIGN.md §3.2.
#![allow(clippy::match_same_arms)]

pub mod compile;
pub mod error;
pub mod exec;
pub mod launch;
pub mod mem;
pub mod profile;
pub mod spec;
pub mod value;

pub use compile::{opt_level, set_opt_level, CompiledKernel, OptLevel};
pub use error::ExecError;
pub use exec::{ExecScratch, Gpu, MAX_WARP};
pub use launch::{KernelArg, LaunchConfig, LaunchStats};
pub use mem::{Buffer, DeviceMemory, NULL_GUARD};
pub use profile::{collect_profiles, LaunchProfile};
pub use spec::{CostModel, GpuSpec};
pub use value::Value;
