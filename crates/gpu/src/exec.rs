//! The SIMT executor and timing model.
//!
//! Execution is warp-lock-step with an explicit divergence stack that
//! reconverges at the branch block's immediate post-dominator — the
//! textbook SIMT mechanism that makes the paper's §VI-A analysis ("branch
//! divergence forces every thread in the warp to run through both if and
//! else regions") literal in this simulator.
//!
//! Timing is a two-bound roofline per block: the *latency* bound is the
//! slowest warp's accumulated instruction latencies (with barriers
//! synchronizing warp clocks), and the *throughput* bound is total issue
//! work divided by the SM's issue width. Block times sum per SM;
//! the launch takes the slowest SM plus a fixed launch overhead.
//!
//! The interpreter executes [`CompiledKernel`]s — kernels lowered once by
//! [`crate::compile`] into a dense stream with pre-resolved operands,
//! baked branch/reconvergence targets and static costs. [`Gpu::launch`]
//! compiles on the fly for one-shot use; evaluation loops that launch the
//! same variant repeatedly should compile once and call
//! [`Gpu::launch_compiled`].
//!
//! ## Zero-allocation steady state
//!
//! All per-launch mutable state — warp states and their register files,
//! the shared-memory buffer, divergence stacks, the warp-order
//! permutation, the launch's parameter values and per-SM cycle tallies —
//! lives in an [`ExecScratch`] that persists across blocks *and*
//! launches ([`Gpu`] owns one; [`Gpu::launch_compiled_in`] accepts an
//! external one). A steady-state evaluation loop therefore performs **no
//! heap allocation**: register files reset with a `memcpy` from the
//! compile-time image, shared memory with a `memset`, and the
//! transient sets the memory model needs (coalesced segments, bank
//! words) are fixed stack arrays bounded by [`MAX_WARP`]. Scratch
//! contents never affect results — every launch fully reinitializes the
//! state it reads, which the scratch-reuse differential proptest
//! (`crates/bench/tests/scratch_reuse.rs`) enforces bit-for-bit.

use crate::compile::{CInst, CTerm, CompiledKernel, OpClass, Slot, EXIT};
use crate::error::ExecError;
use crate::launch::{KernelArg, LaunchConfig, LaunchStats};
use crate::mem::{load_shared_word, store_shared_word, DeviceMemory};
use crate::spec::GpuSpec;
use crate::value::Value;
use gevo_ir::{rng, AddrSpace, CmpPred, FloatBinOp, IntBinOp, Kernel, MemTy, Op, Param, Ty};
use std::cell::Cell;

/// Maximum supported warp width (masks are stored in `u64`, lane indices
/// reported through `i32` ballots cap at 32).
pub const MAX_WARP: u32 = 32;

/// A simulated GPU: one spec plus its device memory, L2 state and the
/// reusable execution scratch.
#[derive(Debug)]
pub struct Gpu {
    spec: GpuSpec,
    mem: DeviceMemory,
    l2: L2State,
    scratch: ExecScratch,
    /// Largest warp-step count of any block this device has completed.
    peak_block_steps: u64,
}

impl Gpu {
    /// Creates a device with the spec's memory arena.
    #[must_use]
    pub fn new(spec: GpuSpec) -> Gpu {
        Gpu::with_scratch(spec, ExecScratch::new())
    }

    /// Creates a device that adopts an existing [`ExecScratch`] (e.g.
    /// recycled from a finished device by an evaluation loop that builds
    /// a fresh `Gpu` per fitness evaluation). Behaviour is identical to
    /// [`Gpu::new`]; only the allocations are warm.
    #[must_use]
    pub fn with_scratch(spec: GpuSpec, scratch: ExecScratch) -> Gpu {
        assert!(
            spec.warp_size >= 2 && spec.warp_size <= MAX_WARP,
            "warp_size must be in 2..={MAX_WARP}"
        );
        let mem = DeviceMemory::new(spec.device_mem_bytes);
        let l2 = L2State::new(&spec);
        Gpu {
            spec,
            mem,
            l2,
            scratch,
            peak_block_steps: 0,
        }
    }

    /// Takes the device's execution scratch (leaving a fresh empty one),
    /// so its allocations can outlive this `Gpu` — the complement of
    /// [`Gpu::with_scratch`].
    pub fn take_scratch(&mut self) -> ExecScratch {
        std::mem::take(&mut self.scratch)
    }

    /// The device's spec.
    #[must_use]
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The largest number of warp-steps any single block has executed
    /// across this device's launches — the quantity
    /// [`GpuSpec::step_limit`] bounds. Blocks that fault (including a
    /// step-limit kill) are not counted. Kept out of [`LaunchStats`],
    /// which is checkpointed.
    #[must_use]
    pub fn peak_block_steps(&self) -> u64 {
        self.peak_block_steps
    }

    /// Device memory (for host-side setup).
    #[must_use]
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Device memory, mutably (for host-side setup).
    pub fn mem_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// Compiles a kernel for repeated launching on this device.
    ///
    /// # Errors
    /// Returns [`ExecError::Verify`] if the kernel fails static
    /// verification.
    pub fn compile(&self, kernel: &Kernel) -> Result<CompiledKernel, ExecError> {
        CompiledKernel::compile(kernel, &self.spec).map_err(ExecError::from)
    }

    /// Launches a kernel and runs it to completion.
    ///
    /// This is the one-shot path: it verifies, compiles and executes in
    /// one call. Loops that launch the same kernel repeatedly should
    /// [`Gpu::compile`] once and use [`Gpu::launch_compiled`].
    ///
    /// # Errors
    /// Any [`ExecError`] the kernel provokes; the device memory may be
    /// partially written when an error is returned, exactly like a real
    /// device after an asynchronous fault.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<LaunchStats, ExecError> {
        validate_geometry(&self.spec, &kernel.params, kernel.shared_bytes, cfg, args)?;
        let compiled = self.compile(kernel)?;
        self.launch_compiled(&compiled, cfg, args)
    }

    /// Launches a pre-compiled kernel and runs it to completion.
    ///
    /// Verification, CFG analysis and operand resolution were all paid at
    /// [`Gpu::compile`] time; a launch only validates the geometry and
    /// arguments, then interprets the flattened stream. Behaviour and
    /// [`LaunchStats`] are bit-identical to [`Gpu::launch`] on the source
    /// kernel.
    ///
    /// # Errors
    /// [`ExecError::BadLaunch`] if the kernel was compiled for a
    /// different spec (warp width or cost table), plus any [`ExecError`]
    /// the kernel provokes.
    pub fn launch_compiled(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<LaunchStats, ExecError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.launch_compiled_in(kernel, cfg, args, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// [`Gpu::launch_compiled`] with an explicit [`ExecScratch`].
    ///
    /// The scratch is working memory only: results are bit-identical
    /// whether it is freshly created, was last used by a different
    /// kernel, a different geometry, or a different device. Threading
    /// one scratch through a loop of launches keeps the steady state
    /// allocation-free; [`Gpu::launch_compiled`] does exactly this with
    /// the device-owned scratch.
    ///
    /// # Errors
    /// Same contract as [`Gpu::launch_compiled`].
    pub fn launch_compiled_in(
        &mut self,
        kernel: &CompiledKernel,
        cfg: LaunchConfig,
        args: &[KernelArg],
        scratch: &mut ExecScratch,
    ) -> Result<LaunchStats, ExecError> {
        if !kernel.matches_spec(&self.spec) {
            let why = if kernel.lanes == self.spec.warp_size {
                "different cost table".to_string()
            } else {
                format!(
                    "{} lanes, this device has {}",
                    kernel.lanes, self.spec.warp_size
                )
            };
            return Err(ExecError::BadLaunch(format!(
                "kernel {} was compiled for a different spec ({why})",
                kernel.name
            )));
        }
        validate_geometry(&self.spec, &kernel.params, kernel.shared_bytes, cfg, args)?;
        scratch.params.clear();
        scratch.params.extend(args.iter().map(KernelArg::value));
        scratch.sm_cycles.clear();
        scratch.sm_cycles.resize(self.spec.sm_count as usize, 0);

        let lanes = self.spec.warp_size;
        let mut stats = LaunchStats {
            blocks: cfg.grid,
            warps_per_block: cfg.block.div_ceil(lanes),
            ..LaunchStats::default()
        };
        for block_idx in 0..cfg.grid {
            scratch.reset_block(kernel, cfg.block, lanes);
            // Warp issue order: seed 0 (the deterministic fitness
            // baseline) runs in natural ascending order with no
            // permutation buffer at all; other seeds fill the reused
            // buffer with a Fisher-Yates shuffle (paper §II-C2).
            let permuted = cfg.sched_seed != 0;
            if permuted {
                fill_warp_order(
                    &mut scratch.order,
                    scratch.warps.len(),
                    cfg.sched_seed,
                    block_idx,
                );
            }
            let (block_cycles, block_steps) = {
                // Device-wide L2 cache and DRAM row state persist across
                // blocks AND launches (real devices do not flush L2
                // between kernels); the scratch persists too, but is
                // fully reinitialized by `reset_block`. The hot-loop
                // state is borrowed as slices (not `&mut Vec`) so every
                // warp/shared access is a single indirection.
                let mut exec = BlockExec {
                    spec: &self.spec,
                    mem: &mut self.mem,
                    kernel,
                    params: &scratch.params,
                    launch: cfg,
                    block_idx,
                    stats: &mut stats,
                    shared: &mut scratch.shared[..],
                    l2: &mut self.l2,
                    warps: &mut scratch.warps[..],
                    order: if permuted { &scratch.order[..] } else { &[] },
                    steps: 0,
                    issue: 0,
                    lanes,
                };
                (exec.run()?, exec.steps)
            };
            // Every step is one warp-instruction: an instruction or a
            // terminator.
            stats.instructions += block_steps;
            self.peak_block_steps = self.peak_block_steps.max(block_steps);
            let sm = (block_idx % self.spec.sm_count) as usize;
            scratch.sm_cycles[sm] += block_cycles;
        }
        stats.cycles =
            self.spec.costs.launch_overhead + scratch.sm_cycles.iter().copied().max().unwrap_or(0);
        Ok(stats)
    }
}

/// Reusable per-launch execution state: warp records (with their
/// register files and divergence stacks), the shared-memory buffer, the
/// warp-order permutation, parameter values and per-SM cycle tallies.
///
/// Persisting this across blocks and launches is what makes the
/// interpreter's steady state allocation-free (see the module docs).
/// A scratch carries **no semantic state**: every launch reinitializes
/// everything it reads, so any scratch — fresh, or last used by a
/// different kernel/geometry/device — produces bit-identical results.
#[derive(Debug, Default)]
pub struct ExecScratch {
    warps: Vec<Warp>,
    shared: Vec<u8>,
    order: Vec<u32>,
    params: Vec<Value>,
    sm_cycles: Vec<u64>,
}

impl ExecScratch {
    /// An empty scratch; buffers grow on first use and are reused
    /// afterwards.
    #[must_use]
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Reinitializes the warp set and shared memory for one block,
    /// reusing every allocation from previous blocks/launches.
    fn reset_block(&mut self, kernel: &CompiledKernel, n_threads: u32, lanes: u32) {
        let n_warps = n_threads.div_ceil(lanes) as usize;
        self.warps.truncate(n_warps);
        for (w, warp) in self.warps.iter_mut().enumerate() {
            warp.reset(w as u32, n_threads, lanes, &kernel.reg_file);
        }
        for w in self.warps.len()..n_warps {
            self.warps
                .push(Warp::fresh(w as u32, n_threads, lanes, &kernel.reg_file));
        }
        // Shared memory starts as recognizable garbage: reads before
        // writes are deterministically wrong, never luckily zero.
        // (clear + resize is a memset over reused capacity.)
        self.shared.clear();
        self.shared.resize(kernel.shared_bytes as usize, 0xDB);
    }
}

/// Launch-shape and argument checks shared by the source and compiled
/// launch paths.
fn validate_geometry(
    spec: &GpuSpec,
    params: &[Param],
    shared_bytes: u32,
    cfg: LaunchConfig,
    args: &[KernelArg],
) -> Result<(), ExecError> {
    if cfg.grid == 0 || cfg.block == 0 {
        return Err(ExecError::BadLaunch("zero-sized launch".into()));
    }
    if cfg.block > spec.max_threads_per_block {
        return Err(ExecError::BadLaunch(format!(
            "{} threads/block exceeds the spec's {}",
            cfg.block, spec.max_threads_per_block
        )));
    }
    if shared_bytes > spec.shared_mem_per_block {
        return Err(ExecError::BadLaunch(format!(
            "kernel declares {} shared bytes, spec allows {}",
            shared_bytes, spec.shared_mem_per_block
        )));
    }
    if args.len() != params.len() {
        return Err(ExecError::BadLaunch(format!(
            "kernel takes {} params, launch passed {}",
            params.len(),
            args.len()
        )));
    }
    for (i, (a, p)) in args.iter().zip(params).enumerate() {
        if !a.matches(p.ty) {
            return Err(ExecError::BadLaunch(format!(
                "argument {i} does not match parameter type {}",
                p.ty
            )));
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpState {
    Running,
    AtBarrier,
    Done,
}

#[derive(Debug, Clone)]
struct Frame {
    /// Block at which the two paths rejoin (`EXIT` = thread exit).
    reconv: u32,
    else_target: u32,
    else_mask: u64,
    merged: u64,
    else_done: bool,
}

#[derive(Debug)]
struct Warp {
    idx: u32,
    active: u64,
    exited: u64,
    block: u32,
    /// Instruction index within the current block (fits `u32`: the
    /// whole flattened stream is indexed by `u32` block bounds).
    ip: u32,
    stack: Vec<Frame>,
    /// Register file, reg-major: `regs[reg * lanes + lane]`. Untyped
    /// words: each register's type is the one the kernel declares
    /// ([`Slot::Reg`] carries it), and [`Value::to_bits`] /
    /// [`Value::from_bits`] convert at that type.
    regs: Vec<u64>,
    cycles: u64,
    state: WarpState,
}

/// Mask of the `live` low lanes of a warp.
fn live_mask(live: u32) -> u64 {
    if live == 64 {
        u64::MAX
    } else {
        (1u64 << live) - 1
    }
}

impl Warp {
    /// A freshly allocated warp at the kernel entry.
    fn fresh(idx: u32, n_threads: u32, lanes: u32, reg_file: &[u64]) -> Warp {
        let live = (n_threads - idx * lanes).min(lanes);
        Warp {
            idx,
            active: live_mask(live),
            exited: 0,
            block: 0,
            ip: 0,
            stack: Vec::new(),
            // The sentinel-word image was prebuilt at compile time;
            // per-warp initialization is one memcpy.
            regs: reg_file.to_vec(),
            cycles: 0,
            state: WarpState::Running,
        }
    }

    /// Reinitializes this warp in place, reusing the register-file and
    /// divergence-stack allocations. Equivalent to `*self = fresh(...)`
    /// without the two heap allocations.
    fn reset(&mut self, idx: u32, n_threads: u32, lanes: u32, reg_file: &[u64]) {
        let live = (n_threads - idx * lanes).min(lanes);
        self.idx = idx;
        self.active = live_mask(live);
        self.exited = 0;
        self.block = 0;
        self.ip = 0;
        self.stack.clear();
        if self.regs.len() == reg_file.len() {
            // Same kernel (the by-far common case: every block of every
            // relaunch of one variant): a straight memcpy.
            self.regs.copy_from_slice(reg_file);
        } else {
            self.regs.clear();
            self.regs.extend_from_slice(reg_file);
        }
        self.cycles = 0;
        self.state = WarpState::Running;
    }
}

/// Device-wide memory-system state that persists across blocks and
/// launches: L2 tags and the open DRAM row.
#[derive(Debug)]
struct L2State {
    /// Direct-mapped cache tags, one entry per line slot.
    cache: Vec<u64>,
    /// Open DRAM row.
    open_row: u64,
}

impl L2State {
    fn new(spec: &GpuSpec) -> L2State {
        L2State {
            cache: vec![u64::MAX; usize::try_from(spec.cache_lines).expect("cache size")],
            open_row: u64::MAX,
        }
    }
}

/// Fills `order` with the deterministic warp issue permutation for one
/// block under a nonzero scheduler seed (paper §II-C2). Seed 0 — the
/// deterministic fitness baseline — never calls this: warps issue in
/// natural ascending order with no permutation buffer at all.
fn fill_warp_order(order: &mut Vec<u32>, n: usize, sched_seed: u64, block_idx: u32) {
    order.clear();
    #[allow(clippy::cast_possible_truncation)]
    order.extend(0..n as u32);
    let mut state =
        sched_seed.wrapping_add(u64::from(block_idx).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Fisher-Yates with a SplitMix-style generator.
    for i in (1..n).rev() {
        state = rng::mix64(state, i as u64);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// Lane-independent launch context for per-lane operand reads: copies
/// of everything a [`Slot`] can name besides the warp's own register
/// file, so the operand path is free functions over `(regs, ctx)` with
/// no executor indirection.
#[derive(Clone, Copy)]
struct LaneCtx<'a> {
    params: &'a [Value],
    block_idx: u32,
    grid: u32,
    block: u32,
    lanes: u32,
}

#[inline]
fn special(ctx: &LaneCtx, warp_idx: u32, lane: u32, s: gevo_ir::Special) -> i32 {
    use gevo_ir::Special;
    #[allow(clippy::cast_possible_wrap)]
    match s {
        Special::ThreadId => (warp_idx * ctx.lanes + lane) as i32,
        Special::BlockId => ctx.block_idx as i32,
        Special::BlockDim => ctx.block as i32,
        Special::GridDim => ctx.grid as i32,
        Special::LaneId => lane as i32,
        Special::WarpId => warp_idx as i32,
        Special::WarpSize => ctx.lanes as i32,
    }
}

/// Reads one pre-resolved operand for one lane against a warp's
/// register file, as a typed value.
#[inline]
fn read_operand(regs: &[u64], ctx: &LaneCtx, warp_idx: u32, lane: u32, op: &Slot) -> Value {
    match *op {
        Slot::Reg(base, ty) => Value::from_bits(ty, regs[base as usize + lane as usize]),
        Slot::ImmI32(v) => Value::I32(v),
        Slot::ImmI64(v) => Value::I64(v),
        Slot::ImmF32(v) => Value::F32(v),
        Slot::ImmBool(v) => Value::Bool(v),
        Slot::Special(s) => Value::I32(special(ctx, warp_idx, lane, s)),
        Slot::Param(p) => ctx.params[p as usize],
    }
}

/// The address an `i64` register word holds.
#[inline]
fn word_i64(w: u64) -> i64 {
    match Value::from_bits(Ty::I64, w) {
        Value::I64(v) => v,
        _ => unreachable!("from_bits(I64) is an I64"),
    }
}

/// The `i32` an `i32` register word holds.
#[inline]
fn word_i32(w: u64) -> i32 {
    match Value::from_bits(Ty::I32, w) {
        Value::I32(v) => v,
        _ => unreachable!("from_bits(I32) is an I32"),
    }
}

/// The `b1` a `b1` register word holds.
#[inline]
fn word_bool(w: u64) -> bool {
    Value::from_bits(Ty::Bool, w) == Value::Bool(true)
}

/// The pure scalar evaluator: one op over already-resolved operand
/// values, for O2 compile-time constant folding
/// (`compile::fold_value`). Each arm defers to the same per-op value
/// function the entries of [`TYPED_OPS`] call, so every op's semantics
/// is written once: folding is result-preserving by construction.
pub(crate) fn eval_pure(op: Op, a0: impl Fn(usize) -> Value) -> Value {
    match op {
        Op::IBin(op) => eval_ibin(op, a0(0), a0(1)),
        Op::FBin(op) => eval_fbin(op, a0(0), a0(1)),
        Op::Icmp(pred) => eval_icmp(pred, a0(0), a0(1)),
        Op::Fcmp(pred) => eval_fcmp(pred, a0(0), a0(1)),
        Op::Select => eval_select(a0(0), a0(1), a0(2)),
        Op::Mov => eval_mov(a0(0)),
        Op::Not => eval_not(a0(0)),
        Op::Neg => eval_neg(a0(0)),
        Op::FNeg => eval_fneg(a0(0)),
        Op::Sext => eval_sext(a0(0)),
        Op::Trunc => eval_trunc(a0(0)),
        Op::SiToFp => eval_sitofp(a0(0)),
        Op::FpToSi => eval_fptosi(a0(0)),
        Op::ZextBool => eval_zext_bool(a0(0)),
        Op::RngNext => eval_rng_next(a0(0), a0(1)),
        _ => unreachable!("non-scalar op routed to the scalar evaluator: {op:?}"),
    }
}

/// Writes word `w` to every active lane of the register at base `dst`.
/// A mask that is a contiguous low prefix (a full warp, or the partial
/// last warp of a block) is one slice fill; any other mask walks its
/// set bits. Both write the same word to the same lanes.
#[inline]
fn broadcast(regs: &mut [u64], dst: u32, active: u64, w: u64) {
    let dst = dst as usize;
    if active & active.wrapping_add(1) == 0 {
        let n = active.trailing_ones() as usize;
        regs[dst..dst + n].fill(w);
        return;
    }
    let mut mask = active;
    while mask != 0 {
        let lane = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        regs[dst + lane] = w;
    }
}

/// One scalar op at fixed operand types, on untyped register words:
/// [`TYPED_OPS`] holds one per well-typed (op, sub-op, operand types).
/// The compiler picks the entry of every scalar instruction from the
/// verified kernel's types ([`typed_op_index`]) and stores its index
/// beside the instruction, so neither path decodes the op at run time.
struct TypedOp {
    /// The op, sub-op included.
    op: Op,
    /// The operand types, one per operand.
    tys: &'static [Ty],
    /// The op on one lane's operand words (the first `tys.len()` are
    /// read): its value function over [`Value::from_bits`] at the
    /// constant types, returned as a word. The warp-uniform path calls
    /// it once per warp instruction. The words are three arguments, not
    /// one `[u64; 3]`: an array that large is passed through memory,
    /// and the caller's copy of it stalls on the stores that just wrote
    /// it.
    word: fn(u64, u64, u64) -> u64,
    /// The op over a warp's `active` lanes: [`lane_loop`] with the same
    /// value function, its operands resolved once per warp instruction
    /// ([`LaneArg::resolve`]).
    lanes: LanesFn,
}

/// A [`TypedOp`]'s lane loop: `(inst, regs, ctx, warp index, active)`.
type LanesFn = fn(&CInst, &mut [u64], &LaneCtx, u32, u64);

/// One [`TypedOp`]: `$f` is the op's value function applied to the
/// operands `$x`, each the [`Value`] its word holds at type `$t`, so
/// the compiler folds the value function's type match away.
macro_rules! typed_op {
    ($op:expr, [$($x:ident: $t:ident),+] => $f:expr) => {
        TypedOp {
            op: $op,
            tys: &[$(Ty::$t),+],
            word: |a, b, c| {
                let [$($x,)+ ..] = [a, b, c];
                $(let $x = Value::from_bits(Ty::$t, $x);)+
                $f.to_bits()
            },
            lanes: |inst, regs, ctx, widx, active| {
                let [$($x,)+ ..] = &inst.args;
                let args = [$(LaneArg::resolve($x, ctx, widx)),+];
                lane_loop(regs, inst.dst, active, args, |[$($x),+]| {
                    $(let $x = Value::from_bits(Ty::$t, $x);)+
                    $f.to_bits()
                });
            },
        }
    };
}

/// The [`TYPED_OPS`] table: one entry per sub-op of each binary op at
/// one operand type, then one entry per listed (op, operand types).
macro_rules! typed_ops {
    (
        sub_ops: $({ $wrap:ident($sty:ident) $eval:ident $t:ident [$($v:ident),+] })+
        ops: $({ $op:expr, [$($x:ident: $xt:ident),+] => $f:expr })+
    ) => {
        [
            $($(typed_op!(Op::$wrap($sty::$v), [x: $t, y: $t] => $eval($sty::$v, x, y)),)+)+
            $(typed_op!($op, [$($x: $xt),+] => $f),)+
        ]
    };
}

/// Every well-typed scalar op: 29 integer binary (13 sub-ops at `i32`
/// and `i64`, 3 logical at `b1`), 6 float binary, 12 integer and 6
/// float compares, select and mov at 4 types, not at 3, neg at 2, and
/// 7 conversions. Each op's semantics stays written once, in its
/// `eval_*` value function, which [`eval_pure`] calls too.
static TYPED_OPS: [TypedOp; 73] = typed_ops! {
    sub_ops:
    { IBin(IntBinOp) eval_ibin I32 [Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, AShr, LShr] }
    { IBin(IntBinOp) eval_ibin I64 [Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, AShr, LShr] }
    { IBin(IntBinOp) eval_ibin Bool [And, Or, Xor] }
    { FBin(FloatBinOp) eval_fbin F32 [Add, Sub, Mul, Div, Min, Max] }
    { Icmp(CmpPred) eval_icmp I32 [Eq, Ne, Lt, Le, Gt, Ge] }
    { Icmp(CmpPred) eval_icmp I64 [Eq, Ne, Lt, Le, Gt, Ge] }
    { Fcmp(CmpPred) eval_fcmp F32 [Eq, Ne, Lt, Le, Gt, Ge] }
    ops:
    { Op::Select, [c: Bool, t: I32, f: I32] => eval_select(c, t, f) }
    { Op::Select, [c: Bool, t: I64, f: I64] => eval_select(c, t, f) }
    { Op::Select, [c: Bool, t: F32, f: F32] => eval_select(c, t, f) }
    { Op::Select, [c: Bool, t: Bool, f: Bool] => eval_select(c, t, f) }
    { Op::Mov, [x: I32] => eval_mov(x) }
    { Op::Mov, [x: I64] => eval_mov(x) }
    { Op::Mov, [x: F32] => eval_mov(x) }
    { Op::Mov, [x: Bool] => eval_mov(x) }
    { Op::Not, [x: I32] => eval_not(x) }
    { Op::Not, [x: I64] => eval_not(x) }
    { Op::Not, [x: Bool] => eval_not(x) }
    { Op::Neg, [x: I32] => eval_neg(x) }
    { Op::Neg, [x: I64] => eval_neg(x) }
    { Op::FNeg, [x: F32] => eval_fneg(x) }
    { Op::Sext, [x: I32] => eval_sext(x) }
    { Op::Trunc, [x: I64] => eval_trunc(x) }
    { Op::SiToFp, [x: I32] => eval_sitofp(x) }
    { Op::FpToSi, [x: F32] => eval_fptosi(x) }
    { Op::ZextBool, [x: Bool] => eval_zext_bool(x) }
    { Op::RngNext, [s: I64, c: I64] => eval_rng_next(s, c) }
};

/// The index of the [`TYPED_OPS`] entry for `op` over operands of types
/// `tys` (one per operand); `None` when no value function accepts them
/// (an ill-typed instruction, which the verifier keeps out of compiled
/// kernels).
pub(crate) fn typed_op_index(op: Op, tys: &[Ty]) -> Option<u8> {
    TYPED_OPS
        .iter()
        .position(|t| t.op == op && t.tys == tys)
        .map(|i| u8::try_from(i).expect("the table fits u8"))
}

/// The [`TYPED_OPS`] index of every non-scalar instruction.
pub(crate) const UNTYPED: u8 = u8::MAX;

/// One scalar warp instruction over the `active` lanes of a register
/// file: the lane loop of its [`TYPED_OPS`] entry `typed`, which the
/// compiler picked.
#[inline]
fn scalar_lanes(inst: &CInst, typed: u8, regs: &mut [u64], ctx: &LaneCtx, widx: u32, active: u64) {
    (TYPED_OPS[usize::from(typed)].lanes)(inst, regs, ctx, widx, active);
}

/// A warp-uniform scalar op on the first `active` lane: the word
/// function of its [`TYPED_OPS`] entry over that lane's operand words.
/// Register operands read `regs[base + lane]`; every other slot reads
/// through its [`LaneArg`].
#[inline]
fn uniform_word(inst: &CInst, typed: u8, regs: &[u64], ctx: &LaneCtx, widx: u32, lane: u32) -> u64 {
    let op = &TYPED_OPS[usize::from(typed)];
    let word = |i: usize| match inst.args[i] {
        _ if i >= op.tys.len() => 0,
        Slot::Reg(base, _) => regs[base as usize + lane as usize],
        ref slot => LaneArg::resolve(slot, ctx, widx).read(regs, lane),
    };
    (op.word)(word(0), word(1), word(2))
}

/// An operand resolved once per warp instruction: what is left of a
/// [`Slot`] once the warp and the launch are fixed.
#[derive(Clone, Copy)]
enum LaneArg {
    /// Register-file base: lane `l` reads `regs[base + l]`.
    Reg(u32),
    /// One word for every lane: an immediate, a parameter, or a
    /// lane-invariant special (`BlockId`, `BlockDim`, `GridDim`,
    /// `WarpId`, `WarpSize`).
    Same(u64),
    /// `ThreadId` (`first` = warp index × lanes) or `LaneId`
    /// (`first` = 0): lane `l` reads the `i32` `first + l`.
    LaneIndex(u32),
}

impl LaneArg {
    #[inline]
    fn resolve(slot: &Slot, ctx: &LaneCtx, widx: u32) -> LaneArg {
        use gevo_ir::Special;
        match *slot {
            Slot::Reg(base, _) => LaneArg::Reg(base),
            Slot::Special(Special::ThreadId) => LaneArg::LaneIndex(widx * ctx.lanes),
            Slot::Special(Special::LaneId) => LaneArg::LaneIndex(0),
            // Every other slot reads the same value in every lane.
            _ => LaneArg::Same(read_operand(&[], ctx, widx, 0, slot).to_bits()),
        }
    }

    /// This operand's word in `lane`: the bits of the value
    /// [`read_operand`] returns for the slot it was resolved from.
    #[inline]
    fn read(self, regs: &[u64], lane: u32) -> u64 {
        match self {
            LaneArg::Reg(base) => regs[base as usize + lane as usize],
            LaneArg::Same(w) => w,
            #[allow(clippy::cast_possible_wrap)]
            LaneArg::LaneIndex(first) => Value::I32((first + lane) as i32).to_bits(),
        }
    }

    /// The register-file base, for a register operand.
    #[inline]
    fn base(self) -> Option<usize> {
        match self {
            LaneArg::Reg(base) => Some(base as usize),
            _ => None,
        }
    }

    /// The one word every lane reads, for a lane-invariant operand.
    #[inline]
    fn same(self) -> Option<u64> {
        match self {
            LaneArg::Same(w) => Some(w),
            _ => None,
        }
    }
}

/// The one lane loop of the scalar path: applies `f` to the `N`
/// operand words of each active lane, in ascending lane order, and
/// writes the result word to `dst`. A mask that is a contiguous low
/// prefix (a full warp, or a block's partial last warp — the test
/// [`broadcast`] uses) runs as a counted loop when [`prefix_loop`]
/// hoists the operands' shape; every other case walks the mask's set
/// bits. Each [`TypedOp`]'s `lanes` function is one instance, out of
/// line behind its function pointer, so each `(N, f)` instance stays a
/// small loop.
#[inline]
fn lane_loop<const N: usize>(
    regs: &mut [u64],
    dst: u32,
    active: u64,
    args: [LaneArg; N],
    f: impl Fn([u64; N]) -> u64,
) {
    if active & active.wrapping_add(1) == 0 {
        let n = active.trailing_ones() as usize;
        if prefix_loop(regs, dst as usize, n, args, &f) {
            return;
        }
    }
    let mut mask = active;
    while mask != 0 {
        let lane = mask.trailing_zeros();
        mask &= mask - 1;
        regs[dst as usize + lane as usize] = f(args.map(|a| a.read(regs, lane)));
    }
}

/// [`lane_loop`] over lanes `0..lanes` for the operand shapes it
/// hoists: every operand a register, or two operands of which one is a
/// register and the other lane-invariant (`false`, with nothing
/// written, for any other shape). The register file is viewed as
/// cells, so each register operand is one slice of exactly `lanes`
/// words and each lane's result is written straight to `dst`, even when
/// `dst` is also an operand: lanes ascend and no lane reads another
/// lane's word, so lane `l` reads its operands before it writes.
#[inline]
fn prefix_loop<const N: usize>(
    regs: &mut [u64],
    dst: usize,
    lanes: usize,
    args: [LaneArg; N],
    eval: &impl Fn([u64; N]) -> u64,
) -> bool {
    let regs = Cell::from_mut(regs).as_slice_of_cells();
    let out = &regs[dst..dst + lanes];
    let words = |base: usize| &regs[base..base + lanes];
    if args.iter().all(|a| a.base().is_some()) {
        let srcs = args.map(|a| words(a.base().unwrap_or(0)));
        fill(out, |lane| srcs.map(|src| src[lane].get()), eval);
    } else if N == 2 {
        let (first, last) = (args[0], args[N - 1]);
        match (first.base(), last.same(), first.same(), last.base()) {
            (Some(base), Some(same), ..) => {
                let src = words(base);
                fill(
                    out,
                    |lane| std::array::from_fn(|i| if i == 0 { src[lane].get() } else { same }),
                    eval,
                );
            }
            (.., Some(same), Some(base)) => {
                let src = words(base);
                fill(
                    out,
                    |lane| std::array::from_fn(|i| if i == 0 { same } else { src[lane].get() }),
                    eval,
                );
            }
            _ => return false,
        }
    } else {
        return false;
    }
    true
}

/// `out[lane] = eval(read(lane))` for every lane in ascending order.
#[inline]
fn fill<const N: usize>(
    out: &[Cell<u64>],
    read: impl Fn(usize) -> [u64; N],
    eval: &impl Fn([u64; N]) -> u64,
) {
    for (lane, word) in out.iter().enumerate() {
        word.set(eval(read(lane)));
    }
}

/// The register word a `ty` load at `addr` in `space` reads.
#[inline]
fn load_word(
    mem: &DeviceMemory,
    shared: &[u8],
    space: AddrSpace,
    addr: i64,
    ty: MemTy,
) -> Result<u64, ExecError> {
    match space {
        AddrSpace::Global => mem.load_word(addr, ty),
        AddrSpace::Shared => load_shared_word(shared, addr, ty),
    }
}

/// Stores register word `word` as a `ty` at `addr` in `space`.
#[inline]
fn store_word(
    mem: &mut DeviceMemory,
    shared: &mut [u8],
    space: AddrSpace,
    addr: i64,
    ty: MemTy,
    word: u64,
) -> Result<(), ExecError> {
    match space {
        AddrSpace::Global => mem.store_word(addr, ty, word),
        AddrSpace::Shared => store_shared_word(shared, addr, ty, word),
    }
}

/// Execution context for a single thread block. The mutable collections
/// (`shared`, `warps`, `order`) are borrowed from the launch's
/// [`ExecScratch`] as plain slices — already reinitialized for this
/// block, and a single indirection in the interpreter loop.
struct BlockExec<'a> {
    spec: &'a GpuSpec,
    mem: &'a mut DeviceMemory,
    kernel: &'a CompiledKernel,
    params: &'a [Value],
    launch: LaunchConfig,
    block_idx: u32,
    stats: &'a mut LaunchStats,
    shared: &'a mut [u8],
    l2: &'a mut L2State,
    warps: &'a mut [Warp],
    /// Warp-order permutation (empty ⇔ natural ascending order).
    order: &'a [u32],
    steps: u64,
    /// Total issue slots consumed (throughput bound).
    issue: u64,
    lanes: u32,
}

impl<'a> BlockExec<'a> {
    fn run(&mut self) -> Result<u64, ExecError> {
        let n = self.warps.len();
        let permuted = !self.order.is_empty();
        loop {
            for i in 0..n {
                let wi = if permuted { self.order[i] as usize } else { i };
                if self.warps[wi].state == WarpState::Running {
                    self.run_warp(wi)?;
                }
            }
            // Tally live/blocked warps without materializing the set.
            let mut n_live = 0usize;
            let mut n_blocked = 0usize;
            let mut arrive = 0u64;
            for w in self.warps.iter() {
                if w.state != WarpState::Done {
                    n_live += 1;
                    if w.state == WarpState::AtBarrier {
                        n_blocked += 1;
                        arrive = arrive.max(w.cycles);
                    }
                }
            }
            if n_live == 0 {
                break;
            }
            if n_blocked == n_live {
                // Barrier release: synchronize clocks.
                let cost =
                    self.spec.costs.barrier + self.spec.costs.barrier_per_warp * n_live as u64;
                for w in self.warps.iter_mut() {
                    if w.state == WarpState::AtBarrier {
                        w.cycles = arrive + cost;
                        w.state = WarpState::Running;
                    }
                }
                self.stats.barriers += 1;
                self.issue += n_live as u64;
                continue;
            }
            // Some warps are at a barrier, none are runnable, not all done.
            return Err(ExecError::Deadlock);
        }
        let latency = self.warps.iter().map(|w| w.cycles).max().unwrap_or(0);
        let throughput = self.issue.div_ceil(self.spec.costs.issue_width.max(1));
        Ok(latency.max(throughput))
    }

    /// Runs one warp until it blocks at a barrier, finishes, or faults.
    ///
    /// Each block visit fetches the rest of the block's body as one
    /// slice and walks it; the terminator runs after the slice. Every
    /// instruction and every terminator is one step, counted and
    /// checked against the limit before it runs. `ip` is written only
    /// when a barrier suspends the warp mid-block (entering a block
    /// resets it to 0), so it is the resume point and nothing else.
    ///
    /// Scalar ops run from here, with the typed op the compiler picked
    /// for each. A warp-uniform one runs inline: its word function
    /// ([`uniform_word`]) on the first active lane, broadcast to the
    /// active lanes; with no active lane it evaluates nothing and is
    /// still charged. A per-lane one calls its lane loop
    /// ([`scalar_lanes`]) on the warp's register file. Every other
    /// instruction goes through [`Self::exec_inst`]. The step count and
    /// the scalar ops' ALU and issue counts live in locals, flushed on
    /// every exit; the active mask and the lane context do not change
    /// within a block visit.
    fn run_warp(&mut self, wi: usize) -> Result<(), ExecError> {
        let (kernel, limit) = (self.kernel, self.spec.step_limit);
        let ctx = self.lane_ctx();
        let mut steps = self.steps;
        let (mut alu, mut issue) = (0u64, 0u64);
        let result = 'warp: loop {
            let (block, ip, active, widx) = {
                let w = &self.warps[wi];
                (w.block as usize, w.ip as usize, w.active, w.idx)
            };
            let start = kernel.block_bounds[block] as usize + ip;
            let end = kernel.block_bounds[block + 1] as usize;
            let body = kernel.code[start..end]
                .iter()
                .zip(&kernel.typed[start..end]);
            for (k, (inst, &typed)) in body.enumerate() {
                steps += 1;
                if steps > limit {
                    break 'warp Err(ExecError::StepLimit);
                }
                if inst.tag == OpClass::UniformScalar {
                    let w = &mut self.warps[wi];
                    if active != 0 {
                        let lane = active.trailing_zeros();
                        let word = uniform_word(inst, typed, &w.regs, &ctx, widx, lane);
                        broadcast(&mut w.regs, inst.dst, active, word);
                    }
                    w.cycles += inst.cost;
                    alu += 1;
                    issue += 1;
                    continue;
                }
                if inst.tag == OpClass::Scalar {
                    let w = &mut self.warps[wi];
                    scalar_lanes(inst, typed, &mut w.regs, &ctx, widx, active);
                    w.cycles += inst.cost;
                    alu += 1;
                    issue += 1;
                    continue;
                }
                match self.exec_inst(wi, inst) {
                    Ok(false) => {}
                    Ok(true) => {
                        self.warps[wi].ip = (ip + k + 1) as u32;
                        break 'warp Ok(());
                    }
                    Err(e) => break 'warp Err(e),
                }
            }
            steps += 1;
            if steps > limit {
                break 'warp Err(ExecError::StepLimit);
            }
            self.exec_terminator(wi, kernel.terms[block]);
            if self.warps[wi].state != WarpState::Running {
                break 'warp Ok(());
            }
        };
        self.steps = steps;
        self.stats.alu_instructions += alu;
        self.issue += issue;
        result
    }

    // ---- control flow -------------------------------------------------

    fn exec_terminator(&mut self, wi: usize, term: CTerm) {
        self.issue += 1;
        self.warps[wi].cycles += self.spec.costs.alu;
        match term {
            CTerm::Br(t) => self.enter_block(wi, t),
            CTerm::Ret => {
                let w = &mut self.warps[wi];
                w.exited |= w.active;
                w.active = 0;
                if w.stack.is_empty() {
                    w.state = WarpState::Done;
                } else {
                    let t = w.stack.last().expect("nonempty").reconv;
                    self.enter_block(wi, t);
                }
            }
            CTerm::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                let cur_block = self.warps[wi].block as usize;
                let active = self.warps[wi].active;
                // Warp-uniform fast path: the compiler flagged this
                // block's condition as identical across lanes — either
                // statically (immediate, parameter, or lane-independent
                // special — e.g. a `CondReplace(ImmBool)` edit) or, at
                // O2, a register the uniformity analysis proved holds
                // one value in every active lane — so one read decides
                // the whole mask and divergence is impossible. The
                // first *active* lane is the probe: a uniform register
                // is only guaranteed equal across lanes that were
                // active at its definition, which the active set here
                // is a subset of (for statically uniform slots any lane
                // works, so this is also valid at O0).
                let ctx = self.lane_ctx();
                if active != 0 && self.kernel.uniform_cond[cur_block] {
                    let w = &self.warps[wi];
                    let c = LaneArg::resolve(&cond, &ctx, w.idx);
                    let b = word_bool(c.read(&w.regs, active.trailing_zeros()));
                    self.enter_block(wi, if b { if_true } else { if_false });
                    return;
                }
                let mut tmask = 0u64;
                let mut fmask = 0u64;
                {
                    let w = &self.warps[wi];
                    let c = LaneArg::resolve(&cond, &ctx, w.idx);
                    let mut mask = active;
                    while mask != 0 {
                        let lane = mask.trailing_zeros();
                        mask &= mask - 1;
                        if word_bool(c.read(&w.regs, lane)) {
                            tmask |= 1 << lane;
                        } else {
                            fmask |= 1 << lane;
                        }
                    }
                }
                if fmask == 0 {
                    self.enter_block(wi, if_true);
                } else if tmask == 0 {
                    self.enter_block(wi, if_false);
                } else {
                    // Divergence: serialize then-path first, else-path at
                    // reconvergence (paper §VI-A's lock-step serialization).
                    self.stats.divergent_branches += 1;
                    self.warps[wi].cycles += self.spec.costs.divergence;
                    // The reconvergence point (immediate post-dominator)
                    // was baked in at compile time.
                    let reconv = self.kernel.reconv[cur_block];
                    let w = &mut self.warps[wi];
                    w.stack.push(Frame {
                        reconv,
                        else_target: if_false,
                        else_mask: fmask,
                        merged: tmask | fmask,
                        else_done: false,
                    });
                    w.active = tmask;
                    self.enter_block(wi, if_true);
                }
            }
        }
    }

    /// Transfers a warp to block `t`, unwinding/flipping divergence frames
    /// whose reconvergence point is reached.
    fn enter_block(&mut self, wi: usize, target: u32) {
        let w = &mut self.warps[wi];
        let mut t = target;
        loop {
            // Resolve frames whose reconvergence is `t`.
            while let Some(top) = w.stack.last_mut() {
                if t == top.reconv {
                    if top.else_done {
                        w.active = top.merged & !w.exited;
                        w.stack.pop();
                    } else {
                        top.else_done = true;
                        w.active = top.else_mask & !w.exited;
                        t = top.else_target;
                    }
                } else {
                    break;
                }
            }
            if t == EXIT {
                // Lanes arriving here have finished the kernel.
                w.exited |= w.active;
                w.active = 0;
            }
            if w.active != 0 {
                w.block = t;
                w.ip = 0;
                return;
            }
            // This path has no live lanes: skip to the innermost pending
            // reconvergence, or finish the warp.
            if let Some(top) = w.stack.last() {
                t = top.reconv;
            } else {
                w.state = WarpState::Done;
                return;
            }
        }
    }

    // ---- operand & register access -------------------------------------

    /// Snapshot of the lane-independent launch context that operand
    /// reads can name. `params` carries the struct's `'a` lifetime (not
    /// the `&self` borrow), so the returned context coexists with any
    /// later borrow of a warp — the hot loops fetch their warp **once**
    /// and read operands against its register file directly, instead of
    /// re-indexing `self.warps[wi]` for every operand of every lane.
    fn lane_ctx(&self) -> LaneCtx<'a> {
        LaneCtx {
            params: self.params,
            block_idx: self.block_idx,
            grid: self.launch.grid,
            block: self.launch.block,
            lanes: self.lanes,
        }
    }

    /// Debug builds check that the register at file base `dst` is
    /// declared `ty`, once per warp instruction: the verifier makes this
    /// hold for every op that writes a word it did not compute with a
    /// typed op, and untagged register words rest on it.
    fn debug_check_dst(&self, dst: u32, ty: Ty) {
        let declared = self.kernel.reg_tys[(dst / self.lanes) as usize];
        debug_assert_eq!(declared, ty, "{ty} written to r{}", dst / self.lanes);
    }

    // ---- instruction execution -------------------------------------------

    /// Executes one instruction that is not a scalar op for all active
    /// lanes. Returns `true` if it was a barrier (the warp must yield).
    /// Out of line, so the block loop in [`Self::run_warp`] that runs
    /// the scalar ops stays small: inlined, it spills.
    #[inline(never)]
    fn exec_inst(&mut self, wi: usize, inst: &CInst) -> Result<bool, ExecError> {
        let active = self.warps[wi].active;
        // Dispatch on the compile-time class tag (a dense one-byte
        // jump); the `Op` payload is decoded only inside the arm that
        // needs it.
        match inst.tag {
            OpClass::Sync => {
                if !self.warps[wi].stack.is_empty() {
                    return Err(ExecError::BarrierDivergence);
                }
                self.warps[wi].state = WarpState::AtBarrier;
                return Ok(true);
            }
            OpClass::Load => {
                let Op::Load { space, ty } = inst.op else {
                    unreachable!("Load tag on non-load op")
                };
                self.exec_mem_load(wi, inst, space, ty, active)?;
            }
            OpClass::Store => {
                let Op::Store { space, ty } = inst.op else {
                    unreachable!("Store tag on non-store op")
                };
                self.exec_mem_store(wi, inst, space, ty, active)?;
            }
            OpClass::Atomic => {
                let (space, kind) = match inst.op {
                    Op::AtomicAdd { space } => (space, AtomicKind::Add),
                    Op::AtomicMax { space } => (space, AtomicKind::Max),
                    Op::AtomicCas { space } => (space, AtomicKind::Cas),
                    _ => unreachable!("Atomic tag on non-atomic op"),
                };
                self.exec_atomic(wi, inst, space, active, kind)?;
            }
            OpClass::Shfl => self.exec_shfl(wi, inst, active),
            OpClass::Ballot => {
                self.debug_check_dst(inst.dst, Ty::I32);
                let ctx = self.lane_ctx();
                let dst = inst.dst;
                let w = &mut self.warps[wi];
                let pred = LaneArg::resolve(&inst.args[0], &ctx, w.idx);
                let mut votes = 0i32;
                let mut mask = active;
                while mask != 0 {
                    let lane = mask.trailing_zeros();
                    mask &= mask - 1;
                    if word_bool(pred.read(&w.regs, lane)) {
                        votes |= 1 << lane;
                    }
                }
                broadcast(&mut w.regs, dst, active, Value::I32(votes).to_bits());
                w.cycles += self.spec.costs.ballot;
                self.stats.ballots += 1;
                self.issue += 1;
            }
            OpClass::ActiveMask => {
                self.debug_check_dst(inst.dst, Ty::I32);
                #[allow(clippy::cast_possible_wrap)]
                let word = Value::I32(active as i32).to_bits();
                let w = &mut self.warps[wi];
                broadcast(&mut w.regs, inst.dst, active, word);
                w.cycles += self.spec.costs.activemask;
                self.issue += 1;
            }
            OpClass::Scalar | OpClass::UniformScalar => {
                unreachable!("run_warp runs the scalar ops")
            }
            OpClass::Folded => self.exec_folded(wi, inst, active),
            OpClass::UniformLoad => {
                let Op::Load { space, ty } = inst.op else {
                    unreachable!("UniformLoad tag on non-load op")
                };
                self.exec_uniform_load(wi, inst, space, ty, active)?;
            }
            OpClass::UniformStore => {
                let Op::Store { space, ty } = inst.op else {
                    unreachable!("UniformStore tag on non-store op")
                };
                self.exec_uniform_store(wi, inst, space, ty, active)?;
            }
        }
        Ok(false)
    }

    /// Constant-folded op: the result was computed at compile time and
    /// sits in `args[0]` as an immediate — broadcast it to the active
    /// lanes. Charges are those of the original op; folding is result-
    /// and stats-invisible.
    fn exec_folded(&mut self, wi: usize, inst: &CInst, active: u64) {
        let ctx = self.lane_ctx();
        let w = &self.warps[wi];
        let result = read_operand(&w.regs, &ctx, w.idx, 0, &inst.args[0]);
        self.debug_check_dst(inst.dst, result.ty());
        let w = &mut self.warps[wi];
        broadcast(&mut w.regs, inst.dst, active, result.to_bits());
        w.cycles += inst.cost;
        self.stats.alu_instructions += 1;
        self.issue += 1;
    }

    // ---- memory ---------------------------------------------------------

    fn exec_mem_load(
        &mut self,
        wi: usize,
        inst: &CInst,
        space: AddrSpace,
        ty: MemTy,
        active: u64,
    ) -> Result<(), ExecError> {
        self.debug_check_dst(inst.dst, ty.value_ty());
        let ctx = self.lane_ctx();
        let dst = inst.dst as usize;
        let mut addrs: [i64; MAX_WARP as usize] = [0; MAX_WARP as usize];
        {
            // Warp fetched once, the address operand resolved once;
            // active-lane iteration. The loaded word is the register
            // word of the loaded value.
            let w = &mut self.warps[wi];
            let addr = LaneArg::resolve(&inst.args[0], &ctx, w.idx);
            let mut mask = active;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                mask &= mask - 1;
                let a = word_i64(addr.read(&w.regs, lane));
                addrs[lane as usize] = a;
                w.regs[dst + lane as usize] = load_word(self.mem, self.shared, space, a, ty)?;
            }
        }
        self.charge_mem(wi, space, active, &addrs, false);
        Ok(())
    }

    fn exec_mem_store(
        &mut self,
        wi: usize,
        inst: &CInst,
        space: AddrSpace,
        ty: MemTy,
        active: u64,
    ) -> Result<(), ExecError> {
        let ctx = self.lane_ctx();
        let mut addrs: [i64; MAX_WARP as usize] = [0; MAX_WARP as usize];
        {
            // Warp fetched once (reads only; stores write no register),
            // operands resolved once; active-lane iteration.
            let w = &self.warps[wi];
            let addr = LaneArg::resolve(&inst.args[0], &ctx, w.idx);
            let val = LaneArg::resolve(&inst.args[1], &ctx, w.idx);
            let mut mask = active;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                mask &= mask - 1;
                let a = word_i64(addr.read(&w.regs, lane));
                addrs[lane as usize] = a;
                let word = val.read(&w.regs, lane);
                store_word(self.mem, self.shared, space, a, ty, word)?;
            }
        }
        self.charge_mem(wi, space, active, &addrs, true);
        Ok(())
    }

    /// Load whose address is warp-uniform (O2): one address read, one
    /// memory access, result broadcast to the active lanes. Stats are
    /// charged analytically for the single address — exactly what
    /// [`Self::charge_mem`] computes when every active lane presents
    /// the same address.
    fn exec_uniform_load(
        &mut self,
        wi: usize,
        inst: &CInst,
        space: AddrSpace,
        ty: MemTy,
        active: u64,
    ) -> Result<(), ExecError> {
        if active == 0 {
            // Slow path with no active lanes: no reads, no access
            // counters, one issue slot (`charge_mem`'s empty-mask exit).
            self.issue += 1;
            return Ok(());
        }
        self.debug_check_dst(inst.dst, ty.value_ty());
        let ctx = self.lane_ctx();
        let addr;
        {
            let w = &mut self.warps[wi];
            let lane = active.trailing_zeros();
            addr = word_i64(LaneArg::resolve(&inst.args[0], &ctx, w.idx).read(&w.regs, lane));
            let word = load_word(self.mem, self.shared, space, addr, ty)?;
            broadcast(&mut w.regs, inst.dst, active, word);
        }
        self.charge_mem_uniform(wi, space, active, addr, false);
        Ok(())
    }

    /// Store whose address *and* value are warp-uniform (O2): all
    /// active lanes write the same word to the same place, so one store
    /// suffices (the slow path's last writer wrote this exact value).
    fn exec_uniform_store(
        &mut self,
        wi: usize,
        inst: &CInst,
        space: AddrSpace,
        ty: MemTy,
        active: u64,
    ) -> Result<(), ExecError> {
        if active == 0 {
            self.issue += 1;
            return Ok(());
        }
        let ctx = self.lane_ctx();
        let addr;
        {
            let w = &self.warps[wi];
            let lane = active.trailing_zeros();
            addr = word_i64(LaneArg::resolve(&inst.args[0], &ctx, w.idx).read(&w.regs, lane));
            let word = LaneArg::resolve(&inst.args[1], &ctx, w.idx).read(&w.regs, lane);
            store_word(self.mem, self.shared, space, addr, ty, word)?;
        }
        self.charge_mem_uniform(wi, space, active, addr, true);
        Ok(())
    }

    /// Timing for one warp-level memory access. Loads stall the warp for
    /// the full latency; stores are fire-and-forget (write-buffered) and
    /// charge only issue cost — but still update cache and row-buffer
    /// state, which is what makes the paper's §VI-E dead-write effect
    /// reproducible.
    fn charge_mem(
        &mut self,
        wi: usize,
        space: AddrSpace,
        active: u64,
        addrs: &[i64; MAX_WARP as usize],
        is_store: bool,
    ) {
        let n_active = active.count_ones();
        if n_active == 0 {
            self.issue += 1;
            return;
        }
        match space {
            AddrSpace::Shared => {
                self.stats.shared_accesses += 1;
                // Scalarized fast path: a single-lane-0 store uses the
                // uniform datapath (DESIGN.md §3.2; stands in for the
                // paper's unexplained edit-5 scheduling effect).
                if is_store && n_active == 1 && active & 1 == 1 {
                    self.warps[wi].cycles += self.spec.costs.shared_scalar;
                    self.issue += 1;
                    return;
                }
                // Bank conflicts: ways = max distinct words mapping to one
                // bank; identical addresses broadcast. Distinct words are
                // deduplicated into a fixed lane-bounded array (equal
                // words always map to the same bank, so global dedup is
                // per-bank dedup) with each word's bank computed exactly
                // once; the per-bank multiplicity is then a quadratic
                // scan over cached banks — at most 32×32 one-byte
                // compares, no division, no allocation.
                let banks = self.spec.shared_banks as u64;
                let mut words: [i64; MAX_WARP as usize] = [0; MAX_WARP as usize];
                let mut word_banks: [u64; MAX_WARP as usize] = [0; MAX_WARP as usize];
                let mut n_words = 0usize;
                let mut mask = active;
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let word = addrs[lane] / 4;
                    if !words[..n_words].contains(&word) {
                        words[n_words] = word;
                        word_banks[n_words] = word.unsigned_abs() % banks;
                        n_words += 1;
                    }
                }
                let mut ways = 1u64;
                for i in 0..n_words {
                    let mut in_bank = 0u64;
                    for &b in &word_banks[..n_words] {
                        if b == word_banks[i] {
                            in_bank += 1;
                        }
                    }
                    ways = ways.max(in_bank);
                }
                self.stats.shared_conflicts += ways - 1;
                let base = if is_store {
                    self.spec.costs.shared_store
                } else {
                    self.spec.costs.shared
                };
                self.warps[wi].cycles += base + (ways - 1) * self.spec.costs.shared_conflict;
                self.issue += ways;
            }
            AddrSpace::Global => {
                self.stats.global_accesses += 1;
                // Coalescing: one transaction per distinct segment.
                // (Aligned accesses of <= 8 bytes never straddle a
                // segment, so the base address determines it.)
                let seg_size = self.spec.coalesce_bytes;
                // Distinct segments in first-touch lane order (the L2
                // tag and row-buffer updates below are order-sensitive),
                // deduplicated in a fixed lane-bounded array.
                let mut segments: [u64; MAX_WARP as usize] = [0; MAX_WARP as usize];
                let mut n_segs = 0usize;
                let mut mask = active;
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let seg = addrs[lane].unsigned_abs() / seg_size;
                    if !segments[..n_segs].contains(&seg) {
                        segments[n_segs] = seg;
                        n_segs += 1;
                    }
                }
                let mut worst = 0u64;
                for &seg in &segments[..n_segs] {
                    let line = seg; // segment == cache-line granularity
                    let slot = (line % self.spec.cache_lines) as usize;
                    let lat = if self.l2.cache[slot] == line {
                        self.stats.cache_hits += 1;
                        self.spec.costs.global_hit
                    } else {
                        self.l2.cache[slot] = line;
                        self.stats.cache_misses += 1;
                        let row = seg * seg_size / self.spec.dram_row_bytes;
                        if row == self.l2.open_row {
                            self.stats.row_hits += 1;
                            self.spec.costs.global_row_hit
                        } else {
                            self.l2.open_row = row;
                            self.stats.row_misses += 1;
                            self.spec.costs.global_row_miss
                        }
                    };
                    worst = worst.max(lat);
                }
                let nseg = n_segs as u64;
                self.stats.global_segments += nseg;
                let stall = if is_store {
                    self.spec.costs.global_store
                } else {
                    worst
                };
                self.warps[wi].cycles += stall + (nseg - 1) * self.spec.costs.global_segment;
                self.issue += nseg * 2;
            }
        }
    }

    /// [`Self::charge_mem`] specialized to a single distinct address —
    /// the warp-uniform case. Every arithmetic step below is
    /// `charge_mem` with one deduplicated word/segment: zero bank
    /// conflicts (`ways == 1`), one coalesced segment, one L2 tag and
    /// row-buffer probe. Must stay charge-for-charge identical so O2
    /// images produce bit-identical [`LaunchStats`].
    fn charge_mem_uniform(
        &mut self,
        wi: usize,
        space: AddrSpace,
        active: u64,
        addr: i64,
        is_store: bool,
    ) {
        debug_assert_ne!(active, 0, "callers handle the empty mask");
        match space {
            AddrSpace::Shared => {
                self.stats.shared_accesses += 1;
                // Scalarized single-lane-0 store fast path, as in
                // `charge_mem`.
                if is_store && active == 1 {
                    self.warps[wi].cycles += self.spec.costs.shared_scalar;
                    self.issue += 1;
                    return;
                }
                // One distinct word → one bank → `ways == 1`: no
                // conflicts recorded, base cost only.
                let base = if is_store {
                    self.spec.costs.shared_store
                } else {
                    self.spec.costs.shared
                };
                self.warps[wi].cycles += base;
                self.issue += 1;
            }
            AddrSpace::Global => {
                self.stats.global_accesses += 1;
                let seg = addr.unsigned_abs() / self.spec.coalesce_bytes;
                let slot = (seg % self.spec.cache_lines) as usize;
                let lat = if self.l2.cache[slot] == seg {
                    self.stats.cache_hits += 1;
                    self.spec.costs.global_hit
                } else {
                    self.l2.cache[slot] = seg;
                    self.stats.cache_misses += 1;
                    let row = seg * self.spec.coalesce_bytes / self.spec.dram_row_bytes;
                    if row == self.l2.open_row {
                        self.stats.row_hits += 1;
                        self.spec.costs.global_row_hit
                    } else {
                        self.l2.open_row = row;
                        self.stats.row_misses += 1;
                        self.spec.costs.global_row_miss
                    }
                };
                self.stats.global_segments += 1;
                let stall = if is_store {
                    self.spec.costs.global_store
                } else {
                    lat
                };
                self.warps[wi].cycles += stall;
                self.issue += 2;
            }
        }
    }

    // ---- atomics ----------------------------------------------------------

    fn exec_atomic(
        &mut self,
        wi: usize,
        inst: &CInst,
        space: AddrSpace,
        active: u64,
        kind: AtomicKind,
    ) -> Result<(), ExecError> {
        self.debug_check_dst(inst.dst, Ty::I32);
        let ctx = self.lane_ctx();
        let dst = inst.dst as usize;
        let n_active = active.count_ones() as u64;
        // Lanes execute the atomic in lane order — the deterministic
        // serialization a real device performs in unspecified order.
        {
            let w = &mut self.warps[wi];
            let [addr, operand, swap] = inst.args.map(|a| LaneArg::resolve(&a, &ctx, w.idx));
            let mut mask = active;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                mask &= mask - 1;
                let a = word_i64(addr.read(&w.regs, lane));
                let old = load_word(self.mem, self.shared, space, a, MemTy::I32)?;
                let (cur, v) = (word_i32(old), word_i32(operand.read(&w.regs, lane)));
                let new = match kind {
                    AtomicKind::Add => cur.wrapping_add(v),
                    AtomicKind::Max => cur.max(v),
                    AtomicKind::Cas => {
                        if cur == v {
                            word_i32(swap.read(&w.regs, lane))
                        } else {
                            cur
                        }
                    }
                };
                let new = Value::I32(new).to_bits();
                store_word(self.mem, self.shared, space, a, MemTy::I32, new)?;
                w.regs[dst + lane as usize] = old;
                self.stats.atomics += 1;
            }
        }
        let base = match space {
            AddrSpace::Global => self.spec.costs.atomic_global,
            AddrSpace::Shared => self.spec.costs.atomic_shared,
        };
        self.warps[wi].cycles += base + n_active.saturating_sub(1) * (base / 8).max(1);
        self.issue += n_active.max(1);
        Ok(())
    }

    // ---- shuffles -----------------------------------------------------------

    fn exec_shfl(&mut self, wi: usize, inst: &CInst, active: u64) {
        let ctx = self.lane_ctx();
        let dst = inst.dst;
        let lanes = self.lanes;
        let w = &mut self.warps[wi];
        let [val, sel_arg, _] = inst.args.map(|a| LaneArg::resolve(&a, &ctx, w.idx));
        // Snapshot the value operand for every lane *before* any write:
        // shuffles read other lanes' registers, including stale values in
        // inactive lanes (the classic warp-synchronous hazard).
        let mut snapshot = [0u64; MAX_WARP as usize];
        for lane in 0..lanes {
            snapshot[lane as usize] = val.read(&w.regs, lane);
        }
        let mut mask = active;
        while mask != 0 {
            let lane = mask.trailing_zeros();
            mask &= mask - 1;
            let sel = word_i32(sel_arg.read(&w.regs, lane));
            let src = match inst.op {
                Op::ShflSync => {
                    // Out-of-range source: own value (CUDA semantics).
                    if sel < 0 || sel >= i32::try_from(lanes).expect("lanes") {
                        i64::from(lane)
                    } else {
                        i64::from(sel)
                    }
                }
                Op::ShflUpSync => {
                    // Out-of-warp source lanes (including the garbage
                    // deltas mutated code produces) read the lane's own
                    // value, like CUDA's undefined-delta behaviour made
                    // deterministic.
                    let s = i64::from(lane) - i64::from(sel);
                    if s < 0 || s >= i64::from(lanes) {
                        i64::from(lane)
                    } else {
                        s
                    }
                }
                _ => unreachable!("non-shfl op in exec_shfl"),
            };
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let v = snapshot[src as usize];
            w.regs[dst as usize + lane as usize] = v;
        }
        w.cycles += self.spec.costs.shfl;
        self.stats.shfls += 1;
        self.issue += 1;
    }
}

#[derive(Debug, Clone, Copy)]
enum AtomicKind {
    Add,
    Max,
    Cas,
}

// ---- per-op value functions ---------------------------------------------
//
// One definition of each scalar op's semantics, shared by `eval_pure`
// and the typed ops of `TYPED_OPS`. Every one is total over the operand
// types the verifier admits: division by zero, `MIN / -1` and
// out-of-range shifts give defined words. Any other operand types are
// unreachable.

/// The arm of a value function for operand types the verifier rejects.
#[cold]
#[inline(never)]
fn ill_typed(op: &str, operands: &[Value]) -> ! {
    unreachable!("{op} over {operands:?}: operand types the verifier rejects")
}

#[inline]
fn eval_ibin(op: IntBinOp, x: Value, y: Value) -> Value {
    match (x, y) {
        (Value::I32(a), Value::I32(b)) => Value::I32(ibin_i32(op, a, b)),
        (Value::I64(a), Value::I64(b)) => Value::I64(ibin_i64(op, a, b)),
        (Value::Bool(a), Value::Bool(b)) if op.is_logical() => Value::Bool(match op {
            IntBinOp::And => a && b,
            IntBinOp::Or => a || b,
            IntBinOp::Xor => a ^ b,
            _ => unreachable!("checked is_logical"),
        }),
        _ => ill_typed("ibin", &[x, y]),
    }
}

#[inline]
fn eval_fbin(op: FloatBinOp, x: Value, y: Value) -> Value {
    let (Value::F32(a), Value::F32(b)) = (x, y) else {
        ill_typed("fbin", &[x, y])
    };
    Value::F32(match op {
        FloatBinOp::Add => a + b,
        FloatBinOp::Sub => a - b,
        FloatBinOp::Mul => a * b,
        FloatBinOp::Div => a / b,
        FloatBinOp::Min => a.min(b),
        FloatBinOp::Max => a.max(b),
    })
}

#[inline]
fn eval_icmp(pred: CmpPred, x: Value, y: Value) -> Value {
    match (x, y) {
        (Value::I32(a), Value::I32(b)) => Value::Bool(pred.eval(a.cmp(&b))),
        (Value::I64(a), Value::I64(b)) => Value::Bool(pred.eval(a.cmp(&b))),
        _ => ill_typed("icmp", &[x, y]),
    }
}

#[inline]
fn eval_fcmp(pred: CmpPred, x: Value, y: Value) -> Value {
    let (Value::F32(a), Value::F32(b)) = (x, y) else {
        ill_typed("fcmp", &[x, y])
    };
    Value::Bool(match a.partial_cmp(&b) {
        Some(ord) => pred.eval(ord),
        None => pred == CmpPred::Ne, // NaN: only `ne` holds
    })
}

/// The arms have one type: a select cannot change a register's type
/// with its condition.
#[inline]
fn eval_select(c: Value, t: Value, f: Value) -> Value {
    match c {
        Value::Bool(c) if t.ty() == f.ty() => {
            if c {
                t
            } else {
                f
            }
        }
        _ => ill_typed("select", &[c, t, f]),
    }
}

#[inline]
fn eval_mov(x: Value) -> Value {
    x
}

#[inline]
fn eval_not(x: Value) -> Value {
    match x {
        Value::I32(v) => Value::I32(!v),
        Value::I64(v) => Value::I64(!v),
        Value::Bool(v) => Value::Bool(!v),
        Value::F32(_) => ill_typed("not", &[x]),
    }
}

#[inline]
fn eval_neg(x: Value) -> Value {
    match x {
        Value::I32(v) => Value::I32(v.wrapping_neg()),
        Value::I64(v) => Value::I64(v.wrapping_neg()),
        _ => ill_typed("neg", &[x]),
    }
}

#[inline]
fn eval_fneg(x: Value) -> Value {
    let Value::F32(v) = x else {
        ill_typed("fneg", &[x])
    };
    Value::F32(-v)
}

#[inline]
fn eval_sext(x: Value) -> Value {
    let Value::I32(v) = x else {
        ill_typed("sext", &[x])
    };
    Value::I64(i64::from(v))
}

#[inline]
fn eval_trunc(x: Value) -> Value {
    let Value::I64(v) = x else {
        ill_typed("trunc", &[x])
    };
    #[allow(clippy::cast_possible_truncation)]
    Value::I32(v as i32)
}

#[inline]
fn eval_sitofp(x: Value) -> Value {
    let Value::I32(v) = x else {
        ill_typed("sitofp", &[x])
    };
    #[allow(clippy::cast_precision_loss)]
    Value::F32(v as f32)
}

/// Rounds toward zero and saturates; NaN converts to 0 (Rust `as`).
#[inline]
fn eval_fptosi(x: Value) -> Value {
    let Value::F32(v) = x else {
        ill_typed("fptosi", &[x])
    };
    #[allow(clippy::cast_possible_truncation)]
    Value::I32(v as i32)
}

#[inline]
fn eval_zext_bool(x: Value) -> Value {
    let Value::Bool(v) = x else {
        ill_typed("zext", &[x])
    };
    Value::I32(i32::from(v))
}

#[inline]
fn eval_rng_next(s: Value, c: Value) -> Value {
    let (Value::I64(a), Value::I64(b)) = (s, c) else {
        ill_typed("rng_next", &[s, c])
    };
    Value::I32(rng::mix_to_u31(a, b))
}

#[inline]
fn ibin_i32(op: IntBinOp, a: i32, b: i32) -> i32 {
    match op {
        IntBinOp::Add => a.wrapping_add(b),
        IntBinOp::Sub => a.wrapping_sub(b),
        IntBinOp::Mul => a.wrapping_mul(b),
        // GPUs do not trap on divide-by-zero; the simulator makes the
        // garbage deterministic (0), same for MIN/-1 overflow.
        IntBinOp::Div => a.checked_div(b).unwrap_or(0),
        IntBinOp::Rem => a.checked_rem(b).unwrap_or(0),
        IntBinOp::Min => a.min(b),
        IntBinOp::Max => a.max(b),
        IntBinOp::And => a & b,
        IntBinOp::Or => a | b,
        IntBinOp::Xor => a ^ b,
        IntBinOp::Shl => a.wrapping_shl(b as u32),
        IntBinOp::AShr => a.wrapping_shr(b as u32),
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_wrap)]
        IntBinOp::LShr => ((a as u32).wrapping_shr(b as u32)) as i32,
    }
}

#[inline]
fn ibin_i64(op: IntBinOp, a: i64, b: i64) -> i64 {
    match op {
        IntBinOp::Add => a.wrapping_add(b),
        IntBinOp::Sub => a.wrapping_sub(b),
        IntBinOp::Mul => a.wrapping_mul(b),
        IntBinOp::Div => a.checked_div(b).unwrap_or(0),
        IntBinOp::Rem => a.checked_rem(b).unwrap_or(0),
        IntBinOp::Min => a.min(b),
        IntBinOp::Max => a.max(b),
        IntBinOp::And => a & b,
        IntBinOp::Or => a | b,
        IntBinOp::Xor => a ^ b,
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        IntBinOp::Shl => a.wrapping_shl(b as u32),
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        IntBinOp::AShr => a.wrapping_shr(b as u32),
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        IntBinOp::LShr => ((a as u64).wrapping_shr(b as u32)) as i64,
    }
}

#[cfg(test)]
mod layout_tests {
    use super::{ExecScratch, Frame, Warp, WarpState};

    /// Layout regression guards, in the spirit of the 32-byte
    /// `ExecError` and flat-`Slot` guards: the interpreter copies and
    /// indexes per-warp state on every executed instruction, and the
    /// full-mask/uniform fast paths are only wins while that state stays
    /// small. A failing assert here means an edit silently bloated the
    /// hot structs — shrink the edit, don't bump the number.
    #[test]
    fn per_warp_state_stays_compact() {
        assert_eq!(std::mem::size_of::<WarpState>(), 1);
        assert_eq!(
            std::mem::size_of::<Frame>(),
            32,
            "divergence frame (per stack entry)"
        );
        assert_eq!(
            std::mem::size_of::<Warp>(),
            88,
            "per-warp record (u32 ip, no padding growth)"
        );
    }

    #[test]
    fn scratch_starts_empty_and_is_reusable() {
        let s = ExecScratch::new();
        assert!(s.warps.is_empty());
        assert!(s.shared.is_empty());
        assert!(s.order.is_empty());
        assert!(s.params.is_empty());
        assert!(s.sm_cycles.is_empty());
    }
}

#[cfg(test)]
mod uniformity_soundness {
    //! Soundness oracle for the O2 warp-uniformity analysis (ISSUE 8
    //! satellite): on randomly generated kernels, every register the
    //! analysis marks uniform must hold **identical values across the
    //! live lanes** after per-lane execution at O0. The oracle runs the
    //! plain mask-walking interpreter on the unoptimized image — it is
    //! completely independent of the O2 fast paths it certifies.

    use super::*;
    use crate::compile::OptLevel;
    use crate::spec::GpuSpec;
    use gevo_ir::analysis::uniformity;
    use gevo_ir::{AddrSpace, Cfg, IntBinOp, Kernel, KernelBuilder, Operand, Special};
    use proptest::prelude::*;

    /// Tiny deterministic generator (LCG); the gpu crate cannot depend
    /// on `gevo-bench`'s richer kernel generator without a cycle.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn pick(&mut self, n: usize) -> usize {
            usize::try_from(self.next()).expect("lcg output") % n
        }
    }

    /// A random straight-line i32 dataflow over a mixed uniform /
    /// lane-dependent seed pool, closed by a data-dependent diamond
    /// that overwrites a random register on its then-path — exactly the
    /// shape that exercises the fixpoint's divergence demotion — and a
    /// per-thread store (always in bounds: the fault surface is not
    /// under test here).
    fn random_kernel(seed: u64, n_ops: usize) -> Kernel {
        let mut r = Lcg(seed | 1);
        let mut b = KernelBuilder::new("sound");
        let out = b.param_ptr("out", AddrSpace::Global);
        let n = b.param_i32("n");
        let tid = b.special_i32(Special::ThreadId);
        let bid = b.special_i32(Special::BlockId);
        let nv = b.mov(Operand::Param(n));
        let mut pool = vec![tid, bid, nv];
        let ops = [
            IntBinOp::Add,
            IntBinOp::Sub,
            IntBinOp::Mul,
            IntBinOp::Min,
            IntBinOp::Max,
            IntBinOp::And,
            IntBinOp::Or,
            IntBinOp::Xor,
        ];
        for _ in 0..n_ops {
            let op = ops[r.pick(ops.len())];
            let lhs = Operand::Reg(pool[r.pick(pool.len())]);
            let rhs = if r.pick(3) == 0 {
                #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
                Operand::ImmI32((r.next() % 64) as i32)
            } else {
                Operand::Reg(pool[r.pick(pool.len())])
            };
            pool.push(b.ibin(op, lhs, rhs));
        }
        // Data-dependent diamond; whether it can actually diverge
        // depends on whether the scrutinee is uniform — both cases
        // occur across seeds, and the analysis must sort them out.
        let scrut = pool[r.pick(pool.len())];
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let cut = (r.next() % 16) as i32;
        let cond = b.icmp_lt(scrut.into(), Operand::ImmI32(cut));
        let then_b = b.new_block("t");
        let join_b = b.new_block("j");
        b.cond_br(cond.into(), then_b, join_b);
        b.switch_to(then_b);
        let victim = pool[r.pick(pool.len())];
        b.ibin_to(victim, IntBinOp::Add, victim.into(), Operand::ImmI32(1));
        b.br(join_b);
        b.switch_to(join_b);
        let val = pool[r.pick(pool.len())];
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), val.into());
        b.ret();
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn uniform_marked_regs_are_lane_invariant_under_o0(
            seed in 0u64..u64::MAX,
            n_ops in 1usize..14,
            threads in 1u32..9,
        ) {
            let spec = GpuSpec::p100().scaled(8);
            let k = random_kernel(seed, n_ops);
            let info = uniformity(&k, &Cfg::build(&k));
            // The oracle interpreter: plain O0 per-lane execution.
            let ck = CompiledKernel::compile_with(&k, &spec, OptLevel::O0)
                .expect("generated kernels verify");
            let mut gpu = Gpu::new(spec);
            let buf = gpu.mem_mut().alloc(8 * 4).expect("arena fits");
            let args = [KernelArg::from(buf), KernelArg::I32(7)];
            let mut scratch = ExecScratch::new();
            gpu.launch_compiled_in(&ck, LaunchConfig::new(1, threads), &args, &mut scratch)
                .expect("generated kernels cannot fault");

            // One block, one warp: its final register file is visible in
            // the scratch. Lanes at or above `threads` never executed
            // (they still hold sentinels) — uniformity claims cover the
            // live lanes only.
            let live = threads as usize;
            let warp = &scratch.warps[0];
            for reg in 0..k.reg_count() {
                if !info.uniform_regs[reg] {
                    continue;
                }
                let base = reg * 8;
                for lane in 1..live {
                    prop_assert!(
                        warp.regs[base + lane] == warp.regs[base],
                        "analysis marked r{reg} uniform but lane {lane} disagrees (seed {seed})"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod lane_loop_equivalence {
    //! The typed lane loops of [`scalar_lanes`] against the reference
    //! they replaced: [`eval_pure`] over [`read_operand`], evaluated
    //! lane by lane in ascending order. Every entry of [`TYPED_OPS`]
    //! runs over every operand shape of its types (registers,
    //! immediates, parameters, every special), four masks (full,
    //! partial prefix, sparse, empty) and two warps, with a fresh
    //! destination and — where the types allow — operand 0's own
    //! register; the register files must match bit for bit. The table
    //! itself is checked against the verifier: it holds exactly the
    //! scalar ops a verified kernel can contain. So are the operand
    //! types the memory and warp ops read, which nothing re-checks at
    //! run time.

    use super::*;
    use crate::spec::GpuSpec;
    use gevo_ir::{AddrSpace, KernelBuilder, Operand, Special};

    const LANES: u32 = 8;
    const TYS: [Ty; 4] = [Ty::I32, Ty::I64, Ty::F32, Ty::Bool];

    /// Register `2 × t` and `2 × t + 1` are operands of type `TYS[t]`,
    /// register `8 + t` a destination of that type.
    fn operand_reg(ty: Ty, k: u32) -> Slot {
        let t = TYS.iter().position(|&x| x == ty).expect("type") as u32;
        Slot::Reg((2 * t + k) * LANES, ty)
    }

    fn dst_reg(ty: Ty) -> u32 {
        let t = TYS.iter().position(|&x| x == ty).expect("type") as u32;
        (8 + t) * LANES
    }

    /// A register file whose values hit the ops' edge cases lane by
    /// lane: division and remainder by 0, `MIN / -1`, shift counts at
    /// and beyond the width, NaN, infinities, `-0.0` and out-of-range
    /// casts. Destinations hold their type's sentinel.
    fn register_file() -> Vec<u64> {
        let nan = f32::NAN;
        let inf = f32::INFINITY;
        let i32s: [[i32; 8]; 2] = [
            [7, i32::MIN, -9, 100, i32::MAX, 0, -1, 5],
            [0, -1, 32, 33, -3, 2, 40, 1],
        ];
        let i64s: [[i64; 8]; 2] = [
            [7, i64::MIN, -9, 100, i64::MAX, 0, -1, 1 << 40],
            [0, -1, 64, 65, -3, 2, 100, 1],
        ];
        let f32s: [[f32; 8]; 2] = [
            [1.5, nan, -0.0, inf, -inf, 3e9, -3e9, 2.5],
            [0.0, 1.0, nan, 2.0, -inf, 0.5, -1e-40, 2.5],
        ];
        let bools: [[bool; 8]; 2] = [
            [true, false, true, false, true, true, false, false],
            [true, true, false, false, true, false, true, false],
        ];
        let mut regs: Vec<u64> = Vec::new();
        regs.extend(i32s.iter().flatten().map(|&v| Value::I32(v).to_bits()));
        regs.extend(i64s.iter().flatten().map(|&v| Value::I64(v).to_bits()));
        regs.extend(f32s.iter().flatten().map(|&v| Value::F32(v).to_bits()));
        regs.extend(bools.iter().flatten().map(|&v| Value::Bool(v).to_bits()));
        for ty in TYS {
            regs.extend((0..LANES).map(|_| Value::sentinel(ty).to_bits()));
        }
        regs
    }

    /// Every operand shape of type `ty` the lowering produces: two
    /// registers, immediates, the parameter of that type and, for
    /// `i32`, every special.
    fn slot_pool(ty: Ty) -> Vec<Slot> {
        let mut pool = vec![operand_reg(ty, 0), operand_reg(ty, 1)];
        match ty {
            Ty::I32 => {
                pool.extend([
                    Slot::ImmI32(0),
                    Slot::ImmI32(-1),
                    Slot::ImmI32(i32::MIN),
                    Slot::ImmI32(40),
                    Slot::Param(0),
                ]);
                pool.extend(
                    [
                        Special::ThreadId,
                        Special::LaneId,
                        Special::BlockId,
                        Special::WarpId,
                        Special::BlockDim,
                        Special::GridDim,
                        Special::WarpSize,
                    ]
                    .map(Slot::Special),
                );
            }
            Ty::I64 => pool.extend([Slot::ImmI64(-1), Slot::ImmI64(0), Slot::Param(1)]),
            Ty::F32 => pool.extend([Slot::ImmF32(f32::NAN), Slot::ImmF32(-2.5), Slot::Param(2)]),
            Ty::Bool => pool.extend([Slot::ImmBool(true), Slot::ImmBool(false), Slot::Param(3)]),
        }
        pool
    }

    fn scalar_ops() -> Vec<Op> {
        use CmpPred::{Eq, Ge, Gt, Le, Lt, Ne};
        let preds = [Eq, Ne, Lt, Le, Gt, Ge];
        let mut ops: Vec<Op> = [
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
        ]
        .into_iter()
        .map(Op::IBin)
        .collect();
        ops.extend(
            [
                FloatBinOp::Add,
                FloatBinOp::Sub,
                FloatBinOp::Mul,
                FloatBinOp::Div,
                FloatBinOp::Min,
                FloatBinOp::Max,
            ]
            .into_iter()
            .map(Op::FBin),
        );
        ops.extend(preds.map(Op::Icmp));
        ops.extend(preds.map(Op::Fcmp));
        ops.extend([
            Op::Select,
            Op::Mov,
            Op::Not,
            Op::Neg,
            Op::FNeg,
            Op::Sext,
            Op::Trunc,
            Op::SiToFp,
            Op::FpToSi,
            Op::ZextBool,
            Op::RngNext,
        ]);
        ops
    }

    /// Every tuple of `arity` operand types.
    fn type_tuples(arity: usize) -> Vec<Vec<Ty>> {
        (0..TYS.len().pow(u32::try_from(arity).expect("arity")))
            .map(|mut k| {
                (0..arity)
                    .map(|_| {
                        let t = TYS[k % TYS.len()];
                        k /= TYS.len();
                        t
                    })
                    .collect()
            })
            .collect()
    }

    /// Every choice of one slot per operand from its pool.
    fn slot_choices(pools: &[Vec<Slot>]) -> Vec<[Slot; 3]> {
        let mut out = vec![[Slot::ImmI32(0); 3]];
        for (i, pool) in pools.iter().enumerate() {
            out = out
                .iter()
                .flat_map(|args| {
                    pool.iter().map(move |&s| {
                        let mut a = *args;
                        a[i] = s;
                        a
                    })
                })
                .collect();
        }
        out
    }

    /// The replaced per-lane path: `eval_pure` once per active lane.
    fn reference(inst: &CInst, regs: &mut [u64], ctx: &LaneCtx, widx: u32, active: u64) {
        let mut mask = active;
        while mask != 0 {
            let lane = mask.trailing_zeros();
            mask &= mask - 1;
            let v = eval_pure(inst.op, |i| {
                read_operand(regs, ctx, widx, lane, &inst.args[i])
            });
            regs[inst.dst as usize + lane as usize] = v.to_bits();
        }
    }

    /// The result type of a typed op: its value function's, on the
    /// sentinels of its operand types.
    fn result_ty(op: Op, tys: &[Ty]) -> Ty {
        eval_pure(op, |i| Value::sentinel(tys[i])).ty()
    }

    #[test]
    fn lane_loops_match_per_lane_eval_pure() {
        let params = [
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::F32(0.1),
            Value::Bool(true),
        ];
        // Every lane-invariant special reads a distinct value, so one
        // resolved from the wrong context field shows.
        let ctx = LaneCtx {
            params: &params,
            block_idx: 3,
            grid: 5,
            block: 24,
            lanes: LANES,
        };
        let base = register_file();
        // Full, partial prefix, sparse and empty masks.
        let masks = [0xFF, 0b0000_0111, 0b1011_0110, 0];
        let mut cases = 0usize;
        for (typed, op) in (0u8..).zip(&TYPED_OPS) {
            let result = result_ty(op.op, op.tys);
            let pools: Vec<Vec<Slot>> = op.tys.iter().map(|&t| slot_pool(t)).collect();
            for args in slot_choices(&pools) {
                let mut dsts = vec![dst_reg(result)];
                // Operand 0's own register, when it is a register of
                // the result type: reads and writes alias.
                if let Slot::Reg(b, t) = args[0] {
                    if t == result {
                        dsts.push(b);
                    }
                }
                for dst in dsts {
                    let inst = CInst {
                        op: op.op,
                        tag: OpClass::Scalar,
                        dst,
                        args,
                        cost: 1,
                    };
                    // Two warps: an operand resolved for the wrong warp
                    // (or, under the masks that skip lane 0, for the
                    // wrong lane) differs.
                    for widx in [1, 2] {
                        for active in masks {
                            let mut want = base.clone();
                            let mut got = base.clone();
                            reference(&inst, &mut want, &ctx, widx, active);
                            scalar_lanes(&inst, typed, &mut got, &ctx, widx, active);
                            assert_eq!(
                                got, want,
                                "{:?} {args:?} warp {widx} dst {dst} mask {active:#x}",
                                op.op
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 50_000, "{cases} cases");
    }

    /// The verifier and [`TYPED_OPS`] agree on what is well-typed: for
    /// every scalar op, every tuple of operand types and every
    /// destination type, a one-instruction kernel verifies iff the
    /// table has an entry for the op over those operand types whose
    /// result has the destination's type. So the compiler finds a typed
    /// op for every scalar instruction of a verified kernel, and no
    /// typed op writes a register of another type.
    #[test]
    fn verify_accepts_exactly_the_typed_ops() {
        let mut accepted = 0;
        for op in scalar_ops() {
            for arg_tys in type_tuples(op.arity()) {
                let typed = typed_op_index(op, &arg_tys);
                for dst_ty in TYS {
                    let mut b = KernelBuilder::new("one");
                    let args = arg_tys.iter().map(|&t| b.fresh_reg(t).into()).collect();
                    let dst = b.fresh_reg(dst_ty);
                    b.emit_to(dst, op, args);
                    b.ret();
                    let verifies = gevo_ir::verify::verify(&b.finish()).is_ok();
                    let in_table = typed.is_some_and(|_| result_ty(op, &arg_tys) == dst_ty);
                    assert_eq!(verifies, in_table, "{op:?} {arg_tys:?} -> {dst_ty}");
                    accepted += usize::from(verifies);
                }
            }
        }
        assert_eq!(accepted, 73, "well-typed (op, sub-op, types) combinations");
        assert_eq!(TYPED_OPS.len(), accepted);
    }

    /// The memory and warp ops read their operand words at the types
    /// the op names, with no check: for every such op, every tuple of
    /// operand types and every destination type, a one-instruction
    /// kernel verifies iff those are the types its `exec_*` function
    /// reads and writes.
    #[test]
    fn verify_accepts_exactly_what_memory_and_warp_ops_read() {
        use Ty::{Bool, I32, I64};
        let mut ops = vec![Op::ShflSync, Op::ShflUpSync, Op::BallotSync, Op::ActiveMask];
        for space in [AddrSpace::Global, AddrSpace::Shared] {
            ops.extend([MemTy::I32, MemTy::I64, MemTy::F32].map(|ty| Op::Load { space, ty }));
            ops.extend([MemTy::I32, MemTy::I64, MemTy::F32].map(|ty| Op::Store { space, ty }));
            ops.extend([
                Op::AtomicAdd { space },
                Op::AtomicMax { space },
                Op::AtomicCas { space },
            ]);
        }
        let reads = |op: Op, args: &[Ty], dst: Option<Ty>| match op {
            Op::Load { ty, .. } => args == [I64] && dst == Some(ty.value_ty()),
            Op::Store { ty, .. } => args == [I64, ty.value_ty()],
            Op::AtomicAdd { .. } | Op::AtomicMax { .. } => args == [I64, I32] && dst == Some(I32),
            Op::AtomicCas { .. } => args == [I64, I32, I32] && dst == Some(I32),
            Op::ShflSync | Op::ShflUpSync => args[1] == I32 && dst == Some(args[0]),
            Op::BallotSync => args == [Bool] && dst == Some(I32),
            Op::ActiveMask => dst == Some(I32),
            _ => unreachable!("not a memory or warp op: {op:?}"),
        };
        let mut accepted = 0;
        for op in ops {
            let dsts: Vec<Option<Ty>> = if op.has_dst() {
                TYS.map(Some).to_vec()
            } else {
                vec![None]
            };
            for arg_tys in type_tuples(op.arity()) {
                for &dst in &dsts {
                    let mut b = KernelBuilder::new("one");
                    let args = arg_tys.iter().map(|&t| b.fresh_reg(t).into()).collect();
                    b.emit(op, args, dst);
                    b.ret();
                    let verifies = gevo_ir::verify::verify(&b.finish()).is_ok();
                    assert_eq!(
                        verifies,
                        reads(op, &arg_tys, dst),
                        "{op:?} {arg_tys:?} -> {dst:?}"
                    );
                    accepted += usize::from(verifies);
                }
            }
        }
        // 6 loads, 6 stores, 6 atomics, 4 types × 2 shuffles, ballot
        // and activemask.
        assert_eq!(accepted, 28);
    }

    /// The words an operand of type `ty` takes in these tests: both
    /// operand registers' lanes of [`register_file`], the type's
    /// sentinel, and the immediates and the parameter of [`slot_pool`].
    fn word_pool(ty: Ty, ctx: &LaneCtx) -> Vec<u64> {
        let regs = register_file();
        let mut words: Vec<u64> = (0..2)
            .flat_map(|k| {
                let Slot::Reg(base, _) = operand_reg(ty, k) else {
                    unreachable!("a register slot")
                };
                regs[base as usize..(base + LANES) as usize].to_vec()
            })
            .collect();
        words.push(Value::sentinel(ty).to_bits());
        for slot in slot_pool(ty) {
            if !matches!(slot, Slot::Reg(..) | Slot::Special(_)) {
                words.push(read_operand(&[], ctx, 0, 0, &slot).to_bits());
            }
        }
        words
    }

    /// Every typed op's word function — what the warp-uniform path
    /// runs — against `eval_pure` at the op's operand types, over every
    /// combination of the operand pools' words: division and remainder
    /// by 0, `MIN / -1`, shift counts at and beyond the width, NaN,
    /// infinities, `-0.0` and the sentinels, `f32`'s `0xDBDBDBDB`
    /// included. Results must match bit for bit.
    #[test]
    fn word_functions_match_eval_pure() {
        let params = [
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::F32(0.1),
            Value::Bool(true),
        ];
        let ctx = LaneCtx {
            params: &params,
            block_idx: 3,
            grid: 5,
            block: 24,
            lanes: LANES,
        };
        let mut cases = 0usize;
        for op in &TYPED_OPS {
            assert_eq!(op.tys.len(), op.op.arity(), "{:?}", op.op);
            let mut combos = vec![[0u64; 3]];
            for (i, &ty) in op.tys.iter().enumerate() {
                combos = combos
                    .iter()
                    .flat_map(|c| {
                        word_pool(ty, &ctx).into_iter().map(move |w| {
                            let mut c = *c;
                            c[i] = w;
                            c
                        })
                    })
                    .collect();
            }
            for [a, b, c] in combos {
                let words = [a, b, c];
                let want = eval_pure(op.op, |i| Value::from_bits(op.tys[i], words[i])).to_bits();
                assert_eq!(
                    (op.word)(a, b, c),
                    want,
                    "{:?} {:?} {words:x?}",
                    op.op,
                    op.tys
                );
                cases += 1;
            }
        }
        assert!(cases > 20_000, "{cases} cases");
    }

    /// [`broadcast`] against the set-bit walk it shortcuts: full,
    /// partial-warp prefix, non-contiguous, single-high-lane and empty
    /// masks write bit-identical register files.
    #[test]
    fn broadcast_matches_the_set_bit_walk() {
        let base = register_file();
        let masks: [u64; 5] = [0xFF, 0b0000_0111, 0b1011_0110, 1 << (LANES - 1), 0];
        let words = [
            Value::I32(-3),
            Value::I64(i64::MIN),
            Value::F32(f32::NAN),
            Value::F32(-0.0),
            Value::Bool(true),
        ]
        .map(Value::to_bits);
        for dst in [dst_reg(Ty::I32), 0, 4 * LANES] {
            for active in masks {
                for w in words {
                    let mut want = base.clone();
                    let mut mask = active;
                    while mask != 0 {
                        let lane = mask.trailing_zeros();
                        mask &= mask - 1;
                        want[dst as usize + lane as usize] = w;
                    }
                    let mut got = base.clone();
                    broadcast(&mut got, dst, active, w);
                    assert_eq!(got, want, "{w:#x} to {dst} under {active:#x}");
                }
            }
        }
    }

    /// A verified kernel that reads registers it never wrote, one of
    /// each type, sees its type's sentinel in every lane: the words
    /// survive the typed lane loops (a `mov` of each, and `select`s
    /// between the copies) and the stores bit for bit — the `f32`
    /// sentinel `0xDBDBDBDB` included.
    #[test]
    fn never_written_registers_read_their_sentinels() {
        let mut b = KernelBuilder::new("sentinels");
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let [ri, rl, rf, rb] = TYS.map(|t| b.fresh_reg(t));
        let cond = b.mov(rb.into());
        let si = b.select(cond.into(), Operand::ImmI32(0), ri.into());
        let mi = b.mov(si.into());
        let sl = b.select(cond.into(), Operand::ImmI64(0), rl.into());
        let ml = b.mov(sl.into());
        let sf = b.select(cond.into(), Operand::ImmF32(0.0f32.into()), rf.into());
        let mf = b.mov(sf.into());
        let zb = b.zext_bool(cond.into());
        let slot = b.mul(tid.into(), Operand::ImmI32(4));
        let stores: [(MemTy, Operand, i32); 4] = [
            (MemTy::I32, mi.into(), 0),
            (MemTy::I64, ml.into(), 1),
            (MemTy::F32, mf.into(), 2),
            (MemTy::I32, zb.into(), 3),
        ];
        for (ty, v, k) in stores {
            let word = b.add(slot.into(), Operand::ImmI32(k));
            let addr = b.index_addr(Operand::Param(out), word.into(), 8);
            b.store(AddrSpace::Global, ty, addr.into(), v);
        }
        b.ret();
        let k = b.finish();
        gevo_ir::verify::verify(&k).expect("kernel verifies");

        // A full warp and a partial one.
        let spec = GpuSpec::p100().scaled(8);
        let threads = 12;
        let mut gpu = Gpu::new(spec);
        let buf = gpu
            .mem_mut()
            .alloc(u64::from(threads) * 32)
            .expect("arena fits");
        gpu.launch(&k, LaunchConfig::new(1, threads), &[buf.into()])
            .expect("kernel runs");
        for t in 0..i64::from(threads) {
            let at = |k: i64| buf.base() + (4 * t + k) * 8;
            let load = |k, ty| gpu.mem().load_word(at(k), ty).expect("in bounds");
            let sentinel = |ty| Value::sentinel(ty).to_bits();
            assert_eq!(load(0, MemTy::I32), sentinel(Ty::I32), "thread {t}");
            assert_eq!(load(1, MemTy::I64), sentinel(Ty::I64), "thread {t}");
            assert_eq!(
                load(2, MemTy::F32),
                0xDBDB_DBDB,
                "thread {t}: f32 sentinel bits"
            );
            assert_eq!(load(2, MemTy::F32), sentinel(Ty::F32));
            assert_eq!(load(3, MemTy::I32), 0, "thread {t}: b1 sentinel");
        }
    }
}

#[cfg(test)]
mod step_accounting {
    //! The step count is exact per instruction: `StepLimit` fires at the
    //! same instruction inside a block (not at a block boundary), and a
    //! barrier in the middle of a block suspends and resumes the warp at
    //! the next instruction. The pinned numbers are the reference: they
    //! were recorded with an interpreter loop that fetched, counted and
    //! checked one instruction per iteration.

    use super::*;
    use crate::compile::OptLevel;
    use crate::spec::GpuSpec;
    use gevo_ir::{AddrSpace, IntBinOp, Kernel, KernelBuilder, Operand, Special};

    /// Loop of `(blockIdx + 1) * 4` trips whose body is one straight
    /// line of eight instructions, four of them stores of the loop's
    /// running values to the block's own four words of `out`.
    fn straight_line_loop() -> Kernel {
        let mut b = KernelBuilder::new("line");
        let out = b.param_ptr("out", AddrSpace::Global);
        let bid = b.special_i32(Special::BlockId);
        let bid1 = b.add(bid.into(), Operand::ImmI32(1));
        let trips = b.mul(bid1.into(), Operand::ImmI32(4));
        let i = b.mov(Operand::ImmI32(0));
        let base = b.mul(bid.into(), Operand::ImmI32(4));
        let mut words = Vec::new();
        for k in 0..4 {
            let w = b.add(base.into(), Operand::ImmI32(k));
            words.push(b.index_addr(Operand::Param(out), w.into(), 4));
        }
        let hdr = b.new_block("hdr");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.br(hdr);
        b.switch_to(hdr);
        let more = b.icmp_lt(i.into(), trips.into());
        b.cond_br(more.into(), body, exit);
        b.switch_to(body);
        let tripled = b.mul(i.into(), Operand::ImmI32(3));
        b.store_global_i32(words[0].into(), tripled.into());
        let bumped = b.add(tripled.into(), Operand::ImmI32(7));
        b.store_global_i32(words[1].into(), bumped.into());
        let mixed = b.ibin(IntBinOp::Xor, bumped.into(), i.into());
        b.store_global_i32(words[2].into(), mixed.into());
        b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
        b.store_global_i32(words[3].into(), i.into());
        b.br(hdr);
        b.switch_to(exit);
        b.ret();
        b.finish()
    }

    /// Launches `k` on a fresh device at `opt` and returns the result,
    /// the device's peak block steps and the first `words` words of a
    /// `-1`-filled output buffer (read after a fault too).
    fn launch_at(
        k: &Kernel,
        spec: &GpuSpec,
        opt: OptLevel,
        cfg: LaunchConfig,
        words: usize,
    ) -> (Result<LaunchStats, ExecError>, u64, Vec<i32>) {
        let ck = CompiledKernel::compile_with(k, spec, opt).expect("kernel verifies");
        let mut gpu = Gpu::new(spec.clone());
        let buf = gpu.mem_mut().alloc(words as u64 * 4).expect("arena fits");
        gpu.mem_mut().write_i32s(buf, 0, &vec![-1; words]);
        let res = gpu.launch_compiled(&ck, cfg, &[buf.into()]);
        (
            res,
            gpu.peak_block_steps(),
            gpu.mem().read_i32s(buf, 0, words),
        )
    }

    #[test]
    fn step_limit_fires_mid_block_at_the_recorded_step() {
        let k = straight_line_loop();
        // Two warps per block (32 + 8 lanes); block 0 runs 4 trips and
        // block 1 runs 8.
        let cfg = LaunchConfig::new(2, 40);
        for opt in [OptLevel::O0, OptLevel::O2] {
            let mut spec = GpuSpec::p100();
            let (res, peak, out) = launch_at(&k, &spec, opt, cfg, 8);
            assert_eq!(res.map(|s| s.instructions), Ok(364), "{opt:?}");
            assert_eq!(peak, 226, "{opt:?}: block 1 is the peak");
            assert_eq!(out, [9, 16, 19, 4, 21, 28, 27, 8], "{opt:?}");

            // Block 0 takes 138 steps and fits. Block 1's warp 0 takes
            // 113; its warp 1 enters the loop body at step 138 and is
            // killed at the body's fifth instruction (step 142, `bumped ^ i`)
            // or its seventh (step 144, `i + 1`): the stores before the
            // kill landed, the ones after it did not.
            spec.step_limit = 141;
            let (res, peak, out) = launch_at(&k, &spec, opt, cfg, 8);
            assert_eq!(res, Err(ExecError::StepLimit), "{opt:?}");
            assert_eq!(peak, 138, "{opt:?}: only block 0 completed");
            assert_eq!(out, [9, 16, 19, 4, 0, 7, 27, 8], "{opt:?}");
            spec.step_limit = 143;
            let (res, peak, out) = launch_at(&k, &spec, opt, cfg, 8);
            assert_eq!(res, Err(ExecError::StepLimit), "{opt:?}");
            assert_eq!(peak, 138, "{opt:?}");
            assert_eq!(out, [9, 16, 19, 4, 0, 7, 7, 8], "{opt:?}");
        }
    }

    /// Every [`LaunchStats`] field of the completed launch, at O0 (every
    /// op on the per-lane path, run from the block loop) and at O2 (the
    /// body's ops warp-uniform). The values were recorded with the
    /// scalar ops run out of line: the block loop's ALU and issue
    /// counters must be flushed on every exit.
    #[test]
    fn completed_launch_pins_every_stat() {
        let k = straight_line_loop();
        let spec = GpuSpec::p100();
        let cfg = LaunchConfig::new(2, 40);
        let want = LaunchStats {
            cycles: 913,
            instructions: 364,
            alu_instructions: 208,
            shared_accesses: 0,
            shared_conflicts: 0,
            global_accesses: 96,
            global_segments: 96,
            cache_hits: 95,
            cache_misses: 1,
            row_hits: 0,
            row_misses: 1,
            divergent_branches: 0,
            barriers: 0,
            ballots: 0,
            shfls: 0,
            atomics: 0,
            blocks: 2,
            warps_per_block: 2,
        };
        for opt in [OptLevel::O0, OptLevel::O2] {
            let (res, ..) = launch_at(&k, &spec, opt, cfg, 8);
            assert_eq!(res, Ok(want), "{opt:?}");
        }
    }

    /// A loop of `blockIdx + 3` trips whose body block is warp-uniform
    /// through and through at O2: four scalar ops, run inline by the
    /// block loop, and two uniform stores of their running values to
    /// the block's own two words of `out`.
    fn uniform_loop() -> Kernel {
        let mut b = KernelBuilder::new("uniform");
        let out = b.param_ptr("out", AddrSpace::Global);
        let bid = b.special_i32(Special::BlockId);
        let trips = b.add(bid.into(), Operand::ImmI32(3));
        let i = b.mov(Operand::ImmI32(0));
        let acc = b.mov(Operand::ImmI32(1));
        let first = b.mul(bid.into(), Operand::ImmI32(2));
        let second = b.add(first.into(), Operand::ImmI32(1));
        let w0 = b.index_addr(Operand::Param(out), first.into(), 4);
        let w1 = b.index_addr(Operand::Param(out), second.into(), 4);
        let hdr = b.new_block("hdr");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.br(hdr);
        b.switch_to(hdr);
        let more = b.icmp_lt(i.into(), trips.into());
        b.cond_br(more.into(), body, exit);
        b.switch_to(body);
        let tripled = b.mul(acc.into(), Operand::ImmI32(3));
        b.store_global_i32(w0.into(), tripled.into());
        let mixed = b.ibin(IntBinOp::Xor, tripled.into(), i.into());
        b.ibin_to(acc, IntBinOp::Add, mixed.into(), Operand::ImmI32(5));
        b.store_global_i32(w1.into(), acc.into());
        b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
        b.br(hdr);
        b.switch_to(exit);
        b.ret();
        b.finish()
    }

    #[test]
    fn step_limit_fires_mid_block_on_the_inline_uniform_path() {
        let k = uniform_loop();
        let mut spec = GpuSpec::p100().scaled(8);
        let o2 = CompiledKernel::compile(&k, &spec).expect("kernel verifies");
        let body = &o2.code[o2.block_bounds[2] as usize..o2.block_bounds[3] as usize];
        let tags: Vec<OpClass> = body.iter().map(|c| c.tag).collect();
        assert_eq!(
            tags,
            [
                OpClass::UniformScalar,
                OpClass::UniformStore,
                OpClass::UniformScalar,
                OpClass::UniformScalar,
                OpClass::UniformStore,
                OpClass::UniformScalar,
            ]
        );

        // One block of two warps (8 + 4 lanes): the launch's
        // instruction count is that block's step count.
        let (res, peak, out) = launch_at(&k, &spec, OptLevel::O2, LaunchConfig::new(1, 12), 2);
        assert_eq!(res.map(|s| s.instructions), Ok(86));
        assert_eq!(peak, 86);
        assert_eq!(out, [90, 93]);
        // Two blocks: 86 + 104 steps, block 1 (four trips) the peak.
        let cfg = LaunchConfig::new(2, 12);
        let (res, peak, out) = launch_at(&k, &spec, OptLevel::O2, cfg, 4);
        assert_eq!(res.map(|s| s.instructions), Ok(190));
        assert_eq!(peak, 104);
        assert_eq!(out, [90, 93, 279, 281]);

        // Block 1's warp 1 runs its last trip's body at steps 95..=101
        // (`tripled` at 95, the stores at 96 and 99) and exits at 104.
        // The kill lands on the inline `tripled ^ i` (step 97), on the
        // second store (99), on the inline `i + 1` (100) and on the
        // `ret` (104).
        for (limit, want) in [
            (96, [90, 93, 279, 93]),
            (98, [90, 93, 279, 93]),
            (99, [90, 93, 279, 281]),
            (103, [90, 93, 279, 281]),
        ] {
            spec.step_limit = limit;
            let (res, peak, out) = launch_at(&k, &spec, OptLevel::O2, cfg, 4);
            assert_eq!(res, Err(ExecError::StepLimit), "limit {limit}");
            assert_eq!(peak, 86, "limit {limit}: only block 0 completed");
            assert_eq!(out, want, "limit {limit}");
        }
        spec.step_limit = 104;
        let (res, ..) = launch_at(&k, &spec, OptLevel::O2, cfg, 4);
        assert_eq!(res.map(|s| s.instructions), Ok(190));
        // Every limit kills at the step O0's per-lane path does.
        for limit in 60..=110 {
            spec.step_limit = limit;
            let o0 = launch_at(&k, &spec, OptLevel::O0, cfg, 4);
            let o2 = launch_at(&k, &spec, OptLevel::O2, cfg, 4);
            assert_eq!(o2, o0, "limit {limit}");
        }
    }

    /// Three trips of a loop whose single block holds two barriers:
    /// each thread publishes `tid + 5 * i` to shared memory, syncs,
    /// adds its right neighbour's value and a uniform global load to
    /// an accumulator, syncs again, and finally stores the sum.
    fn barrier_mid_block() -> Kernel {
        let mut b = KernelBuilder::new("bar");
        b.shared_bytes(72 * 4);
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let dim = b.special_i32(Special::BlockDim);
        let i = b.mov(Operand::ImmI32(0));
        let acc = b.mov(Operand::ImmI32(0));
        let mine = b.index_addr(Operand::ImmI64(0), tid.into(), 4);
        let tid1 = b.add(tid.into(), Operand::ImmI32(1));
        let right = b.rem(tid1.into(), dim.into());
        let theirs = b.index_addr(Operand::ImmI64(0), right.into(), 4);
        let looph = b.new_block("loop");
        let exit = b.new_block("exit");
        b.br(looph);
        b.switch_to(looph);
        let step = b.mul(i.into(), Operand::ImmI32(5));
        let published = b.add(tid.into(), step.into());
        b.store_shared_i32(mine.into(), published.into());
        b.sync_threads();
        let neighbour = b.load_shared_i32(theirs.into());
        let word0 = b.load_global_i32(Operand::Param(out));
        let term = b.add(neighbour.into(), word0.into());
        b.ibin_to(acc, IntBinOp::Add, acc.into(), term.into());
        b.sync_threads();
        b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
        let more = b.icmp_lt(i.into(), Operand::ImmI32(3));
        b.cond_br(more.into(), looph, exit);
        b.switch_to(exit);
        let bid = b.special_i32(Special::BlockId);
        let row = b.mul(bid.into(), dim.into());
        let slot = b.add(row.into(), tid.into());
        let slot1 = b.add(slot.into(), Operand::ImmI32(1));
        let addr = b.index_addr(Operand::Param(out), slot1.into(), 4);
        b.store_global_i32(addr.into(), acc.into());
        b.ret();
        b.finish()
    }

    #[test]
    fn barrier_mid_block_matches_at_o0_and_o2() {
        let k = barrier_mid_block();
        let spec = GpuSpec::p100();
        // Three warps per block (32 + 32 + 8 lanes), two blocks.
        let cfg = LaunchConfig::new(2, 72);
        let (o0, o0_peak, o0_out) = launch_at(&k, &spec, OptLevel::O0, cfg, 145);
        let (o2, o2_peak, o2_out) = launch_at(&k, &spec, OptLevel::O2, cfg, 145);
        let stats = o0.expect("O0 runs");
        assert_eq!(o2, Ok(stats));
        assert_eq!(o2_peak, o0_peak);
        assert_eq!(o2_out, o0_out);
        // Two barriers per trip, three trips, two blocks; steps, cycles
        // and peak are pinned like the test above.
        assert_eq!(stats.barriers, 12);
        assert_eq!((stats.instructions, stats.cycles, o0_peak), (348, 586, 174));
        // Word 0 is the uniform load's `-1`; thread t of either block
        // sums its right neighbour's published values minus 1 per trip.
        for (t, &got) in o0_out[1..].iter().enumerate() {
            let right = (t % 72 + 1) % 72;
            #[allow(clippy::cast_possible_wrap)]
            let want: i32 = (0..3).map(|i| right as i32 + 5 * i - 1).sum();
            assert_eq!(got, want, "thread {t}");
        }
    }
}
