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

use crate::compile::{CInst, CTerm, CompiledKernel, OpClass, Slot, EXIT, NO_DST};
use crate::error::ExecError;
use crate::launch::{KernelArg, LaunchConfig, LaunchStats};
use crate::mem::DeviceMemory;
use crate::spec::GpuSpec;
use crate::value::Value;
use gevo_ir::{
    rng, AddrSpace, CmpPred, FloatBinOp, InstId, IntBinOp, Kernel, MemTy, Op, Param, Ty,
};

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

    /// Creates a device with an explicit arena size (e.g. sized so a
    /// buffer can be placed flush against the top; see
    /// [`DeviceMemory::alloc_at_end`]).
    #[must_use]
    pub fn with_arena(spec: GpuSpec, arena_bytes: u64) -> Gpu {
        let mut spec = spec;
        spec.device_mem_bytes = arena_bytes;
        Gpu::new(spec)
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
    /// Register file, reg-major: `regs[reg * lanes + lane]`.
    regs: Vec<Value>,
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
    fn fresh(idx: u32, n_threads: u32, lanes: u32, reg_file: &[Value]) -> Warp {
        let live = (n_threads - idx * lanes).min(lanes);
        Warp {
            idx,
            active: live_mask(live),
            exited: 0,
            block: 0,
            ip: 0,
            stack: Vec::new(),
            // The typed-sentinel image was prebuilt at compile time;
            // per-warp initialization is one memcpy.
            regs: reg_file.to_vec(),
            cycles: 0,
            state: WarpState::Running,
        }
    }

    /// Reinitializes this warp in place, reusing the register-file and
    /// divergence-stack allocations. Equivalent to `*self = fresh(...)`
    /// without the two heap allocations.
    fn reset(&mut self, idx: u32, n_threads: u32, lanes: u32, reg_file: &[Value]) {
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
/// register file.
#[inline]
fn read_operand(regs: &[Value], ctx: &LaneCtx, warp_idx: u32, lane: u32, op: &Slot) -> Value {
    match op {
        Slot::Reg(base) => regs[*base as usize + lane as usize],
        Slot::ImmI32(v) => Value::I32(*v),
        Slot::ImmI64(v) => Value::I64(*v),
        Slot::ImmF32(v) => Value::F32(*v),
        Slot::ImmBool(v) => Value::Bool(*v),
        Slot::Special(s) => Value::I32(special(ctx, warp_idx, lane, *s)),
        Slot::Param(p) => ctx.params[*p as usize],
    }
}

/// The pure scalar evaluator: one op over already-resolved operand
/// values, for O2 compile-time constant folding
/// (`compile::fold_value`) and the once-per-warp uniform path
/// ([`BlockExec::exec_uniform_scalar`]). Each arm defers to the same
/// per-op value function the per-lane loops of [`scalar_lanes`] call,
/// so every op's semantics — results and faults — are written once:
/// folding and the uniform path are result-preserving by construction.
pub(crate) fn eval_pure(op: Op, a0: impl Fn(usize) -> Value) -> Result<Value, ExecError> {
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

/// One scalar warp instruction over the `active` lanes of a register
/// file: `inst.op` is decoded **once**, and its arm runs a lane loop
/// ([`Lanes`]) specialized to that op's value function — the same
/// function [`eval_pure`] calls, so this path and folding/uniform
/// execution cannot drift apart. Lanes run in ascending order and the
/// first faulting lane stops the loop, with every lower lane's result
/// already written, exactly like evaluating `eval_pure` lane by lane.
#[inline]
fn scalar_lanes(
    inst: &CInst,
    regs: &mut [Value],
    ctx: &LaneCtx,
    widx: u32,
    active: u64,
) -> Result<(), ExecError> {
    let l = Lanes {
        regs,
        ctx,
        widx,
        active,
        dst: inst.dst,
    };
    let [a, b, c] = &inst.args;
    match inst.op {
        Op::IBin(op) => l.op2(a, b, |x, y| eval_ibin(op, x, y)),
        Op::FBin(op) => l.op2(a, b, |x, y| eval_fbin(op, x, y)),
        Op::Icmp(pred) => l.op2(a, b, |x, y| eval_icmp(pred, x, y)),
        Op::Fcmp(pred) => l.op2(a, b, |x, y| eval_fcmp(pred, x, y)),
        Op::Select => l.op3(a, b, c, eval_select),
        Op::Mov => l.op1(a, eval_mov),
        Op::Not => l.op1(a, eval_not),
        Op::Neg => l.op1(a, eval_neg),
        Op::FNeg => l.op1(a, eval_fneg),
        Op::Sext => l.op1(a, eval_sext),
        Op::Trunc => l.op1(a, eval_trunc),
        Op::SiToFp => l.op1(a, eval_sitofp),
        Op::FpToSi => l.op1(a, eval_fptosi),
        Op::ZextBool => l.op1(a, eval_zext_bool),
        Op::RngNext => l.op2(a, b, eval_rng_next),
        op => unreachable!("non-scalar op routed to the scalar lane loop: {op:?}"),
    }
}

/// Writes `v` to every active lane of the register at base `dst`.
/// A mask that is a contiguous low prefix (a full warp, or the partial
/// last warp of a block) is one slice fill; any other mask walks its
/// set bits. Both write the same value to the same lanes.
#[inline]
fn broadcast(regs: &mut [Value], dst: u32, active: u64, v: Value) {
    let dst = dst as usize;
    if active & active.wrapping_add(1) == 0 {
        let n = active.trailing_ones() as usize;
        regs[dst..dst + n].fill(v);
        return;
    }
    let mut mask = active;
    while mask != 0 {
        let lane = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        regs[dst + lane] = v;
    }
}

/// The active-lane loop of one decoded scalar op: walks the set bits
/// of `active`, reads the operands, applies the op's value function
/// and writes `dst` (when there is one). When every operand is a
/// register the reads index the register file directly; any other
/// operand shape goes through [`read_operand`].
struct Lanes<'r, 'c> {
    regs: &'r mut [Value],
    ctx: &'r LaneCtx<'c>,
    widx: u32,
    active: u64,
    dst: u32,
}

impl Lanes<'_, '_> {
    #[inline]
    fn each(self, f: impl Fn(&[Value], u32) -> Result<Value, ExecError>) -> Result<(), ExecError> {
        let mut mask = self.active;
        while mask != 0 {
            let lane = mask.trailing_zeros();
            mask &= mask - 1;
            let v = f(self.regs, lane)?;
            if self.dst != NO_DST {
                self.regs[self.dst as usize + lane as usize] = v;
            }
        }
        Ok(())
    }

    #[inline]
    fn op1(self, a: &Slot, f: impl Fn(Value) -> Result<Value, ExecError>) -> Result<(), ExecError> {
        if let Slot::Reg(ra) = *a {
            return self.each(|r, lane| f(r[ra as usize + lane as usize]));
        }
        let (ctx, widx) = (self.ctx, self.widx);
        self.each(|r, lane| f(read_operand(r, ctx, widx, lane, a)))
    }

    #[inline]
    fn op2(
        self,
        a: &Slot,
        b: &Slot,
        f: impl Fn(Value, Value) -> Result<Value, ExecError>,
    ) -> Result<(), ExecError> {
        if let (Slot::Reg(ra), Slot::Reg(rb)) = (*a, *b) {
            return self.each(|r, lane| {
                f(
                    r[ra as usize + lane as usize],
                    r[rb as usize + lane as usize],
                )
            });
        }
        let (ctx, widx) = (self.ctx, self.widx);
        self.each(|r, lane| {
            f(
                read_operand(r, ctx, widx, lane, a),
                read_operand(r, ctx, widx, lane, b),
            )
        })
    }

    #[inline]
    fn op3(
        self,
        a: &Slot,
        b: &Slot,
        c: &Slot,
        f: impl Fn(Value, Value, Value) -> Result<Value, ExecError>,
    ) -> Result<(), ExecError> {
        if let (Slot::Reg(ra), Slot::Reg(rb), Slot::Reg(rc)) = (*a, *b, *c) {
            return self.each(|r, lane| {
                f(
                    r[ra as usize + lane as usize],
                    r[rb as usize + lane as usize],
                    r[rc as usize + lane as usize],
                )
            });
        }
        let (ctx, widx) = (self.ctx, self.widx);
        self.each(|r, lane| {
            f(
                read_operand(r, ctx, widx, lane, a),
                read_operand(r, ctx, widx, lane, b),
                read_operand(r, ctx, widx, lane, c),
            )
        })
    }
}

fn shared_check(shared_bytes: u32, addr: i64, bytes: u64) -> Result<usize, ExecError> {
    if addr < 0 || addr.unsigned_abs() + bytes > u64::from(shared_bytes) {
        return Err(ExecError::SharedFault { addr, shared_bytes });
    }
    if !addr.unsigned_abs().is_multiple_of(bytes) {
        return Err(ExecError::Misaligned { addr, align: bytes });
    }
    Ok(usize::try_from(addr).expect("checked shared offset"))
}

fn shared_load(shared: &[u8], shared_bytes: u32, addr: i64, ty: MemTy) -> Result<Value, ExecError> {
    let a = shared_check(shared_bytes, addr, ty.size())?;
    Ok(match ty {
        MemTy::I32 => Value::I32(i32::from_le_bytes(
            shared[a..a + 4].try_into().expect("4 bytes"),
        )),
        MemTy::I64 => Value::I64(i64::from_le_bytes(
            shared[a..a + 8].try_into().expect("8 bytes"),
        )),
        MemTy::F32 => Value::F32(f32::from_le_bytes(
            shared[a..a + 4].try_into().expect("4 bytes"),
        )),
    })
}

fn shared_store(
    shared: &mut [u8],
    shared_bytes: u32,
    addr: i64,
    v: Value,
) -> Result<(), ExecError> {
    match v {
        Value::I32(x) => {
            let a = shared_check(shared_bytes, addr, 4)?;
            shared[a..a + 4].copy_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            let a = shared_check(shared_bytes, addr, 8)?;
            shared[a..a + 8].copy_from_slice(&x.to_le_bytes());
        }
        Value::F32(x) => {
            let a = shared_check(shared_bytes, addr, 4)?;
            shared[a..a + 4].copy_from_slice(&x.to_le_bytes());
        }
        Value::Bool(_) => {
            return Err(ExecError::TypeMismatch {
                expected: Ty::I32,
                found: Ty::Bool,
            })
        }
    }
    Ok(())
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
    fn run_warp(&mut self, wi: usize) -> Result<(), ExecError> {
        let (kernel, limit) = (self.kernel, self.spec.step_limit);
        loop {
            let (block, ip) = {
                let w = &self.warps[wi];
                (w.block as usize, w.ip as usize)
            };
            let start = kernel.block_bounds[block] as usize + ip;
            let end = kernel.block_bounds[block + 1] as usize;
            for (k, inst) in kernel.code[start..end].iter().enumerate() {
                self.steps += 1;
                if self.steps > limit {
                    return Err(ExecError::StepLimit);
                }
                if self.exec_inst(wi, inst)? {
                    self.warps[wi].ip = (ip + k + 1) as u32;
                    return Ok(());
                }
            }
            self.steps += 1;
            if self.steps > limit {
                return Err(ExecError::StepLimit);
            }
            self.exec_terminator(wi, kernel.terms[block])?;
            if self.warps[wi].state != WarpState::Running {
                return Ok(());
            }
        }
    }

    // ---- control flow -------------------------------------------------

    fn exec_terminator(&mut self, wi: usize, term: CTerm) -> Result<(), ExecError> {
        self.stats.instructions += 1;
        self.issue += 1;
        self.warps[wi].cycles += self.spec.costs.alu;
        match term {
            CTerm::Br(t) => {
                self.enter_block(wi, t);
                Ok(())
            }
            CTerm::Ret => {
                let w = &mut self.warps[wi];
                w.exited |= w.active;
                w.active = 0;
                if w.stack.is_empty() {
                    w.state = WarpState::Done;
                    Ok(())
                } else {
                    let t = w.stack.last().expect("nonempty").reconv;
                    self.enter_block(wi, t);
                    Ok(())
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
                // works, so this is also valid at O0). The error a
                // non-boolean condition raises is the same one every
                // active lane would raise.
                let ctx = self.lane_ctx();
                if active != 0 && self.kernel.uniform_cond[cur_block] {
                    let w = &self.warps[wi];
                    let v = read_operand(&w.regs, &ctx, w.idx, active.trailing_zeros(), &cond);
                    let b = v.as_bool().ok_or(ExecError::TypeMismatch {
                        expected: Ty::Bool,
                        found: v.ty(),
                    })?;
                    self.enter_block(wi, if b { if_true } else { if_false });
                    return Ok(());
                }
                let mut tmask = 0u64;
                let mut fmask = 0u64;
                {
                    let w = &self.warps[wi];
                    let mut mask = active;
                    while mask != 0 {
                        let lane = mask.trailing_zeros();
                        mask &= mask - 1;
                        let v = read_operand(&w.regs, &ctx, w.idx, lane, &cond);
                        let b = v.as_bool().ok_or(ExecError::TypeMismatch {
                            expected: Ty::Bool,
                            found: v.ty(),
                        })?;
                        if b {
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
                Ok(())
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

    // ---- instruction execution -------------------------------------------

    /// Executes one instruction for all active lanes. Returns `true` if it
    /// was a barrier (the warp must yield).
    fn exec_inst(&mut self, wi: usize, inst: &CInst) -> Result<bool, ExecError> {
        self.stats.instructions += 1;
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
            OpClass::Shfl => self.exec_shfl(wi, inst, active)?,
            OpClass::Ballot => {
                let ctx = self.lane_ctx();
                let dst = inst.dst;
                debug_assert_ne!(dst, NO_DST, "ballot has dst");
                let w = &mut self.warps[wi];
                let mut votes = 0i32;
                let mut mask = active;
                while mask != 0 {
                    let lane = mask.trailing_zeros();
                    mask &= mask - 1;
                    let v = read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[0]);
                    let b = v.as_bool().ok_or(ExecError::TypeMismatch {
                        expected: Ty::Bool,
                        found: v.ty(),
                    })?;
                    if b {
                        votes |= 1 << lane;
                    }
                }
                broadcast(&mut w.regs, dst, active, Value::I32(votes));
                w.cycles += self.spec.costs.ballot;
                self.stats.ballots += 1;
                self.issue += 1;
            }
            OpClass::ActiveMask => {
                #[allow(clippy::cast_possible_wrap)]
                let mask_v = Value::I32(active as i32);
                let dst = inst.dst;
                debug_assert_ne!(dst, NO_DST, "activemask has dst");
                let w = &mut self.warps[wi];
                broadcast(&mut w.regs, dst, active, mask_v);
                w.cycles += self.spec.costs.activemask;
                self.issue += 1;
            }
            OpClass::Scalar => self.exec_scalar(wi, inst, active)?,
            OpClass::UniformScalar => self.exec_uniform_scalar(wi, inst, active)?,
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

    /// Plain per-lane compute ops: one op decode per warp instruction,
    /// then that op's lane loop over the active mask
    /// ([`scalar_lanes`]).
    fn exec_scalar(&mut self, wi: usize, inst: &CInst, active: u64) -> Result<(), ExecError> {
        let ctx = self.lane_ctx();
        let w = &mut self.warps[wi];
        scalar_lanes(inst, &mut w.regs, &ctx, w.idx, active)?;
        // The per-op cost table was resolved at compile time.
        w.cycles += inst.cost;
        self.stats.alu_instructions += 1;
        self.issue += 1;
        Ok(())
    }

    /// Scalar op the uniformity analysis proved warp-uniform: evaluate
    /// once on the first active lane and broadcast the result, instead
    /// of bit-walking the mask. Charges are identical to
    /// [`Self::exec_scalar`] — the cycle/issue model never depended on
    /// the active-lane count for scalar ops.
    fn exec_uniform_scalar(
        &mut self,
        wi: usize,
        inst: &CInst,
        active: u64,
    ) -> Result<(), ExecError> {
        let ctx = self.lane_ctx();
        let dst = inst.dst;
        let w = &mut self.warps[wi];
        if active != 0 {
            // The slow path evaluates nothing (and faults nowhere) with
            // no active lanes, so neither does this one.
            let lane = active.trailing_zeros();
            let result = eval_pure(inst.op, |i| {
                read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[i])
            })?;
            if dst != NO_DST {
                broadcast(&mut w.regs, dst, active, result);
            }
        }
        w.cycles += inst.cost;
        self.stats.alu_instructions += 1;
        self.issue += 1;
        Ok(())
    }

    /// Constant-folded op: the result was computed at compile time and
    /// sits in `args[0]` as an immediate — broadcast it to the active
    /// lanes. Charges are those of the original op; folding is result-
    /// and stats-invisible.
    fn exec_folded(&mut self, wi: usize, inst: &CInst, active: u64) {
        let ctx = self.lane_ctx();
        let dst = inst.dst;
        debug_assert_ne!(dst, NO_DST, "folded ops have a dst");
        let w = &mut self.warps[wi];
        let result = read_operand(&w.regs, &ctx, w.idx, 0, &inst.args[0]);
        broadcast(&mut w.regs, dst, active, result);
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
        let ctx = self.lane_ctx();
        let dst = inst.dst;
        debug_assert_ne!(dst, NO_DST, "load has dst");
        let shared_bytes = self.kernel.shared_bytes;
        let mut addrs: [i64; MAX_WARP as usize] = [0; MAX_WARP as usize];
        {
            // Warp fetched once; active-lane iteration (see `exec_scalar`).
            let w = &mut self.warps[wi];
            let mut mask = active;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                mask &= mask - 1;
                let a = expect_i64(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[0]))?;
                addrs[lane as usize] = a;
                let v = match space {
                    AddrSpace::Global => self.mem.load(a, ty)?,
                    AddrSpace::Shared => shared_load(self.shared, shared_bytes, a, ty)?,
                };
                w.regs[dst as usize + lane as usize] = v;
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
        let shared_bytes = self.kernel.shared_bytes;
        let mut addrs: [i64; MAX_WARP as usize] = [0; MAX_WARP as usize];
        {
            // Warp fetched once (reads only; stores write no register);
            // active-lane iteration (see `exec_scalar`).
            let w = &self.warps[wi];
            let mut mask = active;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                mask &= mask - 1;
                let a = expect_i64(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[0]))?;
                let v = read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[1]);
                if v.ty() != ty.value_ty() {
                    return Err(ExecError::TypeMismatch {
                        expected: ty.value_ty(),
                        found: v.ty(),
                    });
                }
                addrs[lane as usize] = a;
                match space {
                    AddrSpace::Global => self.mem.store(a, v)?,
                    AddrSpace::Shared => shared_store(self.shared, shared_bytes, a, v)?,
                }
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
        let ctx = self.lane_ctx();
        let dst = inst.dst;
        debug_assert_ne!(dst, NO_DST, "load has dst");
        let shared_bytes = self.kernel.shared_bytes;
        let addr;
        {
            let w = &mut self.warps[wi];
            let lane = active.trailing_zeros();
            addr = expect_i64(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[0]))?;
            let v = match space {
                AddrSpace::Global => self.mem.load(addr, ty)?,
                AddrSpace::Shared => shared_load(self.shared, shared_bytes, addr, ty)?,
            };
            broadcast(&mut w.regs, dst, active, v);
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
        let shared_bytes = self.kernel.shared_bytes;
        let addr;
        {
            let w = &self.warps[wi];
            let lane = active.trailing_zeros();
            addr = expect_i64(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[0]))?;
            let v = read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[1]);
            if v.ty() != ty.value_ty() {
                return Err(ExecError::TypeMismatch {
                    expected: ty.value_ty(),
                    found: v.ty(),
                });
            }
            match space {
                AddrSpace::Global => self.mem.store(addr, v)?,
                AddrSpace::Shared => shared_store(self.shared, shared_bytes, addr, v)?,
            }
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
                for lane in 0..self.lanes {
                    if active & (1 << lane) == 0 {
                        continue;
                    }
                    let word = addrs[lane as usize] / 4;
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
                for lane in 0..self.lanes {
                    if active & (1 << lane) == 0 {
                        continue;
                    }
                    let seg = addrs[lane as usize].unsigned_abs() / seg_size;
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
        let ctx = self.lane_ctx();
        let dst = inst.dst;
        debug_assert_ne!(dst, NO_DST, "atomic has dst");
        let n_active = active.count_ones() as u64;
        let shared_bytes = self.kernel.shared_bytes;
        // Lanes execute the atomic in lane order — the deterministic
        // serialization a real device performs in unspecified order.
        {
            let w = &mut self.warps[wi];
            let mut mask = active;
            while mask != 0 {
                let lane = mask.trailing_zeros();
                mask &= mask - 1;
                let addr = expect_i64(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[0]))?;
                let old = match space {
                    AddrSpace::Global => expect_i32(self.mem.load(addr, MemTy::I32)?)?,
                    AddrSpace::Shared => {
                        expect_i32(shared_load(self.shared, shared_bytes, addr, MemTy::I32)?)?
                    }
                };
                let new = match kind {
                    AtomicKind::Add => {
                        let v =
                            expect_i32(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[1]))?;
                        old.wrapping_add(v)
                    }
                    AtomicKind::Max => {
                        let v =
                            expect_i32(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[1]))?;
                        old.max(v)
                    }
                    AtomicKind::Cas => {
                        let expected =
                            expect_i32(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[1]))?;
                        let newv =
                            expect_i32(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[2]))?;
                        if old == expected {
                            newv
                        } else {
                            old
                        }
                    }
                };
                match space {
                    AddrSpace::Global => self.mem.store(addr, Value::I32(new))?,
                    AddrSpace::Shared => {
                        shared_store(self.shared, shared_bytes, addr, Value::I32(new))?;
                    }
                }
                w.regs[dst as usize + lane as usize] = Value::I32(old);
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

    fn exec_shfl(&mut self, wi: usize, inst: &CInst, active: u64) -> Result<(), ExecError> {
        let ctx = self.lane_ctx();
        let dst = inst.dst;
        debug_assert_ne!(dst, NO_DST, "shfl has dst");
        let lanes = self.lanes;
        let w = &mut self.warps[wi];
        // Snapshot the value operand for every lane *before* any write:
        // shuffles read other lanes' registers, including stale values in
        // inactive lanes (the classic warp-synchronous hazard).
        let mut snapshot: [Value; MAX_WARP as usize] = [Value::I32(0); MAX_WARP as usize];
        for lane in 0..lanes {
            snapshot[lane as usize] = read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[0]);
        }
        let mut mask = active;
        while mask != 0 {
            let lane = mask.trailing_zeros();
            mask &= mask - 1;
            let sel = expect_i32(read_operand(&w.regs, &ctx, w.idx, lane, &inst.args[1]))?;
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
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum AtomicKind {
    Add,
    Max,
    Cas,
}

// ---- typed value helpers -----------------------------------------------

fn expect_i32(v: Value) -> Result<i32, ExecError> {
    v.as_i32().ok_or(ExecError::TypeMismatch {
        expected: Ty::I32,
        found: v.ty(),
    })
}

fn expect_i64(v: Value) -> Result<i64, ExecError> {
    v.as_i64().ok_or(ExecError::TypeMismatch {
        expected: Ty::I64,
        found: v.ty(),
    })
}

fn expect_f32(v: Value) -> Result<f32, ExecError> {
    v.as_f32().ok_or(ExecError::TypeMismatch {
        expected: Ty::F32,
        found: v.ty(),
    })
}

fn expect_bool(v: Value) -> Result<bool, ExecError> {
    v.as_bool().ok_or(ExecError::TypeMismatch {
        expected: Ty::Bool,
        found: v.ty(),
    })
}

// ---- per-op value functions ---------------------------------------------
//
// One definition of each scalar op's semantics (result and fault),
// shared by `eval_pure` and the lane loops of `scalar_lanes`. Operands
// are checked left to right, so the first mismatching operand names
// the error.

fn eval_ibin(op: IntBinOp, x: Value, y: Value) -> Result<Value, ExecError> {
    match (x, y) {
        (Value::I32(a), Value::I32(b)) => Ok(Value::I32(ibin_i32(op, a, b))),
        (Value::I64(a), Value::I64(b)) => Ok(Value::I64(ibin_i64(op, a, b))),
        (Value::Bool(a), Value::Bool(b)) if op.is_logical() => Ok(Value::Bool(match op {
            IntBinOp::And => a && b,
            IntBinOp::Or => a || b,
            IntBinOp::Xor => a ^ b,
            _ => unreachable!("checked is_logical"),
        })),
        _ => Err(ExecError::TypeMismatch {
            expected: x.ty(),
            found: y.ty(),
        }),
    }
}

fn eval_fbin(op: FloatBinOp, x: Value, y: Value) -> Result<Value, ExecError> {
    let x = expect_f32(x)?;
    let y = expect_f32(y)?;
    Ok(Value::F32(match op {
        FloatBinOp::Add => x + y,
        FloatBinOp::Sub => x - y,
        FloatBinOp::Mul => x * y,
        FloatBinOp::Div => x / y,
        FloatBinOp::Min => x.min(y),
        FloatBinOp::Max => x.max(y),
    }))
}

fn eval_icmp(pred: CmpPred, x: Value, y: Value) -> Result<Value, ExecError> {
    match (x, y) {
        (Value::I32(a), Value::I32(b)) => Ok(Value::Bool(pred.eval(a.cmp(&b)))),
        (Value::I64(a), Value::I64(b)) => Ok(Value::Bool(pred.eval(a.cmp(&b)))),
        _ => Err(ExecError::TypeMismatch {
            expected: x.ty(),
            found: y.ty(),
        }),
    }
}

fn eval_fcmp(pred: CmpPred, x: Value, y: Value) -> Result<Value, ExecError> {
    let x = expect_f32(x)?;
    let y = expect_f32(y)?;
    Ok(Value::Bool(match x.partial_cmp(&y) {
        Some(ord) => pred.eval(ord),
        None => pred == CmpPred::Ne, // NaN: only `ne` holds
    }))
}

fn eval_select(c: Value, t: Value, f: Value) -> Result<Value, ExecError> {
    Ok(if expect_bool(c)? { t } else { f })
}

#[allow(clippy::unnecessary_wraps)] // shares the value-function signature
fn eval_mov(x: Value) -> Result<Value, ExecError> {
    Ok(x)
}

fn eval_not(x: Value) -> Result<Value, ExecError> {
    match x {
        Value::I32(v) => Ok(Value::I32(!v)),
        Value::I64(v) => Ok(Value::I64(!v)),
        Value::Bool(v) => Ok(Value::Bool(!v)),
        Value::F32(_) => Err(ExecError::TypeMismatch {
            expected: Ty::I32,
            found: x.ty(),
        }),
    }
}

fn eval_neg(x: Value) -> Result<Value, ExecError> {
    match x {
        Value::I32(v) => Ok(Value::I32(v.wrapping_neg())),
        Value::I64(v) => Ok(Value::I64(v.wrapping_neg())),
        _ => Err(ExecError::TypeMismatch {
            expected: Ty::I32,
            found: x.ty(),
        }),
    }
}

fn eval_fneg(x: Value) -> Result<Value, ExecError> {
    Ok(Value::F32(-expect_f32(x)?))
}

fn eval_sext(x: Value) -> Result<Value, ExecError> {
    Ok(Value::I64(i64::from(expect_i32(x)?)))
}

fn eval_trunc(x: Value) -> Result<Value, ExecError> {
    #[allow(clippy::cast_possible_truncation)]
    Ok(Value::I32(expect_i64(x)? as i32))
}

fn eval_sitofp(x: Value) -> Result<Value, ExecError> {
    #[allow(clippy::cast_precision_loss)]
    Ok(Value::F32(expect_i32(x)? as f32))
}

/// Rounds toward zero and saturates; NaN converts to 0 (Rust `as`).
fn eval_fptosi(x: Value) -> Result<Value, ExecError> {
    #[allow(clippy::cast_possible_truncation)]
    Ok(Value::I32(expect_f32(x)? as i32))
}

fn eval_zext_bool(x: Value) -> Result<Value, ExecError> {
    Ok(Value::I32(i32::from(expect_bool(x)?)))
}

fn eval_rng_next(s: Value, c: Value) -> Result<Value, ExecError> {
    let s = expect_i64(s)?;
    let c = expect_i64(c)?;
    Ok(Value::I32(rng::mix_to_u31(s, c)))
}

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

/// Identify an instruction for diagnostics (kernel + id).
#[must_use]
pub fn describe_inst(kernel: &Kernel, id: InstId) -> String {
    match kernel.locate(id) {
        Some(pos) => {
            let inst = kernel.inst_at(pos).expect("located");
            let tag = kernel.loc_str(inst.loc);
            if tag.is_empty() {
                format!("{}:{}", kernel.name, id)
            } else {
                format!("{}:{} @{}", kernel.name, id, tag)
            }
        }
        None => format!("{}:{} (terminator or deleted)", kernel.name, id),
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
    //! The per-op lane loops of [`scalar_lanes`] against the reference
    //! they replaced: [`eval_pure`] evaluated lane by lane in ascending
    //! order, stopping at the first fault. Every scalar op runs over
    //! every operand shape (registers, each immediate kind, specials,
    //! parameters — well- and ill-typed), several destinations and
    //! four masks; the register files must match bit for bit and the
    //! first error must be the same.

    use super::*;
    use gevo_ir::Special;

    const LANES: u32 = 8;
    /// Register-file base of the destination register (reg 10).
    const DST: u32 = 10 * LANES;

    /// A register file whose values hit the ops' edge cases lane by
    /// lane: division and remainder by 0, `MIN / -1`, shift counts at
    /// and beyond the width, NaN, infinities and out-of-range casts.
    fn register_file() -> Vec<Value> {
        let nan = f32::NAN;
        let inf = f32::INFINITY;
        let mut regs = Vec::new();
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
        regs.extend(i32s.iter().flatten().map(|&v| Value::I32(v))); // r0, r1
        regs.extend(i64s.iter().flatten().map(|&v| Value::I64(v))); // r2, r3
        regs.extend(f32s.iter().flatten().map(|&v| Value::F32(v))); // r4, r5
        regs.extend(bools.iter().flatten().map(|&v| Value::Bool(v))); // r6, r7
                                                                      // r8: hand-built lane-dependent type mismatch — lanes 0..4 hold
                                                                      // `i32`, lanes 4..8 `f32`, so a fault strikes mid-loop after the
                                                                      // lower lanes have written their results.
        regs.extend((0..8).map(|l| {
            if l < 4 {
                Value::I32(l)
            } else {
                Value::F32(0.25)
            }
        }));
        // r9: `i64` lanes 0..4, `bool` lanes 4..8.
        regs.extend((0..8).map(|l| {
            if l < 4 {
                Value::I64(i64::from(l) - 2)
            } else {
                Value::Bool(l % 2 == 0)
            }
        }));
        // r10: destination, poisoned.
        regs.extend((0..8).map(|_| Value::sentinel(Ty::I32)));
        regs
    }

    /// Every operand shape the lowering produces, of every type.
    fn slot_pool() -> Vec<Slot> {
        let mut pool: Vec<Slot> = (0..10).map(|r| Slot::Reg(r * LANES)).collect();
        pool.extend([
            Slot::ImmI32(0),
            Slot::ImmI32(-1),
            Slot::ImmI32(i32::MIN),
            Slot::ImmI32(40),
            Slot::ImmI64(-1),
            Slot::ImmI64(0),
            Slot::ImmF32(f32::NAN),
            Slot::ImmF32(-2.5),
            Slot::ImmBool(true),
            Slot::ImmBool(false),
            Slot::Special(Special::ThreadId),
            Slot::Special(Special::LaneId),
            Slot::Special(Special::BlockId),
            Slot::Param(0),
            Slot::Param(1),
            Slot::Param(2),
            Slot::Param(3),
        ]);
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

    /// The replaced per-lane path: `eval_pure` once per active lane.
    fn reference(
        inst: &CInst,
        regs: &mut [Value],
        ctx: &LaneCtx,
        widx: u32,
        active: u64,
    ) -> Result<(), ExecError> {
        let mut mask = active;
        while mask != 0 {
            let lane = mask.trailing_zeros();
            mask &= mask - 1;
            let v = eval_pure(inst.op, |i| {
                read_operand(regs, ctx, widx, lane, &inst.args[i])
            })?;
            if inst.dst != NO_DST {
                regs[inst.dst as usize + lane as usize] = v;
            }
        }
        Ok(())
    }

    /// A value's type and raw bits: `f32` compares by `to_bits`, so a
    /// NaN equals itself and `-0.0` differs from `0.0`.
    fn bits(v: Value) -> (Ty, u64) {
        #[allow(clippy::cast_sign_loss)]
        match v {
            Value::I32(x) => (Ty::I32, u64::from(x as u32)),
            Value::I64(x) => (Ty::I64, x as u64),
            Value::F32(x) => (Ty::F32, u64::from(x.to_bits())),
            Value::Bool(x) => (Ty::Bool, u64::from(x)),
        }
    }

    #[test]
    fn lane_loops_match_per_lane_eval_pure() {
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
            block: 16,
            lanes: LANES,
        };
        let widx = 1;
        let base = register_file();
        let pool = slot_pool();
        // Full, partial, single-lane and empty masks.
        let masks = [0xFF, 0b1011_0110, 1 << 5, 0];
        let (mut cases, mut faults) = (0usize, 0usize);
        for op in scalar_ops() {
            let arity = op.arity();
            let n = pool.len().pow(u32::try_from(arity).expect("arity"));
            for pick in 0..n {
                let mut args = [Slot::ImmI32(0); 3];
                let mut rest = pick;
                for arg in args.iter_mut().take(arity) {
                    *arg = pool[rest % pool.len()];
                    rest /= pool.len();
                }
                // A fresh destination, none, and one aliasing operand 0.
                for dst in [DST, NO_DST, 0] {
                    let inst = CInst {
                        op,
                        tag: OpClass::Scalar,
                        dst,
                        args,
                        cost: 1,
                    };
                    for active in masks {
                        let mut want = base.clone();
                        let mut got = base.clone();
                        let want_res = reference(&inst, &mut want, &ctx, widx, active);
                        let got_res = scalar_lanes(&inst, &mut got, &ctx, widx, active);
                        assert_eq!(
                            got_res, want_res,
                            "{op:?} {args:?} dst {dst} mask {active:#x}: first error"
                        );
                        let want_bits: Vec<_> = want.iter().map(|&v| bits(v)).collect();
                        let got_bits: Vec<_> = got.iter().map(|&v| bits(v)).collect();
                        assert_eq!(
                            got_bits, want_bits,
                            "{op:?} {args:?} dst {dst} mask {active:#x}: register file"
                        );
                        cases += 1;
                        faults += usize::from(want_res.is_err());
                    }
                }
            }
        }
        // Both outcomes were exercised in bulk.
        assert!(
            faults > 1000 && cases - faults > 1000,
            "{faults} of {cases} faulted"
        );
    }

    /// [`broadcast`] against the set-bit walk it shortcuts: full,
    /// partial-warp prefix, non-contiguous, single-high-lane and empty
    /// masks write bit-identical register files.
    #[test]
    fn broadcast_matches_the_set_bit_walk() {
        let base = register_file();
        let masks: [u64; 5] = [0xFF, 0b0000_0111, 0b1011_0110, 1 << (LANES - 1), 0];
        let values = [
            Value::I32(-3),
            Value::I64(i64::MIN),
            Value::F32(f32::NAN),
            Value::F32(-0.0),
            Value::Bool(true),
        ];
        for dst in [DST, 0, 4 * LANES] {
            for active in masks {
                for v in values {
                    let mut want = base.clone();
                    let mut mask = active;
                    while mask != 0 {
                        let lane = mask.trailing_zeros();
                        mask &= mask - 1;
                        want[dst as usize + lane as usize] = v;
                    }
                    let mut got = base.clone();
                    broadcast(&mut got, dst, active, v);
                    let want_bits: Vec<_> = want.iter().map(|&v| bits(v)).collect();
                    let got_bits: Vec<_> = got.iter().map(|&v| bits(v)).collect();
                    assert_eq!(got_bits, want_bits, "{v:?} to {dst} under {active:#x}");
                }
            }
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
