//! Behavioural tests of the SIMT executor: correctness of results,
//! divergence mechanics, memory semantics and the shape of the timing
//! model (the properties the paper's analysis relies on).

use gevo_gpu::{ExecError, Gpu, GpuSpec, KernelArg, LaunchConfig, LaunchStats};
use gevo_ir::{AddrSpace, CmpPred, IntBinOp, Kernel, KernelBuilder, MemTy, Operand, Special, Ty};

fn p100() -> GpuSpec {
    GpuSpec::p100()
}

fn run(
    kernel: &Kernel,
    grid: u32,
    block: u32,
    out_words: u64,
    init: &[i32],
) -> (Vec<i32>, LaunchStats) {
    let mut gpu = Gpu::new(p100());
    let buf = gpu.mem_mut().alloc(out_words * 4).expect("alloc");
    gpu.mem_mut().write_i32s(buf, 0, init);
    let stats = gpu
        .launch(kernel, LaunchConfig::new(grid, block), &[buf.into()])
        .expect("launch");
    let out = gpu.mem().read_i32s(buf, 0, out_words as usize);
    (out, stats)
}

/// out[gtid] = gtid * 2 across several blocks, including a partial warp.
#[test]
fn map_kernel_multi_block_partial_warp() {
    let mut b = KernelBuilder::new("map");
    let out = b.param_ptr("out", AddrSpace::Global);
    let n = b.param_i32("n");
    let gtid = b.global_thread_id();
    let ok = b.icmp_lt(gtid.into(), Operand::Param(n));
    let body = b.new_block("body");
    let exit = b.new_block("exit");
    b.cond_br(ok.into(), body, exit);
    b.switch_to(body);
    let v = b.mul(gtid.into(), Operand::ImmI32(2));
    let addr = b.index_addr(Operand::Param(out), gtid.into(), 4);
    b.store_global_i32(addr.into(), v.into());
    b.br(exit);
    b.switch_to(exit);
    b.ret();
    let k = b.finish();

    let n = 100u32; // 2 blocks of 72 = 144 threads, 100 live
    let mut gpu = Gpu::new(p100());
    let buf = gpu.mem_mut().alloc(u64::from(n) * 4).unwrap();
    let stats = gpu
        .launch(
            &k,
            LaunchConfig::new(2, 72),
            &[buf.into(), KernelArg::I32(n as i32)],
        )
        .unwrap();
    let out = gpu.mem().read_i32s(buf, 0, n as usize);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, (i as i32) * 2, "element {i}");
    }
    assert_eq!(stats.blocks, 2);
    assert_eq!(stats.warps_per_block, 3); // ceil(72/32)
    assert!(stats.instructions > 0);
}

/// Per-thread loop: out[tid] = sum(0..=tid).
#[test]
fn loop_kernel_accumulates() {
    let mut b = KernelBuilder::new("sum");
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let acc = b.mov(Operand::ImmI32(0));
    let i = b.mov(Operand::ImmI32(0));
    let hdr = b.new_block("hdr");
    let body = b.new_block("body");
    let exit = b.new_block("exit");
    b.br(hdr);
    b.switch_to(hdr);
    let c = b.icmp(CmpPred::Le, i.into(), tid.into());
    b.cond_br(c.into(), body, exit);
    b.switch_to(body);
    b.ibin_to(acc, IntBinOp::Add, acc.into(), i.into());
    b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
    b.br(hdr);
    b.switch_to(exit);
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), acc.into());
    b.ret();
    let k = b.finish();

    let (out, stats) = run(&k, 1, 32, 32, &[]);
    for (t, v) in out.iter().enumerate() {
        let expect: i32 = (0..=t as i32).sum();
        assert_eq!(*v, expect, "thread {t}");
    }
    // Threads exit the loop at different trips: the header branch diverges.
    assert!(stats.divergent_branches > 0);
}

/// Divergent if/else: both sides execute, results per-lane correct.
#[test]
fn divergent_branch_results() {
    let mut b = KernelBuilder::new("div");
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let half = b.icmp_lt(tid.into(), Operand::ImmI32(16));
    let t = b.new_block("then");
    let e = b.new_block("else");
    let j = b.new_block("join");
    let r = b.fresh_reg(Ty::I32);
    b.cond_br(half.into(), t, e);
    b.switch_to(t);
    b.mov_to(r, Operand::ImmI32(111));
    b.br(j);
    b.switch_to(e);
    b.mov_to(r, Operand::ImmI32(222));
    b.br(j);
    b.switch_to(j);
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), r.into());
    b.ret();
    let k = b.finish();

    let (out, stats) = run(&k, 1, 32, 32, &[]);
    for (t, &v) in out.iter().enumerate() {
        assert_eq!(v, if t < 16 { 111 } else { 222 }, "lane {t}");
    }
    assert_eq!(stats.divergent_branches, 1);
}

/// Cross-warp shared-memory exchange through a barrier.
#[test]
fn shared_exchange_across_warps() {
    let mut b = KernelBuilder::new("xchg");
    b.shared_bytes(64 * 4);
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let shaddr = b.index_addr(Operand::ImmI64(0), tid.into(), 4);
    b.store_shared_i32(shaddr.into(), tid.into());
    b.sync_threads();
    // Read the slot 32 positions away (the other warp's value).
    let partner = b.ibin(IntBinOp::Xor, tid.into(), Operand::ImmI32(32));
    let paddr = b.index_addr(Operand::ImmI64(0), partner.into(), 4);
    let v = b.load_shared_i32(paddr.into());
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), v.into());
    b.ret();
    let k = b.finish();

    let (out, stats) = run(&k, 1, 64, 64, &[]);
    for (t, &v) in out.iter().enumerate() {
        assert_eq!(v, (t as i32) ^ 32, "thread {t}");
    }
    assert_eq!(stats.barriers, 1);
}

/// shfl_up moves values down the warp; lane 0 keeps its own.
#[test]
fn shfl_up_semantics() {
    let mut b = KernelBuilder::new("shfl");
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let v = b.mul(tid.into(), Operand::ImmI32(10));
    let up = b.shfl_up(v.into(), Operand::ImmI32(1));
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), up.into());
    b.ret();
    let k = b.finish();

    let (out, stats) = run(&k, 1, 32, 32, &[]);
    assert_eq!(out[0], 0, "lane 0 keeps own value");
    for (t, &v) in out.iter().enumerate().skip(1) {
        assert_eq!(v, ((t - 1) as i32) * 10, "lane {t}");
    }
    assert_eq!(stats.shfls, 1);
}

/// ballot_sync returns the mask of lanes with a true predicate.
#[test]
fn ballot_mask() {
    let mut b = KernelBuilder::new("ballot");
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let lane = b.special_i32(Special::LaneId);
    let even = b.ibin(IntBinOp::And, lane.into(), Operand::ImmI32(1));
    let pred = b.icmp_eq(even.into(), Operand::ImmI32(0));
    let mask = b.ballot(pred.into());
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), mask.into());
    b.ret();
    let k = b.finish();

    let (out, stats) = run(&k, 1, 32, 32, &[]);
    for (t, &v) in out.iter().enumerate() {
        assert_eq!(v, 0x5555_5555, "lane {t}");
    }
    assert_eq!(stats.ballots, 1);
}

/// A barrier inside a divergent branch is an error, not UB.
#[test]
fn barrier_in_divergence_faults() {
    let mut b = KernelBuilder::new("badbar");
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let c = b.icmp_lt(tid.into(), Operand::ImmI32(7));
    let t = b.new_block("then");
    let j = b.new_block("join");
    b.cond_br(c.into(), t, j);
    b.switch_to(t);
    b.sync_threads();
    b.br(j);
    b.switch_to(j);
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), tid.into());
    b.ret();
    let k = b.finish();

    let mut gpu = Gpu::new(p100());
    let buf = gpu.mem_mut().alloc(32 * 4).unwrap();
    let err = gpu
        .launch(&k, LaunchConfig::new(1, 32), &[buf.into()])
        .unwrap_err();
    assert_eq!(err, ExecError::BarrierDivergence);
}

/// Out-of-arena accesses fault; in-arena out-of-buffer reads return zero.
#[test]
fn global_fault_and_arena_slack() {
    let mut b = KernelBuilder::new("peek");
    let out = b.param_ptr("out", AddrSpace::Global);
    let off = b.param_i64("off");
    let v = b.load(AddrSpace::Global, MemTy::I32, Operand::Param(off));
    let tid = b.special_i32(Special::ThreadId);
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), v.into());
    b.ret();
    let k = b.finish();

    let mut gpu = Gpu::new(p100());
    let buf = gpu.mem_mut().alloc(4 * 4).unwrap();
    // Read way past the buffer but inside the arena: zeros.
    let slack_addr = buf.base() + 4096;
    let stats = gpu.launch(
        &k,
        LaunchConfig::new(1, 1),
        &[buf.into(), KernelArg::I64(slack_addr)],
    );
    assert!(stats.is_ok());
    assert_eq!(gpu.mem().read_i32s(buf, 0, 1), vec![0]);

    // Read beyond the arena: fault.
    let oob = i64::try_from(gpu.spec().device_mem_bytes).unwrap();
    let err = gpu
        .launch(
            &k,
            LaunchConfig::new(1, 1),
            &[buf.into(), KernelArg::I64(oob)],
        )
        .unwrap_err();
    assert!(matches!(err, ExecError::GlobalFault { .. }), "{err}");
}

/// Mutation-induced infinite loops hit the step limit, not a hang.
#[test]
fn infinite_loop_hits_step_limit() {
    let mut b = KernelBuilder::new("spin");
    let _out = b.param_ptr("out", AddrSpace::Global);
    let x = b.mov(Operand::ImmI32(0));
    let looph = b.new_block("loop");
    b.br(looph);
    b.switch_to(looph);
    b.ibin_to(x, IntBinOp::Add, x.into(), Operand::ImmI32(1));
    b.br(looph);
    let k = b.finish();

    let mut spec = p100();
    spec.step_limit = 10_000;
    let mut gpu = Gpu::new(spec);
    let buf = gpu.mem_mut().alloc(64).unwrap();
    let err = gpu
        .launch(&k, LaunchConfig::new(1, 32), &[buf.into()])
        .unwrap_err();
    assert_eq!(err, ExecError::StepLimit);
}

/// A loop of `(blockIdx + 1) * 16` trips, so each block executes more
/// warp-steps than the one before it.
fn block_scaled_loop() -> Kernel {
    let mut b = KernelBuilder::new("ramp");
    let _out = b.param_ptr("out", AddrSpace::Global);
    let bid = b.special_i32(Special::BlockId);
    let bid1 = b.add(bid.into(), Operand::ImmI32(1));
    let trips = b.mul(bid1.into(), Operand::ImmI32(16));
    let i = b.mov(Operand::ImmI32(0));
    let hdr = b.new_block("hdr");
    let body = b.new_block("body");
    let exit = b.new_block("exit");
    b.br(hdr);
    b.switch_to(hdr);
    let more = b.icmp_lt(i.into(), trips.into());
    b.cond_br(more.into(), body, exit);
    b.switch_to(body);
    b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
    b.br(hdr);
    b.switch_to(exit);
    b.ret();
    b.finish()
}

/// `peak_block_steps` reports the largest block's step count across
/// every launch on the device, and that count is exactly what
/// `step_limit` bounds.
#[test]
fn peak_block_steps_tracks_the_largest_block() {
    let k = block_scaled_loop();
    let peak_of = |spec: GpuSpec, grid: u32| -> Result<u64, ExecError> {
        let mut gpu = Gpu::new(spec);
        let buf = gpu.mem_mut().alloc(64).unwrap();
        gpu.launch(&k, LaunchConfig::new(grid, 32), &[buf.into()])?;
        Ok(gpu.peak_block_steps())
    };
    assert_eq!(Gpu::new(p100()).peak_block_steps(), 0);
    // With one block per launch the last block is the largest, so the
    // peak grows by the same per-block increment with every extra block.
    let peaks: Vec<u64> = (1..=4).map(|g| peak_of(p100(), g).unwrap()).collect();
    let step = peaks[1] - peaks[0];
    assert!(step > 0, "{peaks:?}");
    for w in peaks.windows(2) {
        assert_eq!(
            w[1] - w[0],
            step,
            "one extra block, one more ramp: {peaks:?}"
        );
    }

    // The peak is a maximum across launches, not the last launch's.
    let mut gpu = Gpu::new(p100());
    let buf = gpu.mem_mut().alloc(64).unwrap();
    gpu.launch(&k, LaunchConfig::new(4, 32), &[buf.into()])
        .unwrap();
    gpu.launch(&k, LaunchConfig::new(1, 32), &[buf.into()])
        .unwrap();
    assert_eq!(gpu.peak_block_steps(), peaks[3]);

    // `step_limit` bounds exactly that count: the largest block fits a
    // limit equal to its steps and is killed one step short.
    let mut spec = p100();
    spec.step_limit = peaks[3];
    assert_eq!(peak_of(spec.clone(), 4), Ok(peaks[3]));
    spec.step_limit = peaks[3] - 1;
    assert_eq!(peak_of(spec.clone(), 4), Err(ExecError::StepLimit));
    assert_eq!(peak_of(spec, 3), Ok(peaks[2]), "smaller grids still fit");
}

/// Atomics across warps and blocks serialize correctly.
#[test]
fn atomic_add_counts_threads() {
    let mut b = KernelBuilder::new("count");
    let out = b.param_ptr("out", AddrSpace::Global);
    let _ = b.atomic_add(AddrSpace::Global, Operand::Param(out), Operand::ImmI32(1));
    b.ret();
    let k = b.finish();

    let (out, stats) = run(&k, 4, 48, 1, &[0]);
    assert_eq!(out[0], 4 * 48);
    assert_eq!(stats.atomics, 4 * 48);
}

/// Atomic CAS: exactly one thread claims the slot.
#[test]
fn atomic_cas_single_winner() {
    let mut b = KernelBuilder::new("claim");
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let plus1 = b.add(tid.into(), Operand::ImmI32(1));
    let old = b.atomic_cas(
        AddrSpace::Global,
        Operand::Param(out),
        Operand::ImmI32(0),
        plus1.into(),
    );
    // winners[tid] = old value seen.
    let waddr_base = b.add_i64(Operand::Param(out), Operand::ImmI64(4));
    let waddr = b.index_addr(waddr_base.into(), tid.into(), 4);
    b.store_global_i32(waddr.into(), old.into());
    b.ret();
    let k = b.finish();

    let (out, _) = run(&k, 1, 32, 33, &[]);
    let claimed = out[0];
    assert!((1..=32).contains(&claimed), "some thread won: {claimed}");
    let winners = out[1..].iter().filter(|&&seen| seen == 0).count();
    assert_eq!(winners, 1, "exactly one CAS sees the initial value");
}

/// Reading a register before writing it yields the deterministic sentinel.
#[test]
fn uninitialized_register_is_sentinel() {
    let mut b = KernelBuilder::new("uninit");
    let out = b.param_ptr("out", AddrSpace::Global);
    let junk = b.fresh_reg(Ty::I32);
    let tid = b.special_i32(Special::ThreadId);
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), junk.into());
    b.ret();
    let k = b.finish();

    let (out, _) = run(&k, 1, 4, 4, &[]);
    for v in out {
        assert_eq!(v, i32::from_le_bytes([0xDB; 4]));
    }
}

/// Shared memory starts as sentinel garbage, not zeros.
#[test]
fn shared_memory_initial_garbage() {
    let mut b = KernelBuilder::new("shpeek");
    b.shared_bytes(256);
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let shaddr = b.index_addr(Operand::ImmI64(0), tid.into(), 4);
    let v = b.load_shared_i32(shaddr.into());
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), v.into());
    b.ret();
    let k = b.finish();

    let (out, _) = run(&k, 1, 8, 8, &[]);
    for v in out {
        assert_eq!(v, i32::from_le_bytes([0xDB; 4]));
    }
}

/// rng.next matches the shared host-side mixer exactly.
#[test]
fn rng_next_matches_host_mixer() {
    let mut b = KernelBuilder::new("rng");
    let out = b.param_ptr("out", AddrSpace::Global);
    let seed = b.param_i64("seed");
    let tid = b.special_i32(Special::ThreadId);
    let ctr = b.sext(tid.into());
    let r = b.rng_next(Operand::Param(seed), ctr.into());
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), r.into());
    b.ret();
    let k = b.finish();

    let mut gpu = Gpu::new(p100());
    let buf = gpu.mem_mut().alloc(32 * 4).unwrap();
    gpu.launch(
        &k,
        LaunchConfig::new(1, 32),
        &[buf.into(), KernelArg::I64(987)],
    )
    .unwrap();
    let out = gpu.mem().read_i32s(buf, 0, 32);
    for (t, v) in out.iter().enumerate() {
        assert_eq!(*v, gevo_ir::rng::mix_to_u31(987, t as i64));
    }
}

/// Determinism: identical launches produce identical cycles and results.
#[test]
fn launches_are_deterministic() {
    let mut b = KernelBuilder::new("det");
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let v = b.mul(tid.into(), tid.into());
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), v.into());
    b.ret();
    let k = b.finish();

    let run_once = || {
        let mut gpu = Gpu::new(p100());
        let buf = gpu.mem_mut().alloc(64 * 4).unwrap();
        let stats = gpu
            .launch(&k, LaunchConfig::new(2, 32), &[buf.into()])
            .unwrap();
        (gpu.mem().read_i32s(buf, 0, 64), stats.cycles)
    };
    let (o1, c1) = run_once();
    let (o2, c2) = run_once();
    assert_eq!(o1, o2);
    assert_eq!(c1, c2);
}

/// Scheduler seed permutes warp order without changing race-free results.
#[test]
fn sched_seed_invariant_for_race_free_kernels() {
    let mut b = KernelBuilder::new("seeded");
    b.shared_bytes(64 * 4);
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let shaddr = b.index_addr(Operand::ImmI64(0), tid.into(), 4);
    b.store_shared_i32(shaddr.into(), tid.into());
    b.sync_threads();
    let v = b.load_shared_i32(shaddr.into());
    let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(addr.into(), v.into());
    b.ret();
    let k = b.finish();

    let run_seed = |seed: u64| {
        let mut gpu = Gpu::new(p100());
        let buf = gpu.mem_mut().alloc(64 * 4).unwrap();
        gpu.launch(&k, LaunchConfig::new(1, 64).with_seed(seed), &[buf.into()])
            .unwrap();
        gpu.mem().read_i32s(buf, 0, 64)
    };
    assert_eq!(run_seed(0), run_seed(12345));
}

// ---- timing-shape tests: the relative costs the paper's findings need ----

fn shared_store_kernel(stride_words: i32) -> Kernel {
    let mut b = KernelBuilder::new("sh_stride");
    b.shared_bytes(8 * 1024);
    let out = b.param_ptr("out", AddrSpace::Global);
    let lane = b.special_i32(Special::LaneId);
    let word = b.mul(lane.into(), Operand::ImmI32(stride_words));
    let addr = b.index_addr(Operand::ImmI64(0), word.into(), 4);
    // Repeat the store in a short loop to dominate fixed costs.
    let i = b.mov(Operand::ImmI32(0));
    let hdr = b.new_block("hdr");
    let body = b.new_block("body");
    let exit = b.new_block("exit");
    b.br(hdr);
    b.switch_to(hdr);
    let c = b.icmp_lt(i.into(), Operand::ImmI32(64));
    b.cond_br(c.into(), body, exit);
    b.switch_to(body);
    b.store_shared_i32(addr.into(), i.into());
    b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
    b.br(hdr);
    b.switch_to(exit);
    let tid = b.special_i32(Special::ThreadId);
    let gaddr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(gaddr.into(), i.into());
    b.ret();
    b.finish()
}

/// 32-way bank conflicts are much slower than conflict-free accesses.
#[test]
fn bank_conflicts_serialize() {
    let free = shared_store_kernel(1); // word = lane → distinct banks
    let conflicted = shared_store_kernel(32); // word = 32*lane → same bank
    let (_, s_free) = run(&free, 1, 32, 32, &[]);
    let (_, s_conf) = run(&conflicted, 1, 32, 32, &[]);
    assert!(s_conf.shared_conflicts > s_free.shared_conflicts);
    assert!(
        s_conf.cycles > s_free.cycles * 2,
        "conflicted {} vs free {}",
        s_conf.cycles,
        s_free.cycles
    );
}

fn global_access_kernel(stride_words: i32, reps: i32) -> Kernel {
    let mut b = KernelBuilder::new("gl_stride");
    let data = b.param_ptr("data", AddrSpace::Global);
    let out = b.param_ptr("out", AddrSpace::Global);
    let tid = b.special_i32(Special::ThreadId);
    let idx = b.mul(tid.into(), Operand::ImmI32(stride_words));
    let addr = b.index_addr(Operand::Param(data), idx.into(), 4);
    let acc = b.mov(Operand::ImmI32(0));
    let i = b.mov(Operand::ImmI32(0));
    let hdr = b.new_block("hdr");
    let body = b.new_block("body");
    let exit = b.new_block("exit");
    b.br(hdr);
    b.switch_to(hdr);
    let c = b.icmp_lt(i.into(), Operand::ImmI32(reps));
    b.cond_br(c.into(), body, exit);
    b.switch_to(body);
    let v = b.load_global_i32(addr.into());
    b.ibin_to(acc, IntBinOp::Add, acc.into(), v.into());
    b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
    b.br(hdr);
    b.switch_to(exit);
    let oaddr = b.index_addr(Operand::Param(out), tid.into(), 4);
    b.store_global_i32(oaddr.into(), acc.into());
    b.ret();
    b.finish()
}

/// Strided (uncoalesced) global access costs more segments and cycles.
#[test]
fn coalescing_matters() {
    let coalesced = global_access_kernel(1, 16);
    let strided = global_access_kernel(64, 16);
    let mut gpu = Gpu::new(p100());
    let data = gpu.mem_mut().alloc(32 * 64 * 4).unwrap();
    let out = gpu.mem_mut().alloc(32 * 4).unwrap();
    let s_c = gpu
        .launch(
            &coalesced,
            LaunchConfig::new(1, 32),
            &[data.into(), out.into()],
        )
        .unwrap();
    let s_s = gpu
        .launch(
            &strided,
            LaunchConfig::new(1, 32),
            &[data.into(), out.into()],
        )
        .unwrap();
    assert!(s_s.global_segments > s_c.global_segments * 8);
    assert!(
        s_s.cycles > s_c.cycles,
        "strided {} vs coalesced {}",
        s_s.cycles,
        s_c.cycles
    );
}

/// Divergent execution costs roughly the sum of both paths.
#[test]
fn divergence_serializes_paths() {
    // Uniform: every lane does the heavy loop once.
    let heavy = |b: &mut KernelBuilder, reps: i32| {
        let x = b.mov(Operand::ImmI32(1));
        let i = b.mov(Operand::ImmI32(0));
        let hdr = b.new_block("h");
        let body = b.new_block("b");
        let exit = b.new_block("e");
        b.br(hdr);
        b.switch_to(hdr);
        let c = b.icmp_lt(i.into(), Operand::ImmI32(reps));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        b.ibin_to(x, IntBinOp::Mul, x.into(), Operand::ImmI32(3));
        b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
        b.br(hdr);
        b.switch_to(exit);
        x
    };

    let uniform = {
        let mut b = KernelBuilder::new("uni");
        let out = b.param_ptr("out", AddrSpace::Global);
        let x = heavy(&mut b, 1000);
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), x.into());
        b.ret();
        b.finish()
    };

    let divergent = {
        let mut b = KernelBuilder::new("div");
        let out = b.param_ptr("out", AddrSpace::Global);
        let lane = b.special_i32(Special::LaneId);
        let c = b.icmp_lt(lane.into(), Operand::ImmI32(16));
        let t = b.new_block("t");
        let e = b.new_block("e");
        let j = b.new_block("j");
        let r = b.fresh_reg(Ty::I32);
        b.cond_br(c.into(), t, e);
        b.switch_to(t);
        let x1 = heavy(&mut b, 1000);
        b.mov_to(r, x1.into());
        b.br(j);
        b.switch_to(e);
        let x2 = heavy(&mut b, 1000);
        b.mov_to(r, x2.into());
        b.br(j);
        b.switch_to(j);
        let tid = b.special_i32(Special::ThreadId);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), r.into());
        b.ret();
        b.finish()
    };

    let (_, s_u) = run(&uniform, 1, 32, 32, &[]);
    let (_, s_d) = run(&divergent, 1, 32, 32, &[]);
    // Both halves run the same heavy loop; divergence must roughly double it.
    assert!(
        s_d.cycles > s_u.cycles * 3 / 2,
        "divergent {} vs uniform {}",
        s_d.cycles,
        s_u.cycles
    );
}

/// ballot_sync is near-free on Pascal, expensive on Volta (paper §VI-B).
#[test]
fn ballot_cost_depends_on_architecture() {
    let with_ballot = |n: i32| {
        let mut b = KernelBuilder::new("bal");
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let i = b.mov(Operand::ImmI32(0));
        let acc = b.mov(Operand::ImmI32(0));
        let hdr = b.new_block("h");
        let body = b.new_block("b");
        let exit = b.new_block("e");
        b.br(hdr);
        b.switch_to(hdr);
        let c = b.icmp_lt(i.into(), Operand::ImmI32(n));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let p = b.icmp_ge(tid.into(), Operand::ImmI32(0));
        let m = b.ballot(p.into());
        b.ibin_to(acc, IntBinOp::Add, acc.into(), m.into());
        b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
        b.br(hdr);
        b.switch_to(exit);
        let addr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(addr.into(), acc.into());
        b.ret();
        b.finish()
    };
    let k_many = with_ballot(200);
    let k_none = with_ballot(0);

    let measure = |spec: GpuSpec, k: &Kernel| {
        let mut gpu = Gpu::new(spec);
        let buf = gpu.mem_mut().alloc(32 * 4).unwrap();
        gpu.launch(k, LaunchConfig::new(1, 32), &[buf.into()])
            .unwrap()
            .cycles
    };
    let pascal_delta = measure(GpuSpec::p100(), &k_many) - measure(GpuSpec::p100(), &k_none);
    let volta_delta = measure(GpuSpec::v100(), &k_many) - measure(GpuSpec::v100(), &k_none);
    assert!(
        volta_delta > pascal_delta * 2,
        "volta ballot delta {volta_delta} vs pascal {pascal_delta}"
    );
}

/// Launch validation rejects bad geometry and mismatched arguments.
#[test]
fn launch_validation() {
    let mut b = KernelBuilder::new("v");
    let _p = b.param_i32("x");
    b.ret();
    let k = b.finish();

    let mut gpu = Gpu::new(p100());
    // zero block
    assert!(matches!(
        gpu.launch(&k, LaunchConfig::new(1, 0), &[KernelArg::I32(1)]),
        Err(ExecError::BadLaunch(_))
    ));
    // too many threads
    assert!(matches!(
        gpu.launch(&k, LaunchConfig::new(1, 4096), &[KernelArg::I32(1)]),
        Err(ExecError::BadLaunch(_))
    ));
    // wrong arg count
    assert!(matches!(
        gpu.launch(&k, LaunchConfig::new(1, 32), &[]),
        Err(ExecError::BadLaunch(_))
    ));
    // wrong arg type
    assert!(matches!(
        gpu.launch(&k, LaunchConfig::new(1, 32), &[KernelArg::F32(0.5)]),
        Err(ExecError::BadLaunch(_))
    ));
    // good launch
    assert!(gpu
        .launch(&k, LaunchConfig::new(1, 32), &[KernelArg::I32(1)])
        .is_ok());
}

/// The redundant-write row-buffer effect (§VI-E): a dead store that opens
/// the DRAM row for a subsequent access makes the access cheaper.
#[test]
fn row_buffer_prefetch_effect() {
    // Kernel A: load from `far` (different row each iteration ⇒ row miss).
    // Kernel B: dead-store to the same row first, then the load row-hits.
    let build = |with_dead_store: bool| {
        let mut b = KernelBuilder::new("row");
        let data = b.param_ptr("data", AddrSpace::Global);
        let out = b.param_ptr("out", AddrSpace::Global);
        let tid = b.special_i32(Special::ThreadId);
        let acc = b.mov(Operand::ImmI32(0));
        let i = b.mov(Operand::ImmI32(0));
        let hdr = b.new_block("h");
        let body = b.new_block("b");
        let exit = b.new_block("e");
        b.br(hdr);
        b.switch_to(hdr);
        let c = b.icmp_lt(i.into(), Operand::ImmI32(32));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        // Alternate between two rows so the open row never matches by
        // accident: target = data + i*row_bytes.
        let row = b.mul(i.into(), Operand::ImmI32(2048));
        let addr = b.index_addr(Operand::Param(data), row.into(), 1);
        if with_dead_store {
            // Dead store to addr+128: same row, never read again.
            let dead = b.add_i64(addr.into(), Operand::ImmI64(128));
            b.store_global_i32(dead.into(), Operand::ImmI32(0));
        }
        let v = b.load_global_i32(addr.into());
        b.ibin_to(acc, IntBinOp::Add, acc.into(), v.into());
        b.ibin_to(i, IntBinOp::Add, i.into(), Operand::ImmI32(1));
        b.br(hdr);
        b.switch_to(exit);
        let oaddr = b.index_addr(Operand::Param(out), tid.into(), 4);
        b.store_global_i32(oaddr.into(), acc.into());
        b.ret();
        b.finish()
    };
    let plain = build(false);
    let dead = build(true);
    let mut gpu = Gpu::new(p100());
    let data = gpu.mem_mut().alloc(64 * 2048).unwrap();
    let out = gpu.mem_mut().alloc(4).unwrap();
    let s_plain = gpu
        .launch(&plain, LaunchConfig::new(1, 1), &[data.into(), out.into()])
        .unwrap();
    let s_dead = gpu
        .launch(&dead, LaunchConfig::new(1, 1), &[data.into(), out.into()])
        .unwrap();
    assert!(
        s_dead.row_hits > s_plain.row_hits,
        "dead store opens rows: {} vs {}",
        s_dead.row_hits,
        s_plain.row_hits
    );
}
