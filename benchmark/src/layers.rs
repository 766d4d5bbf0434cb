//! Per-layer numbers for the traced run (layer = crate name). Two kinds:
//!
//! * **Counters the program already keeps** (trace rings, `Stats`
//!   histograms, stall counters), read over the workload's timed phase —
//!   `phase_shares`, `extension_gaps`, `fleet_probes`, and the service
//!   deltas in `workloads.rs`.
//! * **Probes**: each layer's public entry points timed in isolation,
//!   at the workload's parameter set, after the workload has been torn
//!   down (`run_probes`). They are the same on every workload that
//!   shares a parameter set, which is the point: a layer metric should
//!   only move when that layer's code does.
//!
//! Every probe reports a median over repetitions, never a best-of.
//! Which end-to-end metric each of these should move, and on which
//! workload it should *not*, is written down in README.md before any
//! optimisation is attempted.

use crate::run::Ctx;
use crate::stats;
use crate::workloads::{engine_for, warm_to_cap};
use ironman_cluster::{ClusterClient, LocalCluster};
use ironman_core::{Backend, CotBatch, CotSlice, Engine, SharedCotPool};
use ironman_ggm::{GgmTree, PuncturedTree};
use ironman_lpn::{simd, LpnMatrix, PackedBits, SimdLevel};
use ironman_net::proto::{decode_response_into, encode_cot_chunk_into, encode_cot_chunk_split};
use ironman_net::{frame, tcp_loopback_pair, CotClient, CotService, UnixTransport};
use ironman_nmp::{NmpConfig, OteSimulator};
use ironman_ot::channel::run_protocol;
use ironman_ot::ferret::{run_extensions_over, FerretConfig, LpnKernel};
use ironman_ot::spcot::SpcotConfig;
use ironman_ot::spcot_batch::{spcot_batch_recv_into, spcot_batch_send_into};
use ironman_ot::Dealer;
use ironman_perf::CpuModel;
use ironman_prg::tree_prg::build_tree_prg;
use ironman_prg::Block;
use ironman_telemetry::{unpack_phase_split, EventKind, TraceEvent};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of a probe whose single pass takes milliseconds.
const REPS: usize = 5;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `ot.spcot_share` / `ot.lpn_share` / `ot.glue_share`: where the
/// extensions that ran since `since` (on the telemetry clock) spent
/// their wall time, from the sessions' own trace rings.
pub fn phase_shares(ctx: &mut Ctx, dumps: &[Vec<TraceEvent>], since: u64) {
    let (mut wall, mut spcot, mut lpn) = (0u64, 0u64, 0u64);
    for dump in dumps {
        let mut started = None;
        for event in dump {
            match event.kind {
                EventKind::ExtensionStart => started = Some(event.at_nanos),
                EventKind::ExtensionEnd => {
                    if let Some(start) = started.take().filter(|&s| s >= since) {
                        let (s, l) = unpack_phase_split(event.arg);
                        wall += event.at_nanos.saturating_sub(start);
                        spcot += s;
                        lpn += l;
                    }
                }
                _ => {}
            }
        }
    }
    if wall > 0 {
        let (s, l) = (spcot as f64 / wall as f64, lpn as f64 / wall as f64);
        ctx.set_layer("ot.spcot_share", s);
        ctx.set_layer("ot.lpn_share", l);
        ctx.set_layer("ot.glue_share", (1.0 - s - l).max(0.0));
    }
}

/// `ot.extension_p50_ms` / `p75`: the gap between `recv()` returns of a
/// raw session (its request latencies).
pub fn extension_gaps(ctx: &mut Ctx) {
    let ms: Vec<f64> = ctx.request_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let sorted = stats::sorted(&ms);
    ctx.set_layer("ot.extension_p50_ms", stats::percentile(&sorted, 50.0));
    ctx.set_layer("ot.extension_p75_ms", stats::percentile(&sorted, 75.0));
}

/// The layer probes every traced run ends with.
pub fn run_probes(ctx: &mut Ctx, cfg: &FerretConfig) -> Result<(), String> {
    prg_and_ggm(ctx, cfg);
    spcot(ctx, cfg);
    let measured = ferret_over_unix(ctx, cfg)?;
    lpn_kernels(ctx, cfg);
    pool_and_wire(ctx, cfg)?;
    models(ctx, cfg, measured);
    Ok(())
}

/// `prg.chacha8_ns_per_block`, `ggm.expand_ns_per_leaf`,
/// `ggm.reconstruct_ns_per_leaf` at the workload's tree shape.
fn prg_and_ggm(ctx: &mut Ctx, cfg: &FerretConfig) {
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let calls = if ctx.opts.smoke { 1 << 14 } else { 1 << 18 };
    let mut kids = vec![Block::ZERO; prg.blocks_per_call()];
    let mut parent = Block::from(u128::from(ctx.seed_for("prg")));
    let t = Instant::now();
    for _ in 0..calls {
        prg.expand(parent, &mut kids);
        parent = kids[0];
    }
    black_box(parent);
    ctx.set_layer(
        "prg.chacha8_ns_per_block",
        secs(t) * 1e9 / (calls * kids.len()) as f64,
    );

    let leaves = cfg.params.leaves;
    let trees = ((1usize << 18) / leaves).clamp(4, 512);
    let t = Instant::now();
    for i in 0..trees {
        let seed = Block::from(i as u128 + 1);
        black_box(GgmTree::expand(prg.as_ref(), seed, cfg.arity, leaves).leaf_sum());
    }
    ctx.set_layer(
        "ggm.expand_ns_per_leaf",
        secs(t) * 1e9 / (trees * leaves) as f64,
    );

    let tree = GgmTree::expand(prg.as_ref(), Block::from(7u128), cfg.arity, leaves);
    let sums = tree.level_sums();
    let t = Instant::now();
    for i in 0..trees {
        let alpha = (i * 2_654_435_761) % leaves;
        let punctured =
            PuncturedTree::reconstruct(prg.as_ref(), cfg.arity, leaves, alpha, |l, j| sums[l][j]);
        black_box(punctured.known_leaf_sum());
    }
    ctx.set_layer(
        "ggm.reconstruct_ns_per_leaf",
        secs(t) * 1e9 / (trees * leaves) as f64,
    );
}

/// `ot.spcot_ns_per_cot`: one extension's `t` batched SPCOTs, both
/// parties on their own threads over an in-process channel, per usable
/// output COT.
fn spcot(ctx: &mut Ctx, cfg: &FerretConfig) {
    let p = cfg.params;
    let spcot_cfg = SpcotConfig {
        arity: cfg.arity,
        prg: cfg.prg,
        leaves: p.leaves,
        session_key: cfg.session_key,
    };
    let budget = p.t * p.leaves.trailing_zeros() as usize;
    let mut times = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut dealer = Dealer::new(ctx.seed_for("spcot") ^ rep as u64);
        let delta = dealer.random_delta();
        let (mut s_base, mut r_base) = dealer.deal_cot(delta, budget);
        let seeds: Vec<Block> = (0..p.t).map(|_| dealer.random_block()).collect();
        let alphas: Vec<usize> = (0..p.t).map(|_| dealer.random_index(p.leaves)).collect();
        let t = Instant::now();
        let (sent, received, _, _) = run_protocol(
            |ch| {
                let mut acc = Block::ZERO;
                spcot_batch_send_into(
                    ch,
                    &spcot_cfg,
                    &mut s_base,
                    &seeds,
                    &mut 0,
                    |_, leaves, _| {
                        acc ^= leaves[0];
                    },
                )
                .map(|()| acc)
            },
            |ch| {
                let mut acc = Block::ZERO;
                spcot_batch_recv_into(
                    ch,
                    &spcot_cfg,
                    &mut r_base,
                    &alphas,
                    &mut 0,
                    |_, _, leaves, _| acc ^= leaves[0],
                )
                .map(|()| acc)
            },
        );
        times.push(secs(t));
        if sent.is_err() || received.is_err() {
            ctx.check.op_failed();
        }
    }
    ctx.set_layer(
        "ot.spcot_ns_per_cot",
        stats::median(&times) * 1e9 / cfg.usable_outputs() as f64,
    );
}

/// `ot.ferret_unix_cots_per_s` — FERRET over a unix stream with sender
/// and receiver on separate threads, at least `unix_min_cots` COTs: the
/// row comparable with ocelot's published table. The same run yields the
/// protocol's counts: `ot.rounds_per_extension`, `ot.wire_bytes_per_cot`
/// (the PCG sub-byte property) and `prg.calls_per_cot`. Returns the
/// measured rate.
fn ferret_over_unix(ctx: &mut Ctx, cfg: &FerretConfig) -> Result<f64, String> {
    let usable = cfg.usable_outputs() as u64;
    let iterations = ctx.scale.unix_min_cots.div_ceil(usable) as usize;
    let (a, b) = UnixTransport::pair().map_err(|e| format!("unix socket pair: {e}"))?;
    let t = Instant::now();
    let outputs = run_extensions_over(cfg, ctx.seed_for("unix"), iterations, a, b);
    let elapsed = secs(t);
    for o in &outputs {
        let slice = CotSlice {
            delta: o.delta,
            z: &o.z,
            x: &o.x,
            y: &o.y,
        };
        ctx.check.delivery(slice, usable as usize);
    }
    let cots = (iterations as u64 * usable) as f64;
    let rate = cots / elapsed;
    ctx.set_layer("ot.ferret_unix_cots_per_s", rate);
    // Stats and PRG counters are cumulative over the session; the last
    // iteration's copy holds the totals.
    if let Some(last) = outputs.last() {
        let bytes = last.sender_stats.bytes_sent + last.receiver_stats.bytes_sent;
        ctx.set_layer("ot.wire_bytes_per_cot", bytes as f64 / cots);
        ctx.set_layer(
            "ot.rounds_per_extension",
            last.sender_stats.rounds.max(last.receiver_stats.rounds) as f64 / iterations as f64,
        );
        ctx.set_layer(
            "prg.calls_per_cot",
            (last.sender_prg.total() + last.receiver_prg.total()) as f64 / cots,
        );
    }
    Ok(rate)
}

/// `lpn.*`: the encode passes an extension runs with the recommended
/// kernel — the sender's `z = r·A ⊕ w` block pass and the receiver's
/// `x = e·A ⊕ u`, `y = s·A ⊕ v` pair — on a matrix generated from the
/// same seed as the session's (the shared one is not reachable through
/// the public API), per usable output COT.
fn lpn_kernels(ctx: &mut Ctx, cfg: &FerretConfig) {
    let p = cfg.params;
    let level = cfg.simd.resolve();
    ctx.set_layer(
        "lpn.simd_level",
        match level {
            SimdLevel::Scalar => 0.0,
            SimdLevel::Wide => 1.0,
        },
    );
    let matrix = LpnMatrix::generate(p.n, p.k, cfg.row_weight, cfg.lpn_seed);
    let blocks: Vec<Block> = (0..p.k as u128)
        .map(|i| Block::from(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1))
        .collect();
    let bools: Vec<bool> = (0..p.k).map(|i| (i * 7 + i / 11) % 3 == 0).collect();
    let bits = PackedBits::from_bools(&bools);
    let mut acc_blocks = vec![Block::ZERO; p.n];
    let mut acc_bits = PackedBits::zeros(p.n);
    let tiled = cfg.kernel != LpnKernel::Naive;
    if tiled {
        matrix.tile_schedule(); // built offline in a session too
    }

    let (mut sender, mut receiver) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        if tiled {
            simd::encode_blocks_tiled(level, matrix.tile_schedule(), &blocks, &mut acc_blocks);
        } else {
            simd::encode_blocks(level, &matrix, &blocks, &mut acc_blocks);
        }
        sender.push(secs(t));

        let t = Instant::now();
        match (cfg.kernel, level) {
            (LpnKernel::Naive, _) => {
                simd::encode_bits_packed(level, &matrix, &bits, &mut acc_bits);
                simd::encode_blocks(level, &matrix, &blocks, &mut acc_blocks);
            }
            (LpnKernel::Tiled, _) => simd::encode_cot_pair_tiled(
                level,
                matrix.tile_schedule(),
                &blocks,
                &bits,
                &mut acc_blocks,
                &mut acc_bits,
            ),
            (LpnKernel::Split, SimdLevel::Wide) => simd::encode_cot_pair(
                level,
                &matrix,
                &blocks,
                &bits,
                &mut acc_blocks,
                &mut acc_bits,
            ),
            (LpnKernel::Split, SimdLevel::Scalar) => {
                simd::encode_blocks_tiled(level, matrix.tile_schedule(), &blocks, &mut acc_blocks);
                simd::encode_bits_packed(level, &matrix, &bits, &mut acc_bits);
            }
        }
        receiver.push(secs(t));
    }
    black_box((&acc_blocks, &acc_bits));
    let usable = cfg.usable_outputs() as f64;
    let (s, r) = (stats::median(&sender), stats::median(&receiver));
    ctx.set_layer("lpn.sender_ns_per_cot", s * 1e9 / usable);
    ctx.set_layer("lpn.receiver_ns_per_cot", r * 1e9 / usable);
    // One gather per matrix non-zero per output vector: one vector for
    // the sender, two for the receiver.
    let gathers = 3.0 * (p.n * cfg.row_weight) as f64;
    ctx.set_layer("lpn.gathers_per_s", gathers / (s + r));
    // Computed, not measured: every gather counted as one 16-byte block.
    ctx.set_layer("lpn.gather_gbps", gathers / (s + r) * 16.0 / 1e9);
}

/// `core.take_*` on a warm pool, then `net.encode/decode/send_ns_per_cot`
/// on one chunk taken from it, then `net.rtt_1cot_p50_us` against a
/// service over the same pool.
fn pool_and_wire(ctx: &mut Ctx, cfg: &FerretConfig) -> Result<(), String> {
    let chunk = ctx.scale.chunk;
    let engine = engine_for(cfg);
    let pool = Arc::new(SharedCotPool::new_pipelined(
        &engine,
        1,
        ctx.seed_for("probe-pool"),
    ));
    let mut batch = CotBatch::default();

    // Bulk takes: one burst's worth of chunk-sized drains.
    warm_to_cap(&pool)?;
    let takes = ctx.scale.burst_chunks as usize;
    let t = Instant::now();
    for _ in 0..takes {
        pool.take_into(chunk, &mut batch);
    }
    ctx.set_layer(
        "core.take_ns_per_cot",
        secs(t) * 1e9 / (takes * chunk) as f64,
    );

    // Small takes: the one-shot request size.
    warm_to_cap(&pool)?;
    let small = ctx.scale.oneshot;
    let calls = (pool.available() / small * 9 / 10).min(20_000);
    let mut little = CotBatch::default();
    let t = Instant::now();
    for _ in 0..calls {
        pool.take_into(small, &mut little);
    }
    ctx.set_layer("core.take_ns_per_call", secs(t) * 1e9 / calls.max(1) as f64);
    ctx.check.delivery(little.as_slice(), small);

    // One chunk to push through the wire stages.
    warm_to_cap(&pool)?;
    pool.take_into(chunk, &mut batch);
    ctx.check.delivery(batch.as_slice(), chunk);
    let frames = if ctx.opts.smoke { 20 } else { 50 };
    let (mut head, mut tail, mut zs, mut ys) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    let t = Instant::now();
    for seq in 0..frames {
        frame::begin_frame(&mut head);
        let (z, y) = encode_cot_chunk_split(
            &mut head,
            &mut tail,
            &mut zs,
            &mut ys,
            seq,
            batch.as_slice(),
        );
        let rest = z.len() + y.len() + tail.len();
        frame::finish_frame_with_tail(&mut head, rest).map_err(|e| format!("frame: {e}"))?;
        black_box((&head, z, y));
    }
    ctx.set_layer(
        "net.encode_ns_per_cot",
        secs(t) * 1e9 / (frames as usize * chunk) as f64,
    );

    let mut payload = Vec::new();
    encode_cot_chunk_into(&mut payload, 0, batch.as_slice());
    let mut decoded = CotBatch::default();
    let t = Instant::now();
    for _ in 0..frames {
        if decode_response_into(black_box(&payload), &mut decoded).is_err() {
            ctx.check.op_failed();
        }
    }
    ctx.set_layer(
        "net.decode_ns_per_cot",
        secs(t) * 1e9 / (frames as usize * chunk) as f64,
    );
    ctx.check.accounting(decoded == batch);

    let (mut writer, mut reader) =
        tcp_loopback_pair().map_err(|e| format!("tcp loopback pair: {e}"))?;
    let send_secs = std::thread::scope(|scope| -> Result<f64, String> {
        let drain = scope.spawn(move || {
            let mut buf = Vec::new();
            let mut frames_read = 0u64;
            while reader.recv_bytes_into(&mut buf).is_ok() {
                frames_read += 1;
            }
            frames_read
        });
        let t = Instant::now();
        for seq in 0..frames {
            frame::begin_frame(&mut head);
            let (z, y) = encode_cot_chunk_split(
                &mut head,
                &mut tail,
                &mut zs,
                &mut ys,
                seq,
                batch.as_slice(),
            );
            let rest = z.len() + y.len() + tail.len();
            frame::finish_frame_with_tail(&mut head, rest).map_err(|e| format!("frame: {e}"))?;
            writer
                .send_frame_parts(&[head.as_slice(), z, y, &tail])
                .and_then(|()| writer.flush())
                .map_err(|e| format!("send: {e}"))?;
        }
        let elapsed = secs(t);
        drop(writer); // EOF ends the drain loop
        let frames_read = drain
            .join()
            .map_err(|_| "drain thread panicked".to_string())?;
        ctx.check.accounting(frames_read == frames);
        Ok(elapsed)
    })?;
    ctx.set_layer(
        "net.send_ns_per_cot",
        send_secs * 1e9 / (frames as usize * chunk) as f64,
    );

    // Smallest possible request against a service over the same pool.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let service = CotService::serve_on(listener, Arc::clone(&pool));
    let mut client =
        CotClient::connect(service.addr(), "bench-rtt").map_err(|e| format!("connect: {e}"))?;
    let round_trips = if ctx.opts.smoke { 300 } else { 3000 };
    let mut one = CotBatch::default();
    let mut rtts = Vec::with_capacity(round_trips);
    for _ in 0..round_trips {
        let t = Instant::now();
        let got = client.request_cots_into(1, &mut one);
        rtts.push(secs(t) * 1e6);
        if got.is_err() || !ctx.check.delivery(one.as_slice(), 1) {
            ctx.check.op_failed();
        }
    }
    ctx.set_layer("net.rtt_1cot_p50_us", stats::median(&rtts));
    drop(client);
    service.shutdown();
    Ok(())
}

/// Model layers. **Simulated time, deterministic, not host time** — the
/// cycle-level NMP simulator and the analytical CPU model evaluated on
/// this workload's parameter set (fixed simulator seed, so they repeat
/// exactly), then rebased on the FERRET rate this run measured. The
/// models are unvalidated against this host: no error figure is implied.
fn models(ctx: &mut Ctx, cfg: &FerretConfig, measured_cots_per_s: f64) {
    let nmp = NmpConfig::ironman_max();
    let engine = Engine::new(cfg.clone(), Backend::IronmanNmp(nmp))
        .with_cpu_model(CpuModel::xeon_full_thread());
    let usable = cfg.usable_outputs() as f64;

    let t = Instant::now();
    let report = OteSimulator::new(nmp).simulate(&engine.ote_work(), 1);
    ctx.set_layer("nmp.sim_host_ms", secs(t) * 1e3);
    let sim_rate = usable / (report.latency_ms(&nmp) / 1e3);
    ctx.set_layer("nmp.sim_cots_per_s", sim_rate);
    ctx.set_layer("cache.sim_hit_rate", report.cache_hit_rate);

    let cpu_s = CpuModel::xeon_full_thread()
        .execution_latency(&engine.workload(), false)
        .total_s();
    let model_rate = usable / cpu_s;
    ctx.set_layer("perf.cpu_model_cots_per_s", model_rate);
    if measured_cots_per_s > 0.0 {
        ctx.set_layer("perf.model_vs_measured", model_rate / measured_cots_per_s);
        ctx.set_layer(
            "nmp.sim_speedup_vs_measured",
            sim_rate / measured_cots_per_s,
        );
    }
}

/// `cluster.*` on a live, warm fleet after `fleet_oneshot`'s timed
/// phase: routing overhead against a direct session to the same home
/// server (back to back), a `Stats` scrape interleaved with requests,
/// and what the control plane burns with no load at all.
pub fn fleet_probes(ctx: &mut Ctx, cluster: &LocalCluster, client: &mut ClusterClient, n: usize) {
    let samples = if ctx.opts.smoke { 200 } else { 2000 };
    let Some(addr) = client
        .home()
        .and_then(|home| cluster.directory().snapshot().member(home).map(|m| m.addr))
    else {
        ctx.check.op_failed();
        return;
    };
    let Ok(mut direct) = CotClient::connect(addr, "bench-direct") else {
        ctx.check.op_failed();
        return;
    };

    // Routed and direct requests alternate, and each routed latency is
    // compared with the direct one right after it: the host drifts
    // between regimes in which a round trip costs half as much again,
    // and only neighbours share a regime.
    let mut batch = CotBatch::default();
    let mut overheads = Vec::with_capacity(samples);
    let mut scrapes = Vec::new();
    for i in 0..samples {
        let t = Instant::now();
        let got = client.request_cots_with(n, |b| {
            ctx.check.delivery(b.as_slice(), n);
        });
        let routed = secs(t) * 1e6;
        if got.is_err() {
            ctx.check.op_failed();
        }
        let t = Instant::now();
        let got = direct.request_cots_into(n, &mut batch);
        let unrouted = secs(t) * 1e6;
        if got.is_err() || !ctx.check.delivery(batch.as_slice(), n) {
            ctx.check.op_failed();
        }
        overheads.push(routed - unrouted);
        if i % 40 == 0 {
            let t = Instant::now();
            if direct.stats().is_err() {
                ctx.check.op_failed();
            }
            scrapes.push(secs(t) * 1e6);
        }
    }
    ctx.set_layer("cluster.route_overhead_us", stats::median(&overheads));
    ctx.set_layer("telemetry.stats_scrape_us", stats::median(&scrapes));
    let wire = direct.transport_stats();
    ctx.set_layer(
        "net.wire_bytes_per_cot",
        wire.total_bytes() as f64 / (samples * n) as f64,
    );
    ctx.set_layer(
        "net.client_msgs_per_chunk",
        wire.messages_sent as f64 / samples as f64,
    );
    drop(direct);

    let idle = Duration::from_secs_f64(if ctx.opts.smoke { 0.3 } else { 2.0 });
    let cpu = crate::sys::process_cpu_ns();
    let t = Instant::now();
    std::thread::sleep(idle);
    let burned = crate::sys::process_cpu_ns().saturating_sub(cpu);
    ctx.set_layer(
        "cluster.idle_cpu_share",
        burned as f64 / t.elapsed().as_nanos() as f64,
    );
}
