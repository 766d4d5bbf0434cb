//! Raw FERRET supply-ceiling bench: the extension compute core measured
//! kernel by kernel and end to end, head-to-head in one run.
//!
//! PR 3/4 made *serving* nearly free, so the supply ceiling is the
//! extension itself — dominated at Table-4 scale by the memory-bound LPN
//! encode (paper §5.3, Fig. 1c). This bench measures:
//!
//! * **LPN block kernels** on an `OT_2POW20`-class matrix (`k = 168_000`,
//!   `d = 10`): row-major naive vs cache-blocked tiled, each with and
//!   without the §5.3 offline sort — all four against the same matrix
//!   and inputs, best-of-N.
//! * **SIMD dispatch head-to-head**: the [`ironman_lpn::simd`] block
//!   pass, row-major and tiled, at each runtime-available level — scalar
//!   vs AVX2/BMI2 wide — so lane-selection claims are measured, not
//!   assumed. (The packed-bit and pair entry points no session runs any
//!   more are timed only by `benchmark/`'s `lpn.receiver_ns_per_cot`
//!   probe.)
//! * **Session LPN composite**: one extension's LPN compute across both
//!   party threads — the same block pass twice (they share the single
//!   core in a `CotSession`), row-major vs the tiled pass
//!   [`FerretConfig::recommended`] picks.
//! * **Raw single-session `extend`**: a persistent [`CotSession`] at an
//!   LPN-heavy parameter set, naive kernels vs
//!   [`FerretConfig::recommended`], COTs/s.
//! * **Shared-matrix spawn costs**: session spawn-to-first-batch with a
//!   config that builds its own LPN matrix vs one carrying the
//!   `Arc`-shared prebuilt matrix, plus generation counts and the
//!   matrix working set — the memory/latency numbers behind sharing
//!   one matrix across all shard sessions.
//!
//! Emits the human table plus `BENCH_extension.json`. `--quick` shrinks
//! `n` and iteration counts for CI smoke use (same `k`, so the kernels
//! still see the 2^20-class input working set).
//!
//! `trace_dump` mode (`-- trace_dump [--quick]`) skips the kernel
//! matrix entirely: it runs a pipelined session while draining it
//! faster than it extends, then prints the session's v6 event ring as a
//! per-extension SPCOT vs LPN vs stall breakdown — the trace-level view
//! of the same supply story the throughput numbers summarize.

use ironman_bench::{best_of, f2, header, row, times};
use ironman_lpn::sorting::SortConfig;
use ironman_lpn::{encoder, simd, LpnMatrix, SimdLevel, SortedLpnMatrix};
use ironman_ot::ferret::{FerretConfig, LpnKernel};
use ironman_ot::params::FerretParams;
use ironman_ot::session::CotSession;
use ironman_prg::Block;
use ironman_telemetry::{unpack_phase_split, EventKind};
use std::time::Instant;

/// An LPN-dominated parameter set for the raw-`extend` measurement: the
/// 2^20-class input (`k = 168_000`, `d = 10`) with small, cheap GGM
/// trees, so the extension's wall time is the encode the kernels
/// rewrote rather than tree PRG calls. **Bench-only, not secure.**
fn lpn_heavy() -> FerretParams {
    FerretParams {
        log_target: 20,
        n: 1 << 20,
        leaves: 512,
        k: 168_000,
        t: 128,
    }
}

struct ExtendResult {
    name: &'static str,
    cots: u64,
    secs: f64,
}

impl ExtendResult {
    fn cots_per_sec(&self) -> f64 {
        self.cots as f64 / self.secs
    }
}

/// Raw single-session supply: one pipelined [`CotSession`] (both party
/// threads on this core), draining `batches` staged extensions. The
/// session bootstrap (dealer, matrix + tile-schedule build, thread
/// spawns) happens before the clock starts; the first batch is awaited
/// untimed so the measurement sees the steady pipeline.
fn bench_extend(name: &'static str, cfg: &FerretConfig, batches: usize) -> ExtendResult {
    let session = CotSession::spawn(cfg, 808, 2);
    let first = session.recv().expect("session alive");
    let delta = session.delta();
    let per = first.len() as u64;
    let t = Instant::now();
    let mut cots = 0u64;
    let mut last = first;
    for _ in 0..batches {
        last = session.recv().expect("session alive");
        cots += last.len() as u64;
    }
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(last.len() as u64, per);
    for i in (0..last.len()).step_by(997) {
        assert_eq!(last.z[i], last.y[i] ^ delta.and_bit(last.x[i]), "COT {i}");
    }
    ExtendResult { name, cots, secs }
}

struct KernelResult {
    name: &'static str,
    gathers: u64,
    secs: f64,
}

impl KernelResult {
    fn gathers_per_sec(&self) -> f64 {
        self.gathers as f64 / self.secs
    }
}

/// One timed pass of a kernel closure over `iters` repetitions.
fn time_kernel(
    name: &'static str,
    iters: usize,
    gathers_per_iter: u64,
    mut run: impl FnMut(),
) -> KernelResult {
    let t = Instant::now();
    for _ in 0..iters {
        run();
    }
    KernelResult {
        name,
        gathers: gathers_per_iter * iters as u64,
        secs: t.elapsed().as_secs_f64(),
    }
}

/// `trace_dump` mode: drain a pipelined session end to end, then replay
/// its event ring as a per-extension table. Every `ExtensionEnd` carries
/// the SPCOT/LPN phase split packed in its argument; `StallEnd` carries
/// the consumer's blocked time — so the dump shows, extension by
/// extension, where one FERRET iteration's wall time went and when the
/// consumer outran the supply.
fn run_trace_dump(quick: bool) {
    let params = lpn_heavy();
    let cfg = FerretConfig::recommended(params);
    let batches = if quick { 4 } else { 8 };
    let session = CotSession::spawn(&cfg, 808, 2);
    let mut cots = 0u64;
    for _ in 0..batches {
        // recv() faster than extensions complete: the stall path (and
        // its StallStart/StallEnd trace edges) triggers naturally.
        cots += session.recv().expect("session alive").len() as u64;
    }
    let events = session.telemetry().trace.dump();
    drop(session);
    if events.is_empty() {
        println!(
            "trace ring is empty: this binary was built with the telemetry no-op \
             feature (telemetry-noop), which compiles event recording out"
        );
        return;
    }

    header(
        &format!("per-extension trace breakdown ({cots} COTs over {batches} batches)"),
        &[
            "ext",
            "wall us",
            "spcot us",
            "lpn us",
            "other us",
            "stalled consumer us",
        ],
    );
    let us = |nanos: u64| format!("{:.1}", nanos as f64 / 1_000.0);
    let mut started_at: Option<u64> = None;
    let mut ext = 0u64;
    let mut stalled_since_last_end = 0u64;
    let mut totals = (0u64, 0u64, 0u64); // wall, spcot, lpn
    let mut stall_total = 0u64;
    for event in &events {
        match event.kind {
            EventKind::ExtensionStart => started_at = Some(event.at_nanos),
            EventKind::ExtensionEnd => {
                let wall = started_at
                    .take()
                    .map_or(0, |s| event.at_nanos.saturating_sub(s));
                let (spcot, lpn) = unpack_phase_split(event.arg);
                let other = wall.saturating_sub(spcot + lpn);
                row(&[
                    ext.to_string(),
                    us(wall),
                    us(spcot),
                    us(lpn),
                    us(other),
                    us(stalled_since_last_end),
                ]);
                totals.0 += wall;
                totals.1 += spcot;
                totals.2 += lpn;
                stall_total += stalled_since_last_end;
                stalled_since_last_end = 0;
                ext += 1;
            }
            EventKind::StallEnd => stalled_since_last_end += event.arg,
            _ => {}
        }
    }
    if stalled_since_last_end > 0 {
        stall_total += stalled_since_last_end;
        println!(
            "trailing consumer stall (no extension completed after it): {} us",
            us(stalled_since_last_end)
        );
    }
    if totals.0 > 0 {
        println!(
            "\n{ext} extensions: spcot {:.1}% / lpn {:.1}% of extension wall time; \
             consumer stalled {} us total",
            100.0 * totals.1 as f64 / totals.0 as f64,
            100.0 * totals.2 as f64 / totals.0 as f64,
            us(stall_total)
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "trace_dump" || a == "--trace-dump") {
        run_trace_dump(quick);
        return;
    }
    // OT_2POW20-class geometry: the real k and row weight; quick mode
    // shrinks n (fewer rows = fewer timed gathers) but keeps the input
    // working set — the quantity the cache-blocking targets — identical.
    let (n, k, d) = if quick {
        (262_144usize, 168_000usize, 10usize)
    } else {
        (1_221_516usize, 168_000usize, 10usize)
    };
    let attempts = if quick { 3 } else { 5 };
    let kernel_iters = if quick { 2 } else { 3 };

    println!("generating OT_2POW20-class matrix: n={n}, k={k}, d={d}");
    let t = Instant::now();
    let matrix = LpnMatrix::generate(n, k, d, Block::from(0x7e57u128));
    let gen_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let tiles = matrix.tile_schedule();
    let tile_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sorted = SortedLpnMatrix::sort(
        &matrix,
        SortConfig {
            // The deployed 256 KB memory-side cache model; the smaller
            // window bounds the offline greedy at bench scale.
            cache_lines: 4096,
            window: 8,
            block_rows: 4096,
        },
    );
    let sort_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sorted_tiles_len = sorted.tile_schedule().len();
    let sorted_tile_secs = t.elapsed().as_secs_f64();
    println!(
        "offline costs: generate {gen_secs:.2}s, tile {tile_secs:.2}s, \
         sort {sort_secs:.2}s, tile(sorted) {sorted_tile_secs:.2}s \
         ({sorted_tiles_len} gathers)"
    );

    // Shared inputs: pseudorandom blocks, a dirty accumulator.
    let input_blocks: Vec<Block> = (0..k as u128)
        .map(|i| Block::from(i * 0x9e37 + 1))
        .collect();
    let gathers = (n * d) as u64;

    let mut acc_blocks = vec![Block::from(0xA5u128); n];

    let score = KernelResult::gathers_per_sec;
    let block_results = [
        best_of(attempts, score, || {
            time_kernel("blocks_naive", kernel_iters, gathers, || {
                encoder::encode_blocks(&matrix, &input_blocks, &mut acc_blocks)
            })
        }),
        best_of(attempts, score, || {
            time_kernel("blocks_tiled", kernel_iters, gathers, || {
                tiles.encode_blocks(&input_blocks, &mut acc_blocks)
            })
        }),
        best_of(attempts, score, || {
            time_kernel("blocks_sorted", kernel_iters, gathers, || {
                sorted.encode_blocks(&input_blocks, &mut acc_blocks)
            })
        }),
        best_of(attempts, score, || {
            time_kernel("blocks_tiled_sorted", kernel_iters, gathers, || {
                sorted.encode_blocks_tiled(&input_blocks, &mut acc_blocks)
            })
        }),
    ];
    // The simd dispatch layer, lane by lane at every level this host can
    // run: the scalar row is the dispatch-overhead baseline, the wide
    // row is the AVX2/BMI2 code path, same matrix and inputs.
    let mut simd_results: Vec<KernelResult> = Vec::new();
    for &level in SimdLevel::available() {
        let sc = level == SimdLevel::Scalar;
        simd_results.push(best_of(attempts, score, || {
            time_kernel(
                if sc {
                    "simd_blocks_scalar"
                } else {
                    "simd_blocks_wide"
                },
                kernel_iters,
                gathers,
                || simd::encode_blocks(level, &matrix, &input_blocks, &mut acc_blocks),
            )
        }));
        simd_results.push(best_of(attempts, score, || {
            time_kernel(
                if sc {
                    "simd_blocks_tiled_scalar"
                } else {
                    "simd_blocks_tiled_wide"
                },
                kernel_iters,
                gathers,
                || simd::encode_blocks_tiled(level, tiles, &input_blocks, &mut acc_blocks),
            )
        }));
    }

    // Session-level composite: one extension's LPN compute across both
    // party threads (they share this core in a `CotSession`) — the
    // sender's `z = r·A ⊕ w` and the receiver's `y = s·A ⊕ v`, the same
    // block pass twice. Naive runs it row-major; tiled is what
    // `recommended()` picks, at the auto-detected SIMD level.
    let auto_level = SimdLevel::detect();
    let composite_results = [
        best_of(attempts, score, || {
            time_kernel("session_lpn_naive", kernel_iters, 2 * gathers, || {
                simd::encode_blocks(auto_level, &matrix, &input_blocks, &mut acc_blocks);
                simd::encode_blocks(auto_level, &matrix, &input_blocks, &mut acc_blocks);
            })
        }),
        best_of(attempts, score, || {
            time_kernel("session_lpn_tiled", kernel_iters, 2 * gathers, || {
                simd::encode_blocks_tiled(auto_level, tiles, &input_blocks, &mut acc_blocks);
                simd::encode_blocks_tiled(auto_level, tiles, &input_blocks, &mut acc_blocks);
            })
        }),
    ];

    // Raw single-session extend: the same code path a pipelined pool
    // shard runs, naive kernels vs the recommended config, at the
    // LPN-heavy set where the encode dominates.
    let heavy = lpn_heavy();
    let naive_cfg = FerretConfig {
        kernel: LpnKernel::Naive,
        ..FerretConfig::new(heavy)
    };
    let rec_cfg = FerretConfig::recommended(heavy);
    assert_eq!(
        rec_cfg.kernel,
        LpnKernel::Split,
        "2^20-class k must pick the measured split kernel"
    );
    let extend_batches = if quick { 3 } else { 6 };
    let extend_score = ExtendResult::cots_per_sec;
    let extends = [
        best_of(attempts, extend_score, || {
            bench_extend("extend_naive", &naive_cfg, extend_batches)
        }),
        best_of(attempts, extend_score, || {
            bench_extend("extend_recommended", &rec_cfg, extend_batches)
        }),
    ];

    // Shared-matrix spawn costs: the same recommended config, once
    // building its matrix at spawn (the pre-sharing behavior: every
    // session pays generation + schedule) and once carrying the
    // Arc-shared prebuilt matrix (what `SharedCotPool` now hands every
    // shard). Spawn-to-first-batch is the latency a fleet pays per
    // shard; the generation counter makes the sharing observable.
    let gen_before = LpnMatrix::generated_count();
    let t = Instant::now();
    let session = CotSession::spawn(&rec_cfg, 909, 2);
    session.recv().expect("session alive");
    let spawn_unshared_secs = t.elapsed().as_secs_f64();
    drop(session);
    let generations_unshared = LpnMatrix::generated_count() - gen_before;

    let mut shared_cfg = rec_cfg.clone();
    let t = Instant::now();
    let matrix_bytes = shared_cfg.ensure_shared_matrix().working_set_bytes();
    let matrix_build_secs = t.elapsed().as_secs_f64();
    let gen_before = LpnMatrix::generated_count();
    let t = Instant::now();
    let session = CotSession::spawn(&shared_cfg, 910, 2);
    session.recv().expect("session alive");
    let spawn_shared_secs = t.elapsed().as_secs_f64();
    drop(session);
    let generations_shared = LpnMatrix::generated_count() - gen_before;

    header(
        "LPN kernels, OT_2POW20-class (gathers/s)",
        &["kernel", "gathers", "secs", "gathers/s", "vs naive"],
    );
    let print_group = |results: &[KernelResult], base: f64| {
        for r in results {
            row(&[
                r.name.to_string(),
                r.gathers.to_string(),
                f2(r.secs),
                format!("{:.3e}", r.gathers_per_sec()),
                times(r.gathers_per_sec() / base),
            ]);
        }
    };
    print_group(&block_results, block_results[0].gathers_per_sec());
    header(
        &format!("simd dispatch head-to-head (detected: {auto_level:?})"),
        &["kernel", "gathers", "secs", "gathers/s", "vs naive"],
    );
    print_group(&simd_results, block_results[0].gathers_per_sec());
    header(
        "session LPN composites",
        &["kernel", "gathers", "secs", "gathers/s", "vs naive"],
    );
    print_group(&composite_results, composite_results[0].gathers_per_sec());

    header(
        "raw single-session extend (LPN-heavy set)",
        &["config", "COTs", "secs", "COTs/s"],
    );
    for r in &extends {
        row(&[
            r.name.to_string(),
            r.cots.to_string(),
            f2(r.secs),
            format!("{:.0}", r.cots_per_sec()),
        ]);
    }

    let tiled_speedup =
        composite_results[1].gathers_per_sec() / composite_results[0].gathers_per_sec();
    let extend_speedup = extends[1].cots_per_sec() / extends[0].cots_per_sec();
    println!("\nsession LPN tiled vs naive: {}", times(tiled_speedup));
    println!("extend recommended vs naive: {}", times(extend_speedup));
    println!(
        "spawn-to-first-batch: unshared {spawn_unshared_secs:.2}s \
         ({generations_unshared} matrix generations) vs shared \
         {spawn_shared_secs:.2}s ({generations_shared}); one-time shared \
         build {matrix_build_secs:.2}s, matrix working set {matrix_bytes} B"
    );

    let mut json = String::from("{\n  \"bench\": \"extension\",\n");
    json.push_str(&format!(
        "  \"quick\": {quick},\n  \"simd_level\": \"{auto_level:?}\",\n  \"params\": {{\"n\": {n}, \"k\": {k}, \"d\": {d}}},\n"
    ));
    json.push_str(&format!(
        "  \"tiled_speedup\": {tiled_speedup:.3},\n  \"extend_speedup\": {extend_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"shared_matrix\": {{\"matrix_build_secs\": {matrix_build_secs:.3}, \"matrix_bytes\": {matrix_bytes}, \
         \"spawn_unshared_secs\": {spawn_unshared_secs:.3}, \"spawn_shared_secs\": {spawn_shared_secs:.3}, \
         \"generations_unshared\": {generations_unshared}, \"generations_shared\": {generations_shared}}},\n"
    ));
    json.push_str("  \"extends\": [\n");
    for (i, r) in extends.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cots\": {}, \"secs\": {:.6}, \"cots_per_sec\": {:.1}}}{}\n",
            r.name,
            r.cots,
            r.secs,
            r.cots_per_sec(),
            if i + 1 < extends.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"kernels\": [\n");
    let all: Vec<&KernelResult> = block_results
        .iter()
        .chain(&simd_results)
        .chain(&composite_results)
        .collect();
    for (i, r) in all.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"gathers\": {}, \"secs\": {:.6}, \"gathers_per_sec\": {:.1}}}{}\n",
            r.name,
            r.gathers,
            r.secs,
            r.gathers_per_sec(),
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_extension.json", &json).expect("write bench json");
    println!("wrote BENCH_extension.json");
}
