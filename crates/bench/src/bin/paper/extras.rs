//! Experiments the paper motivates but does not tabulate: the index-sort
//! ablation, energy per COT, and IKNP vs PCG communication.

use crate::{flagship_cell, Size};
use ironman_bench::{f2, f3, header, pct, row};
use ironman_lpn::LpnMatrix;
use ironman_nmp::cache::{Cache, CacheConfig};
use ironman_nmp::sorting::SortedLpnMatrix;
use ironman_ot::channel::run_protocol;
use ironman_ot::dealer::Dealer;
use ironman_ot::ferret::{run_extension, FerretConfig};
use ironman_ot::iknp::{iknp_recv, iknp_send, setup_base};
use ironman_ot::params::FerretParams;
use ironman_perf::energy::{energy_comparison as energy_rows, PowerEnvelope};
use ironman_prg::Block;

/// Ablation: §5.3's index sort (column first-use relabeling) against the
/// unsorted matrix, on one rank's whole partition of the 2^20 set, read
/// through the NMP model's memory-side cache.
///
/// The paper reports that column swapping alone tops out near a 20% hit
/// rate with a 1 MB cache; that figure is printed beside the sorted row
/// for comparison, not checked.
pub fn ablation_sorting(size: Size) {
    // One rank's share of the 2^20 set on 16 ranks: k = 168000 elements.
    let p = FerretParams::OT_2POW20;
    let rows = match size {
        Size::Full => p.n.div_ceil(16),
        Size::Smallest => 512,
    };
    let matrix = LpnMatrix::generate(rows, p.k, 10, Block::from(0x50u128));
    let sorted = SortedLpnMatrix::sort(&matrix);

    for &cache_kb in size.take(&[256usize, 1024], 1) {
        let cache = CacheConfig::kb(cache_kb);
        header(
            &format!(
                "index sort, {cache_kb} KB cache, {}-way, {} B lines ({rows} rows of the 2^20 set)",
                cache.ways, cache.line_bytes
            ),
            &["sort", "hit rate", "paper"],
        );
        row(&[
            "unsorted".to_string(),
            pct(hit_rate(&matrix, cache)),
            "-".to_string(),
        ]);
        let paper = if cache_kb == 1024 { "~20%" } else { "-" };
        row(&[
            "column".to_string(),
            pct(hit_rate(sorted.matrix(), cache)),
            paper.to_string(),
        ]);
    }
    println!(
        "\nshape check (paper 5.3): relabeling columns by first use raises the hit rate over the unsorted rows"
    );
}

/// Hit rate of `matrix`'s row-major access trace through a fresh `cfg`
/// cache, element `i` at byte address `i · 16` as the rank model maps it.
fn hit_rate(matrix: &LpnMatrix, cfg: CacheConfig) -> f64 {
    let mut cache = Cache::new(cfg);
    for &i in matrix.colidx() {
        cache.access(i as u64 * Block::BYTES as u64);
    }
    cache.stats().hit_rate()
}

/// Energy per COT across backends, combining the paper's power figures
/// (Table 6, §6.1) with this workspace's measured latencies. The paper
/// reports the power ratio (84.5× vs GPU); this completes the picture
/// with energy.
pub fn energy_comparison(_: Size) {
    let p = FerretParams::OT_2POW20;
    let total_ots = 1u64 << 25;
    let execs = (total_ots as f64 / p.n as f64).ceil();

    let cell_1m = flagship_cell(1024 * 1024, 77);
    let cell_256k = flagship_cell(256 * 1024, 77);

    let backends = [
        (PowerEnvelope::CPU_XEON, cell_1m.cpu_ms / 1e3 * execs),
        (PowerEnvelope::gpu_a6000(), cell_1m.gpu_ms / 1e3 * execs),
        (
            PowerEnvelope::IRONMAN_256KB,
            cell_256k.ironman_ms / 1e3 * execs,
        ),
        (PowerEnvelope::IRONMAN_1MB, cell_1m.ironman_ms / 1e3 * execs),
    ];
    header(
        "energy to generate 2^25 COTs (2^20 set, 16 ranks)",
        &["backend", "latency s", "power W", "energy J", "nJ/COT"],
    );
    let rows = energy_rows(&backends, total_ots);
    for r in &rows {
        row(&[
            r.envelope.name.to_string(),
            f3(r.latency_s),
            f2(r.envelope.watts),
            f2(r.energy_j),
            f3(r.nj_per_cot),
        ]);
    }
    let cpu = rows[0].energy_j;
    let gpu = rows[1].energy_j;
    let iron = rows[3].energy_j;
    println!(
        "\nenergy reduction: {:.0}x vs CPU, {:.0}x vs GPU (paper reports 84.5x *power* vs GPU)",
        cpu / iron,
        gpu / iron
    );
}

/// Measured communication of IKNP-style vs. PCG-style OT extension — the
/// §2.3 motivation ("sub-linear communication ... at the cost of increased
/// computational overhead"), quantified from real protocol executions.
pub fn comm_comparison(_: Size) {
    header(
        "IKNP vs PCG (Ferret) communication, measured",
        &["protocol", "outputs", "bytes", "B/OT", "PRG ops"],
    );

    // IKNP at two sizes: communication is linear.
    for n in [4096usize, 16_384] {
        let mut dealer = Dealer::new(9);
        let delta = dealer.random_delta();
        let (seeds, pairs) = setup_base(&mut dealer, delta);
        let x: Vec<bool> = (0..n).map(|j| j % 3 == 0).collect();
        let (_, _, s_stats, r_stats) = run_protocol(
            move |ch| iknp_send(ch, delta, &seeds, n).unwrap(),
            move |ch| iknp_recv(ch, &pairs, &x).unwrap(),
        );
        let bytes = s_stats.bytes_sent + r_stats.bytes_sent;
        row(&[
            "IKNP".to_string(),
            n.to_string(),
            bytes.to_string(),
            f2(bytes as f64 / n as f64),
            "~n/64 AES".to_string(),
        ]);
    }

    // PCG at two sizes: communication is sub-linear per OT.
    for params in [FerretParams::toy(), FerretParams::toy_large()] {
        let cfg = FerretConfig::new(params);
        let out = run_extension(&cfg, 9);
        let bytes = out.sender_stats.bytes_sent + out.receiver_stats.bytes_sent;
        row(&[
            "PCG (Ferret)".to_string(),
            out.cots.len().to_string(),
            bytes.to_string(),
            f3(bytes as f64 / out.cots.len() as f64),
            format!("{}", out.sender_prg.total()),
        ]);
    }
    println!("\nshape check: IKNP pays 16+ B/OT (linear); PCG amortizes to <8 B/OT and shrinks");
    println!("with scale, paying more PRG computation instead — the trade Ironman accelerates.");
}
