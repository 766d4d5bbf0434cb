//! Integration tests spanning the whole stack: real two-party extensions
//! through the engine, COT→ROT→message transfer, multi-iteration
//! bootstrap, and every Table 4 structure at scaled size.

use ironman_core::rot::rot_from_extension;
use ironman_core::{Backend, Engine};
use ironman_ggm::Arity;
use ironman_ot::ferret::{run_extensions, FerretConfig};
use ironman_ot::params::FerretParams;
use ironman_prg::{Block, PrgKind};

/// Scales a Table 4 row down by `shrink` while keeping its structure
/// (ratios of n : k : t and the tree size).
fn scaled(p: FerretParams, shrink: usize) -> FerretParams {
    FerretParams {
        log_target: p.log_target,
        n: (p.n / shrink).max(2000),
        leaves: (p.leaves / 16).max(64),
        k: (p.k / shrink).max(512),
        t: (p.t / 16).max(8),
    }
}

#[test]
fn every_table4_structure_verifies_at_scale() {
    for p in FerretParams::TABLE4 {
        let small = scaled(p, 512);
        let cfg = FerretConfig::new(small);
        let out = ironman_ot::ferret::run_extension(&cfg, p.log_target as u64).cots;
        out.verify()
            .unwrap_or_else(|i| panic!("2^{} structure: COT {i} violated", p.log_target));
        assert_eq!(out.len(), cfg.usable_outputs());
    }
}

#[test]
fn engine_end_to_end_with_nmp_backend() {
    let cfg = FerretConfig::new(FerretParams::toy());
    let engine = Engine::new(cfg, Backend::ironman_default());
    let runs = engine.run(1, 2);
    for run in &runs {
        run.cots.verify().unwrap();
        assert!(run.timing.speedup() > 1.0);
    }
}

#[test]
fn cot_to_chosen_message_pipeline() {
    let out = ironman_ot::ferret::run_extension(&FerretConfig::new(FerretParams::toy()), 3);
    let (s, r) = rot_from_extension(out.cots.as_slice(), 500);
    let msgs: Vec<(Block, Block)> = (0..100u128)
        .map(|i| (Block::from(i), Block::from(i + 1_000_000)))
        .collect();
    let choices: Vec<bool> = (0..100).map(|i| (i * 7) % 3 == 0).collect();
    let flips = r.derandomize(&choices);
    let masked = s.mask(&msgs, &flips);
    let got = r.unmask(&masked, &choices);
    for i in 0..100 {
        let want = if choices[i] { msgs[i].1 } else { msgs[i].0 };
        assert_eq!(got[i], want, "transfer {i}");
    }
}

#[test]
fn five_iteration_bootstrap_stays_correlated() {
    let cfg = FerretConfig::new(FerretParams::toy());
    let outs = run_extensions(&cfg, 9, 5);
    assert_eq!(outs.len(), 5);
    let delta = outs[0].cots.delta;
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            out.cots.delta, delta,
            "delta must be global across iterations"
        );
        out.cots
            .verify()
            .unwrap_or_else(|j| panic!("iteration {i}: COT {j} violated"));
    }
}

#[test]
fn recommended_extension_keeps_the_bit0_convention() {
    // The path `FerretConfig::recommended` picks (tiled kernel over the
    // streamed schedule at Table-4 scale), shrunk until it is quick in a
    // debug build but still tiled: Δ odd, sender strings even, the
    // receiver's choice bit in bit 0 of its string, across a bootstrap.
    let cfg = FerretConfig::recommended(FerretParams {
        log_target: 16,
        n: 90_000,
        leaves: 256,
        k: 65_536,
        t: 64,
    });
    assert_ne!(cfg.kernel, ironman_ot::ferret::LpnKernel::Naive);
    for out in run_extensions(&cfg, 17, 2).into_iter().map(|o| o.cots) {
        out.verify().expect("z = y ^ x*delta");
        assert!(out.delta.lsb());
        assert!(out.z.iter().all(|z| !z.lsb()));
        assert!(out.x.iter().zip(&out.y).all(|(&x, y)| x == y.lsb()));
    }
}

#[test]
fn arity_and_prg_grid_all_verify() {
    for arity in [Arity::BINARY, Arity::QUAD, Arity::new(8).unwrap()] {
        for prg in [PrgKind::Aes, PrgKind::CHACHA8] {
            let cfg = FerretConfig {
                arity,
                prg,
                ..FerretConfig::new(FerretParams::toy())
            };
            let out = ironman_ot::ferret::run_extension(&cfg, 11);
            out.cots
                .verify()
                .unwrap_or_else(|i| panic!("{arity} {prg:?}: COT {i}"));
        }
    }
}

#[test]
fn communication_is_sublinear_in_outputs() {
    // The PCG property: bytes per output COT must be far below 1 block
    // (IKNP-style extension costs λ bits = 16 bytes per OT).
    let cfg = FerretConfig::new(FerretParams::toy());
    let out = ironman_ot::ferret::run_extension(&cfg, 13);
    let total = out.sender_stats.bytes_sent + out.receiver_stats.bytes_sent;
    let per_ot = total as f64 / out.cots.len() as f64;
    assert!(per_ot < 8.0, "{per_ot} bytes/OT is not sublinear-ish");
}
