//! Full-production-scale executions — the real Table 4 parameter sets,
//! not scaled models. Ignored by default (minutes of CPU in debug
//! builds); run with:
//!
//! ```sh
//! cargo test --release --test full_scale -- --ignored
//! ```

use ironman_ot::ferret::{run_extension, FerretConfig};
use ironman_ot::params::FerretParams;

#[test]
#[ignore = "production-scale: ~10s in release, minutes in debug"]
fn full_2pow20_extension_verifies() {
    let cfg = FerretConfig::new(FerretParams::OT_2POW20);
    let out = run_extension(&cfg, 2020);
    assert_eq!(out.cots.len(), cfg.usable_outputs());
    out.cots
        .verify()
        .expect("every one of the ~1.2M output COTs must be correlated");

    // The PCG property at production scale: sub-byte communication per OT.
    let total = out.sender_stats.bytes_sent + out.receiver_stats.bytes_sent;
    let per_ot = total as f64 / out.cots.len() as f64;
    assert!(per_ot < 1.0, "{per_ot:.3} B/OT at 2^20 scale");
}

#[test]
#[ignore = "production-scale"]
fn full_2pow20_baseline_binary_aes_verifies() {
    let cfg = FerretConfig::ferret_baseline(FerretParams::OT_2POW20);
    run_extension(&cfg, 2021).cots.verify().unwrap();
}

#[test]
#[ignore = "production-scale, two bootstrap iterations"]
fn full_2pow20_bootstrap_second_iteration() {
    // The recommended config: eight row blocks of the streamed schedule,
    // each handing its choice bits off as it finishes.
    let cfg = FerretConfig::recommended(FerretParams::OT_2POW20);
    let outs = ironman_ot::ferret::run_extensions(&cfg, 2022, 2);
    for out in &outs {
        out.cots.verify().unwrap();
    }
    assert_ne!(outs[0].cots.z[..32], outs[1].cots.z[..32]);
}
