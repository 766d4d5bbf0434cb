//! Quickstart: generate correlated OTs with the Ironman engine, verify the
//! correlation, and compare the simulated accelerator latency against the
//! CPU baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ironman_core::{Backend, Engine};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;

fn main() {
    // 1. Pick a parameter set. `toy()` runs in milliseconds; the paper's
    //    production sets are `FerretParams::TABLE4`.
    let params = FerretParams::toy();
    println!("parameter set: {params}");

    // 2. Build the engine: 4-ary ChaCha8 GGM trees (the paper's SPCOT
    //    optimization) timed on the simulated 16-rank / 1 MB Ironman-NMP.
    let cfg = FerretConfig::new(params);
    let engine = Engine::new(cfg, Backend::ironman_default());

    // 3. Run one extension: two real protocol parties exchange SPCOT and
    //    LPN messages over in-memory channels.
    let run = engine.run_one(0xC0FFEE);
    run.cots
        .verify()
        .expect("every COT must satisfy z = y xor x*delta");

    println!("produced {} correlated OTs", run.cots.len());
    println!(
        "sender sent {} bytes, receiver sent {} bytes",
        run.timing.sender_bytes, run.timing.receiver_bytes
    );
    println!(
        "simulated Ironman latency {:.3} ms vs CPU model {:.3} ms -> {:.1}x",
        run.timing.ironman_ms.unwrap_or(f64::NAN),
        run.timing.cpu_model_ms,
        run.timing.speedup()
    );

    // 4. Scale the timing estimate to a production set without running the
    //    full-size protocol.
    let prod = Engine::new(
        FerretConfig::new(FerretParams::OT_2POW20),
        Backend::ironman_default(),
    );
    let t = prod.estimate_timing(1);
    println!(
        "2^20 production set estimate: {:.2} ms on Ironman vs {:.2} ms on CPU ({:.0}x)",
        t.ironman_ms.unwrap(),
        t.cpu_model_ms,
        t.speedup()
    );
}
