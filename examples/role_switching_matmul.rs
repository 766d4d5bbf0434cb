//! Role switching with the unified architecture: the same party acts as
//! OT sender in one extension and OT receiver in the next — the capability
//! the unified unit (paper §5.2) exists for — and the communication effect
//! on OT-based MatMul (Fig. 16).
//!
//! ```sh
//! cargo run --release --example role_switching_matmul
//! ```

use ironman_nmp::{NmpConfig, OteSimulator, OteWork};
use ironman_ot::ferret::{run_extension, FerretConfig};
use ironman_ot::params::FerretParams;
use ironman_perf::NetworkModel;
use ironman_ppml::matmul::FIG16_DIMS;
use ironman_prg::Block;

fn main() {
    // --- Functional role switching -------------------------------------
    // Party A plays OT sender in session 1 and OT receiver in session 2;
    // party B does the opposite. Both sessions produce valid correlations
    // (on Ironman hardware the same XOR-tree datapath serves both roles).
    let cfg_fwd = FerretConfig::new(FerretParams::toy());
    let cfg_rev = FerretConfig {
        session_key: Block::from(0xBEEFu128), // fresh session
        ..FerretConfig::new(FerretParams::toy())
    };
    let fwd = run_extension(&cfg_fwd, 1); // A = sender
    let rev = run_extension(&cfg_rev, 2); // roles swapped: A = receiver
    fwd.cots.verify().expect("forward session");
    rev.cots.verify().expect("reversed session");
    println!(
        "role switching: A sent {} COTs as sender, consumed {} as receiver — both sessions verify",
        fwd.cots.len(),
        rev.cots.len()
    );

    // --- Hardware view: both roles sharing one PU (paper 1 / 5.2) -------
    let sim = OteSimulator::new(NmpConfig::with_ranks_and_cache(8, 256 * 1024));
    let work = OteWork {
        sample_rows: Some(4096),
        ..OteWork::ironman(100_000, 1024, 48, 16_384, 10)
    };
    let dual = sim.simulate_dual_role(&work, 7);
    println!(
        "dual-role PU: shared {} cycles vs back-to-back {} cycles ({:.2}x from overlap)",
        dual.shared_cycles,
        dual.sequential_cycles,
        dual.overlap_gain()
    );

    // --- The protocol-level payoff (Fig. 16) ----------------------------
    println!("\nOT-based MatMul communication (BERT/LLAMA shapes, 8-bit):");
    for d in FIG16_DIMS {
        println!(
            "  ({:>2},{:>4},{:>3}): {:>7.2} MB fixed-role -> {:>7.2} MB unified ({:.2}x), LAN latency {:.2}x",
            d.input,
            d.hidden,
            d.output,
            d.comm_without_unified_bytes() as f64 / 1e6,
            d.comm_with_unified_bytes() as f64 / 1e6,
            d.comm_reduction(),
            d.latency_reduction(&NetworkModel::LAN)
        );
    }
}
