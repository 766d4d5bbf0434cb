//! Drive the Ironman-NMP PU with its instruction set (paper Fig. 9):
//! compile one OTE execution into NMP instructions, inspect the wire
//! encoding, and interpret the program against the cycle models.
//!
//! ```sh
//! cargo run --release --example nmp_program
//! ```

use ironman_ggm::Arity;
use ironman_nmp::driver::{compile_ote, execute, ProgramContext};
use ironman_nmp::{NmpConfig, NmpOp};
use ironman_prg::{Block, PrgKind};

fn main() {
    let cfg = NmpConfig::with_ranks_and_cache(8, 256 * 1024);
    let ctx = ProgramContext {
        n: 1_221_516, // the 2^20 parameter set
        k: 168_000,
        weight: 10,
        leaves: 4096,
        arity: Arity::QUAD,
        prg: PrgKind::CHACHA8,
        seed: Block::from(0x1907u128),
        sample_rows: 8192,
    };

    // 1. Compile: host → instruction program.
    let program = compile_ote(&cfg, ctx.n, 480);
    println!(
        "compiled {} NMP instructions for one 2^20-set execution:",
        program.len()
    );
    for inst in program.iter().take(4) {
        println!("  {:?} -> wire {:#018x}", inst.op, inst.encode());
    }
    println!(
        "  ... ({} gathers, {} SPCOT batches, {} streams)",
        program.iter().filter(|i| i.op == NmpOp::LpnGather).count(),
        program
            .iter()
            .filter(|i| i.op == NmpOp::SpcotExpand)
            .count(),
        program.iter().filter(|i| i.op == NmpOp::ReadCot).count()
    );

    // 2. Interpret: program → cycles through the same DIMM/rank models the
    //    figure harnesses use.
    let report = execute(&cfg, &ctx, &program);
    println!("\nphase cycles:");
    println!("  vector broadcast {:>12}", report.write_cycles);
    println!(
        "  LPN gather       {:>12}  (slowest rank)",
        report.gather_cycles
    );
    println!(
        "  SPCOT expansion  {:>12}  (slowest DIMM)",
        report.spcot_cycles
    );
    println!(
        "  COT streaming    {:>12}  (overlap residual)",
        report.read_cycles
    );
    println!(
        "  total            {:>12}  = {:.3} ms at {} MHz",
        report.total_cycles(),
        cfg.cycles_to_ms(report.total_cycles()),
        cfg.clock_mhz()
    );
}
