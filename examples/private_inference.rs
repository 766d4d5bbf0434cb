//! Private-inference scenario: estimate how Ironman changes the
//! end-to-end latency of secure CNN/Transformer inference in the three
//! hybrid HE/MPC frameworks the paper evaluates (Table 5), driven by the
//! OT-extension speedup measured on the simulated accelerator.
//!
//! ```sh
//! cargo run --release --example private_inference
//! ```

use ironman_core::speedup::speedup_cell;
use ironman_ot::params::FerretParams;
use ironman_ppml::e2e::{accelerate, SpeedupAssumptions};
use ironman_ppml::TABLE5_WORKLOADS;

fn main() {
    // Measure the OT-extension speedup on the flagship configuration.
    let cell = speedup_cell(FerretParams::OT_2POW20, 16, 1024 * 1024, 99);
    println!(
        "simulated OTE: {:.2} ms/execution on Ironman vs {:.2} ms on CPU -> {:.1}x",
        cell.ironman_ms,
        cell.cpu_ms,
        cell.speedup_vs_cpu()
    );
    let assumptions = SpeedupAssumptions {
        hardware: cell.speedup_vs_cpu(),
        ..SpeedupAssumptions::default()
    };

    // Apply it to a few representative inference workloads.
    for name in ["ResNet50", "BERT-Large"] {
        for w in TABLE5_WORKLOADS.iter().filter(|w| w.model == name) {
            let r = accelerate(w, &assumptions);
            let (s_wan, s_lan) = r.speedups();
            println!(
                "{:<11} {:<12} LAN {:>7.1}s -> {:>6.1}s ({:.2}x)   WAN {:>7.1}s -> {:>6.1}s ({:.2}x)",
                w.framework.to_string(),
                w.model,
                w.base_lan_s,
                r.ours_lan_s,
                s_lan,
                w.base_wan_s,
                r.ours_wan_s,
                s_wan
            );
        }
    }
    println!(
        "\n(the full sixteen-row Table 5 regeneration: cargo run --release -p ironman-bench --bin paper -- tab05)"
    );
}
