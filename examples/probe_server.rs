//! Temporary lingering server for external wire probing. Delete me.
use ironman_net::{CotService, CotServiceConfig};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;

fn main() {
    let service = CotService::serve(
        "127.0.0.1:47393",
        &FerretConfig::recommended(FerretParams::toy()),
        CotServiceConfig {
            shards: 2,
            seed: 77,
            ..CotServiceConfig::default()
        },
    )
    .expect("bind");
    println!("ADDR {}", service.addr());
    std::thread::sleep(std::time::Duration::from_secs(120));
}
