//! Fleet set-up shared by this crate's integration tests.

use ironman_cluster::{ClusterServerConfig, GossiperConfig, LocalCluster};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use std::time::Duration;

/// An `n`-server replicated fleet at toy parameters, gossiping every
/// 10 ms, returned once every replica and the observer view hold one
/// epoch vector — so a client routing on `directory()` sees the whole
/// fleet.
pub fn converged_fleet(n: usize, cfg: &ClusterServerConfig) -> LocalCluster {
    let ferret = FerretConfig::new(FerretParams::toy());
    let gossip = GossiperConfig {
        interval: Duration::from_millis(10),
        ..GossiperConfig::default()
    };
    let cluster = LocalCluster::spawn_replicated(n, &ferret, cfg, gossip).expect("spawn fleet");
    assert!(
        cluster.wait_converged(Duration::from_secs(30)),
        "fleet never converged"
    );
    cluster
}
