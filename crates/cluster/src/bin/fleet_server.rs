//! A standalone replicated fleet member: one [`ClusterServer`] process
//! carrying its own [`Directory`] replica, converged with its peers by
//! an anti-entropy [`Gossiper`] (wire v9) — the child-process shape the
//! multi-process partition/heal tests drive through a fault-injecting
//! TCP proxy, and a template for running a real fleet one process per
//! member.
//!
//! Flags (all `--key value` except the boolean switches):
//!
//! * `--id <u64>` — stable server id (required).
//! * `--name <str>` — display name (default `fleet-<id>`).
//! * `--bind <addr>` — listen address (default `127.0.0.1:0`).
//! * `--advertise <addr>` — the address *peers* should dial (default:
//!   the bound address). A proxied or NATed member advertises its proxy.
//! * `--seed-peers <addr,addr,...>` — gossip rendezvous peers dialed on
//!   every sweep regardless of membership.
//! * `--weight <u32>` — ring weight (default 1).
//! * `--params toy|toy-large` — FERRET parameter set (default `toy`).
//! * `--gossip-ms <u64>` — gossip sweep cadence (default 25).
//! * `--warmup` — run the per-server warm-up refiller.
//! * `--health` — install the strike policy on the gossiper: each pull
//!   is also that peer's probe, and evictions are lease-gated.
//!
//! Prints `LISTENING <bound-addr>` on stdout once serving, then obeys a
//! line protocol on stdin (the parent's control channel — pull-only
//! gossip means every member must know every rendezvous address, and
//! the parent only has them all once every child has bound):
//!
//! * `SEEDS <addr,addr,...>` — announce into the replica and start the
//!   gossiper (probing, with `--health`) with these rendezvous peers;
//!   answers `READY`.
//! * `LEAVE <id>` / `DRAIN <id>` — mutate the local replica (the
//!   partition-side membership writes the churn tests need); answers
//!   `OK`.
//! * EOF — graceful shutdown (the parent closed the pipe); the process
//!   is also safe to kill outright (crash-failover tests do).

use ironman_cluster::{
    ClusterServer, ClusterServerConfig, Directory, GossipIdentity, Gossiper, GossiperConfig,
    HealthConfig, ServerId, WarmupConfig,
};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    id: u64,
    name: Option<String>,
    bind: String,
    advertise: Option<SocketAddr>,
    seed_peers: Vec<SocketAddr>,
    weight: u32,
    params: FerretParams,
    gossip_ms: u64,
    warmup: bool,
    health: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fleet_server --id <u64> [--name <str>] [--bind <addr>] [--advertise <addr>] \
         [--seed-peers <addr,..>] [--weight <u32>] [--params toy|toy-large] [--gossip-ms <u64>] \
         [--warmup] [--health]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        id: u64::MAX,
        name: None,
        bind: "127.0.0.1:0".to_string(),
        advertise: None,
        seed_peers: Vec::new(),
        weight: 1,
        params: FerretParams::toy(),
        gossip_ms: 25,
        warmup: false,
        health: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| usage_missing(flag));
        match flag.as_str() {
            "--id" => args.id = value("--id").parse().unwrap_or_else(|_| usage()),
            "--name" => args.name = Some(value("--name")),
            "--bind" => args.bind = value("--bind"),
            "--advertise" => {
                args.advertise = Some(value("--advertise").parse().unwrap_or_else(|_| usage()));
            }
            "--seed-peers" => {
                args.seed_peers = value("--seed-peers")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--weight" => args.weight = value("--weight").parse().unwrap_or_else(|_| usage()),
            "--params" => match value("--params").as_str() {
                "toy" => args.params = FerretParams::toy(),
                "toy-large" => args.params = FerretParams::toy_large(),
                _ => usage(),
            },
            "--gossip-ms" => {
                args.gossip_ms = value("--gossip-ms").parse().unwrap_or_else(|_| usage());
            }
            "--warmup" => args.warmup = true,
            "--health" => args.health = true,
            _ => usage(),
        }
    }
    if args.id == u64::MAX {
        usage();
    }
    args
}

fn usage_missing(flag: &str) -> String {
    eprintln!("missing value for {flag}");
    usage();
}

fn main() {
    let args = parse_args();
    let id = ServerId(args.id);
    let name = args
        .name
        .clone()
        .unwrap_or_else(|| format!("fleet-{}", args.id));
    let ferret = FerretConfig::new(args.params);
    let directory = Arc::new(Directory::new_replica(id));
    let cfg = ClusterServerConfig {
        warmup: args.warmup.then(WarmupConfig::default),
        // Distinct streams per member: no two servers may share a
        // correlation seed, or their Δ streams collide.
        service: ironman_net::CotServiceConfig {
            seed: 0x5EED_0000 ^ args.id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..ironman_net::CotServiceConfig::default()
        },
    };
    let server = ClusterServer::spawn(
        args.bind.as_str(),
        &ferret,
        cfg,
        Some(Arc::clone(&directory)),
    )
    .expect("bind listen address");
    server.set_self_id(id);
    // Peers dial the advertised address (the proxy, behind one), not the
    // bind address; everything this process announces must carry it.
    let advertise = args.advertise.unwrap_or_else(|| server.addr());

    println!("LISTENING {}", server.addr());
    std::io::stdout().flush().expect("flush stdout");

    let mut gossiper: Option<Gossiper> = None;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        match words.next() {
            Some("SEEDS") => {
                let mut seeds: Vec<SocketAddr> = words
                    .next()
                    .unwrap_or("")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().expect("parseable seed address"))
                    .collect();
                seeds.extend(args.seed_peers.iter().copied());
                gossiper.get_or_insert_with(|| {
                    let gossiper = Gossiper::spawn(
                        Arc::clone(&directory),
                        GossiperConfig {
                            interval: Duration::from_millis(args.gossip_ms.max(1)),
                            identity: Some(GossipIdentity {
                                id,
                                addr: advertise,
                                name: name.clone(),
                                weight: args.weight,
                            }),
                            seeds,
                            ..GossiperConfig::default()
                        },
                    );
                    if args.health {
                        gossiper.enable_health(HealthConfig::default());
                    }
                    gossiper
                });
                println!("READY");
            }
            // Local replica mutations: the churn tests write membership
            // on *both* sides of a partition, and this process is the
            // only writer its island has.
            Some("LEAVE") => {
                let target: u64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("LEAVE <id>");
                directory.leave(ServerId(target));
                println!("OK");
            }
            Some("DRAIN") => {
                let target: u64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("DRAIN <id>");
                directory.drain(ServerId(target));
                println!("OK");
            }
            Some(_) | None => {}
        }
        std::io::stdout().flush().expect("flush stdout");
    }
    if let Some(gossiper) = gossiper {
        gossiper.stop();
    }
    server.shutdown();
}
