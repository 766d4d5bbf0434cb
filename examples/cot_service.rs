//! A COT service on a loopback socket serving several concurrent clients.
//!
//! Run with `cargo run --example cot_service --release`. The server plays
//! the Ironman host role: FERRET extensions refill a sharded pool while
//! PPML-style clients drain it over TCP sessions.

use ironman_net::{CotClient, CotService, CotServiceConfig};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use ironman_ot::CotBatch;
use std::time::Instant;

fn main() {
    let service = CotService::serve(
        "127.0.0.1:0",
        &FerretConfig::recommended(FerretParams::toy()),
        CotServiceConfig {
            shards: 4,
            seed: 2024,
            ..CotServiceConfig::default()
        },
    )
    .expect("bind loopback service");
    let addr = service.addr();
    println!("cot-service listening on {addr}");

    let start = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|id| {
            std::thread::spawn(move || {
                let name = format!("worker-{id}");
                let mut client = CotClient::connect(addr, &name).expect("connect");
                let mut got = 0usize;
                let mut batch = CotBatch::default();
                for _ in 0..8 {
                    client.request_cots_into(500, &mut batch).expect("request");
                    batch.verify().expect("verified correlation");
                    got += batch.len();
                }
                let stats = client.transport_stats();
                println!(
                    "{name}: {got} COTs over {} payload bytes in {} messages",
                    stats.total_bytes(),
                    stats.messages_sent
                );
                got
            })
        })
        .collect();

    let total: usize = clients.into_iter().map(|t| t.join().expect("client")).sum();
    let elapsed = start.elapsed();
    let stats = service.shutdown();
    println!(
        "served {total} verified COTs to {} sessions in {:.2?} \
         ({} extensions across {} shards, {:.0} COTs/s)",
        stats.clients_served,
        elapsed,
        stats.extensions_run,
        stats.shards,
        total as f64 / elapsed.as_secs_f64()
    );

    // The v6 latency telemetry, per shard and service-wide: quantiles
    // are bucket ceilings (within 6.25% of the true sample).
    let us = |nanos: u64| nanos as f64 / 1_000.0;
    for (i, shard) in stats.shard_stats.iter().enumerate() {
        let req = &shard.latency.request_first_byte;
        let ext = &shard.latency.extension;
        println!(
            "shard {i}: request->first-byte p50 {:.1}us / p99 {:.1}us ({} reqs), \
             extension p50 {:.1}us / p99 {:.1}us ({} runs)",
            us(req.p50()),
            us(req.p99()),
            req.count(),
            us(ext.p50()),
            us(ext.p99()),
            ext.count()
        );
    }
    let req = &stats.latency.request_first_byte;
    println!(
        "service-wide: request->first-byte p50 {:.1}us / p99 {:.1}us / p999 {:.1}us \
         over {} requests",
        us(req.p50()),
        us(req.p99()),
        us(req.p999()),
        req.count()
    );
}
