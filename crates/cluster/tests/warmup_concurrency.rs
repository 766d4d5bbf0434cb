//! Concurrency hammer: 8 consumer threads drain a `SharedCotPool` while
//! the warm-up refiller races them on the same shards. Every batch must
//! still verify, counters must balance, and nothing may deadlock or
//! poison a shard.

use ironman_cluster::{Warmup, WarmupConfig};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use ironman_ot::{CotBatch, CotSlice, SharedCotPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn eight_threads_hammer_pool_under_warmup() {
    const THREADS: usize = 8;
    const TAKES_PER_THREAD: usize = 12;
    const BATCH: usize = 333;

    let ferret = FerretConfig::new(FerretParams::toy());
    let pool = Arc::new(SharedCotPool::new_pipelined(&ferret, 4, 0xFEED));
    let warmup = Warmup::spawn(
        Arc::clone(&pool),
        WarmupConfig {
            low_watermark: usize::MAX,
            // An aggressive sweep cadence maximizes interleaving with the
            // consumer threads; consumers keep shards below watermark, so
            // the adaptive back-off (bounded here anyway) stays reset.
            interval: Duration::from_micros(200),
            max_interval: Duration::from_micros(800),
        },
    );
    // The refiller wins a sweep only on a shard that is unlocked, below
    // the clamped watermark and has a staged batch. Eight consumers on
    // four shards leave almost no such moment, so if its thread first
    // runs after they have locked every shard it may never win before
    // `stop`. Wait, as
    // `warmup_fills_pool_before_demand` does, for its first win on the
    // still-empty pool, where every shard is below the watermark.
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.warmup_refills() == 0 {
        assert!(Instant::now() < deadline, "refiller never won a sweep");
        std::thread::sleep(Duration::from_millis(1));
    }

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                let mut batch = CotBatch::default();
                for _ in 0..TAKES_PER_THREAD {
                    pool.take_into(BATCH, &mut batch);
                    assert_eq!(batch.len(), BATCH);
                    batch.verify().expect("correlation holds under contention");
                }
            });
        }
    });

    warmup.stop();

    // Counter sanity after the race: every take was counted exactly once,
    // and warm-up did real work.
    let stats = pool.shard_stats();
    assert_eq!(
        stats.iter().map(|s| s.taken_cots).sum::<u64>(),
        (THREADS * TAKES_PER_THREAD * BATCH) as u64
    );
    let extensions_run: u64 = stats.iter().map(|s| s.extensions_run).sum();
    assert!(pool.warmup_refills() > 0, "refiller never won a sweep");
    assert!(extensions_run >= pool.warmup_refills());

    // The pool is still fully serviceable afterwards.
    pool.take_with_shard(BATCH, |runs, _| runs.iter().try_for_each(CotSlice::verify))
        .unwrap();
}
