//! Matrix-sharing accounting: N shards (2N parties) must generate **one**
//! LPN matrix, not 2N.
//!
//! This file deliberately holds a single `#[test]` so it compiles to a
//! test binary with no concurrent tests: [`LpnMatrix::generated_count`]
//! is a process-global counter, and any test generating a matrix in
//! parallel would race the deltas asserted here.

use ironman_lpn::LpnMatrix;
use ironman_ot::ferret::{FerretConfig, LpnKernel};
use ironman_ot::params::FerretParams;
use ironman_ot::{CotPool, SharedCotPool};
use std::sync::Arc;

#[test]
fn n_shards_generate_one_matrix() {
    let cfg = FerretConfig::new(FerretParams::toy());

    // `FerretConfig::new` is matrix-free (estimation sweeps build many
    // configs and never touch the matrix).
    assert_eq!(LpnMatrix::generated_count(), 0);

    // 3 pipelined shards = 6 parties on 3 session threads + 3 shard
    // pools: one generate.
    let before = LpnMatrix::generated_count();
    let pool = SharedCotPool::new_pipelined(&cfg, 3, 11);
    pool.take_with_shard(64, |slice, _| slice.verify()).unwrap();
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "3 pipelined shards must share one generated matrix"
    );

    // Inline shards bootstrap a fresh session per refill; the prebuilt
    // matrix must survive across refills too.
    let before = LpnMatrix::generated_count();
    let inline = SharedCotPool::new(&cfg, 2, 12);
    for _ in 0..3 {
        inline
            .take_with_shard(inline.max_request(), |slice, _| slice.verify())
            .unwrap();
    }
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "inline shards and their refills must share one matrix"
    );

    // A single pipelined pool still generates exactly once for its two
    // parties (the per-session dedup, without shard pre-sharing).
    let before = LpnMatrix::generated_count();
    let single = CotPool::pipelined(cfg.clone(), 13, Arc::default());
    drop(single);
    assert_eq!(LpnMatrix::generated_count() - before, 1);

    // A config that already carries the shared matrix spawns pools with
    // zero fresh generations.
    let before = LpnMatrix::generated_count();
    let mut prepared = cfg.clone();
    prepared.ensure_shared_matrix();
    assert_eq!(LpnMatrix::generated_count() - before, 1);
    let pool = SharedCotPool::new_pipelined(&prepared, 2, 14);
    pool.take_with_shard(64, |slice, _| slice.verify()).unwrap();
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "a prepared config must add no generations at spawn time"
    );

    // A tiled kernel stores the streamed tile schedule instead of
    // row-major `colidx`: still one tracked generation for all shards.
    let tiled = FerretConfig {
        kernel: LpnKernel::Tiled,
        ..FerretConfig::new(FerretParams::toy())
    };
    let before = LpnMatrix::generated_count();
    let pool = SharedCotPool::new_pipelined(&tiled, 3, 15);
    pool.take_with_shard(64, |slice, _| slice.verify()).unwrap();
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "3 tiled-kernel shards must share one streamed schedule"
    );
}
