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
use ironman_ot::{CotPool, CotSession, CotSlice, SharedCotPool};
use std::sync::Arc;

#[test]
fn n_shards_generate_one_matrix() {
    let cfg = FerretConfig::new(FerretParams::toy());

    // `FerretConfig::new` is matrix-free (estimation sweeps build many
    // configs and never touch the matrix).
    assert_eq!(LpnMatrix::generated_count(), 0);

    // 3 shards = 6 parties on 3 session threads + 3 shard pools: one
    // generate.
    let before = LpnMatrix::generated_count();
    let pool = SharedCotPool::new_pipelined(&cfg, 3, 11);
    pool.take_with_shard(64, |runs, _| runs.iter().try_for_each(CotSlice::verify))
        .unwrap();
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "3 shards must share one generated matrix"
    );

    // A single pool still generates exactly once for its two parties
    // (the per-session dedup, without shard pre-sharing).
    let before = LpnMatrix::generated_count();
    let single = CotPool::new(cfg.clone(), 13, Arc::default());
    drop(single);
    assert_eq!(LpnMatrix::generated_count() - before, 1);

    // A config that already carries the shared matrix spawns pools with
    // zero fresh generations.
    let before = LpnMatrix::generated_count();
    let mut prepared = cfg.clone();
    prepared.ensure_shared_matrix();
    assert_eq!(LpnMatrix::generated_count() - before, 1);
    let pool = SharedCotPool::new_pipelined(&prepared, 2, 14);
    pool.take_with_shard(64, |runs, _| runs.iter().try_for_each(CotSlice::verify))
        .unwrap();
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "a prepared config must add no generations at spawn time"
    );

    // A respawned session generates no new matrix: a pool replaces a
    // session whose thread died by spawning the next one from the config
    // it prebuilt its matrix into, as this spawn does (the pool's unit
    // test `a_dead_session_is_respawned_under_a_new_delta` checks that
    // the pool keeps that config).
    let respawned = CotSession::spawn(&prepared, 16, 2);
    respawned.recv().unwrap().verify().unwrap();
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "a respawned session must generate no new matrix"
    );

    // A tiled kernel stores the streamed tile schedule instead of
    // row-major `colidx`: still one tracked generation for all shards.
    let tiled = FerretConfig {
        kernel: LpnKernel::Tiled,
        ..FerretConfig::new(FerretParams::toy())
    };
    let before = LpnMatrix::generated_count();
    let pool = SharedCotPool::new_pipelined(&tiled, 3, 15);
    pool.take_with_shard(64, |runs, _| runs.iter().try_for_each(CotSlice::verify))
        .unwrap();
    assert_eq!(
        LpnMatrix::generated_count() - before,
        1,
        "3 tiled-kernel shards must share one streamed schedule"
    );
}
