//! Thread accounting: a [`CotSession`] runs on exactly one thread of its
//! own, which its drop joins — so a pool of N shards runs N session
//! threads.
//!
//! This file deliberately holds a single `#[test]` so it compiles to a
//! test binary with no concurrent tests: `/proc/self/task` lists every
//! thread of the process, and a second test spawning threads in parallel
//! would race the counts asserted here.

#![cfg(target_os = "linux")]

use ironman_ot::ferret::{FerretConfig, LpnKernel};
use ironman_ot::params::FerretParams;
use ironman_ot::session::CotSession;
use std::time::{Duration, Instant};

/// The threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux lists a process's threads in /proc/self/task")
        .count()
}

/// Waits (up to a few seconds) for the thread count to reach `want`: a
/// joined thread can linger in `/proc/self/task` for a moment after its
/// join returns.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        if now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_session_is_one_thread() {
    let cfg = FerretConfig {
        kernel: LpnKernel::Tiled,
        ..FerretConfig::new(FerretParams::toy())
    };
    let before = threads();
    let session = CotSession::spawn(&cfg, 5, 2);
    session.recv().expect("the session extends");
    // Staged up to its look-ahead, the session thread blocks: nothing
    // else comes or goes while the count is read.
    assert_eq!(threads(), before + 1, "a spawned session adds one thread");
    drop(session);
    assert_eq!(
        settles_at(before),
        before,
        "dropping it removes that thread"
    );
}
