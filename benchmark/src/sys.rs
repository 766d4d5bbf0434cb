//! What the harness reads from the operating system: process CPU time,
//! peak memory, thread counts, and the environment block that goes into
//! every result file so a number can be traced back to the box and the
//! commit that produced it. Linux `/proc` only; every reader degrades to
//! a zero / `"unknown"` rather than failing the run elsewhere.

use crate::json::{obj, Json};
use std::fs;

/// Nanoseconds of CPU all **live** threads of this process have been
/// scheduled for: `/proc/self/task/*/schedstat` field 1 (time actually
/// running, not run-queue wait), summed. Threads that already exited are
/// not counted, so take both readings of a window while the threads
/// doing its work are alive.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Sleeps until the whole process has gone quiet — under 5 % of one core
/// over a 20 ms window — or `limit` passes. Lets background work that a
/// set-up step kicked off (session threads staging their look-ahead)
/// finish before a window that is meant to exclude it opens.
pub fn wait_idle(limit: std::time::Duration) {
    let window = std::time::Duration::from_millis(20);
    let deadline = std::time::Instant::now() + limit;
    let mut before = process_cpu_ns();
    while std::time::Instant::now() < deadline {
        std::thread::sleep(window);
        let now = process_cpu_ns();
        if now.saturating_sub(before) < window.as_nanos() as u64 / 20 {
            return;
        }
        before = now;
    }
}

/// Pins the calling thread — and so every thread it spawns afterwards —
/// to one of the CPUs it may run on, and returns that CPU. The runs are
/// pinned because the benchmark host is two shared vCPUs and every
/// workload runs three or more threads: left free, the scheduler moves
/// them between "all on one CPU" and "spread over both" for seconds at a
/// time (`extend_lpn_heavy`: 11 M COT/s in the first state, 18 M in the
/// second, same CPU per COT), and the number measures that, not the
/// program. On one CPU a rate is
/// the CPU work per COT and nothing else. `None` where the platform has
/// no `sched_setaffinity` or the call fails; the run then goes unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // glibc's wrappers, declared here because the harness has no
        // `libc` crate to take them from. A `cpu_set_t` is 1024 bits.
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: both calls get a pointer to `size` valid bytes; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        // The highest allowed CPU: device interrupts land on CPU 0 first.
        let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
        let mut only = [0u64; 16];
        only[word] = 1 << (cpu % 64);
        // SAFETY: as above.
        if unsafe { sched_setaffinity(0, size, only.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Threads currently alive in this process.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.flatten().count())
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read straight from `.git` (the harness may
/// run from an exported tree that is not a repository: `"unknown"`).
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
    }
}

/// The environment block of a result file.
pub fn environment(seed: u64) -> Json {
    obj([
        ("git_commit", Json::from(git_commit())),
        ("nproc", Json::from(nproc())),
        ("cpu_model", Json::from(cpu_model())),
        (
            "simd_level",
            Json::from(format!("{:?}", ironman_lpn::SimdLevel::detect())),
        ),
        ("kernel", Json::from(kernel())),
        ("seed", Json::from(seed)),
        // Client and servers share this host: no NIC, no propagation
        // delay, and the kernel copies each byte twice.
        ("link", Json::from("loopback")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = process_cpu_ns();
        if before == 0 && after == 0 {
            return; // no schedstat on this platform
        }
        assert!(after > before, "CPU clock did not advance");
    }

    #[test]
    fn pinning_leaves_one_cpu_for_spawned_threads_too() {
        // Pinned from a thread of its own, so the other tests keep theirs.
        std::thread::spawn(|| {
            let Some(cpu) = pin_to_one_cpu() else {
                return; // no affinity control on this platform
            };
            assert_eq!(nproc(), 1);
            assert_eq!(std::thread::spawn(nproc).join().unwrap(), 1);
            assert_eq!(pin_to_one_cpu(), Some(cpu));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn environment_names_the_link_and_cores() {
        let env = environment(7);
        assert_eq!(env.get("link").and_then(Json::as_str), Some("loopback"));
        assert_eq!(env.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(env.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(thread_count() >= 1);
        assert!(peak_rss_mb() >= 0.0);
    }
}
