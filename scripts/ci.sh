#!/usr/bin/env bash
# Workspace CI: build, test (including the ironman-net TCP-loopback e2e),
# formatting, and lints. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Self-tee instead of `ci.sh | tee log`: piping from the outside makes the
# pipeline's exit status tee's, so a red run reads as green to anything
# checking $?. Writing the log from inside keeps our own exit status, and
# the EXIT trap prints an unmissable trailer either way.
CI_LOG="${CI_LOG:-ci.log}"
exec > >(tee "$CI_LOG") 2>&1
trap 'status=$?; if [ "$status" -ne 0 ]; then echo "CI FAILED (exit $status)"; fi' EXIT

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test, kernel crates, forced-scalar dispatch"
# The ChaCha level kernel, Block::xor_into and the LPN session kernels
# (SimdMode::Auto) pick their tier once per process; on an AVX2 host the
# pass above only ever ran the wide one. ironman-lpn rides along so its
# portable lanes and the software cipher behind the index generator are
# exercised under the override too.
IRONMAN_SIMD=scalar cargo test -q -p ironman-prg -p ironman-ggm -p ironman-lpn -p ironman-ot

echo "==> benchmark harness: its own unit tests, then a --smoke run of every workload"
# benchmark/ is its own package (own workspace and lock file, path
# dependencies on crates/); read-only here. The smoke run drives the
# same code paths and correctness checks as the real one in < 10 s and
# exits non-zero if any delivered COT fails verification.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
# Again on the portable tier, so every workload's in-window z = y ^ x*delta
# check also covers the scalar lanes of the single-pass extension (the
# line above only ever ran the tier the host detects).
IRONMAN_SIMD=scalar cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "==> cargo test -q --test net_loopback (TCP loopback e2e)"
cargo test -q --test net_loopback

echo "==> cluster smoke: 3-server fleet, routed clients, one-shot + streaming paths"
cargo test -q -p ironman-cluster --test cluster_e2e

echo "==> membership-churn smoke: kill + rejoin one of three servers under load"
cargo test -q -p ironman-cluster --test churn

echo "==> multi-process partition/heal: child fleet through a blackhole proxy (MULTIPROC_WAIT_SECS=${MULTIPROC_WAIT_SECS:-30})"
# Real fleet_server child processes with per-replica directories, one
# partitioned via the FaultInjector proxy, membership mutated on both
# sides, healed, and required to converge to one epoch vector — plus the
# warm-standby vs cold failover timing race. MULTIPROC_WAIT_SECS bounds
# every convergence wait (and thus the whole test's runtime on a wedged
# fleet); the happy path finishes in ~10 s regardless.
MULTIPROC_WAIT_SECS="${MULTIPROC_WAIT_SECS:-30}" cargo test -q -p ironman-cluster --test multiproc

echo "==> observability e2e: exporter scrape parses + supply SLO fires on kill, resolves on heal"
cargo test -q -p ironman-cluster --test slo_e2e

echo "==> chaos soak: seeded faults + degradation + heal (CHAOS_SOAK_SECS=${CHAOS_SOAK_SECS:-2})"
# Deterministic fault injection end-to-end: consume-once accounting under
# stalls/resets/bit-flips, typed bounded failure on a blackholed fleet,
# supply SLO firing through a starvation outage, and slow-subscriber
# eviction. CHAOS_SOAK_SECS stretches the scripted soak (default 2 s for
# the CI quick mode; set 30+ for a real soak).
CHAOS_SOAK_SECS="${CHAOS_SOAK_SECS:-2}" cargo test -q -p ironman-cluster --test chaos_soak

echo "==> cluster_loopback bench (--quick; refreshes BENCH_cluster.json)"
cargo run --release -p ironman-bench --bin cluster_loopback -- --quick

echo "==> hot-path bench (--quick; refreshes BENCH_hot_path.json)"
cargo run --release -p ironman-bench --bin hot_path -- --quick

echo "==> extension bench, forced-scalar dispatch (--quick)"
# First pass pins IRONMAN_SIMD=scalar so the scalar tier keeps its own
# throughput floor even on AVX2 hosts; the auto-detect pass runs second
# so the checked-in BENCH_extension.json always reflects the dispatch
# the library would actually pick on this machine.
IRONMAN_SIMD=scalar cargo run --release -p ironman-bench --bin extension -- --quick
mv BENCH_extension.json BENCH_extension_scalar.json

echo "==> extension bench, auto-detected dispatch (--quick; refreshes BENCH_extension.json)"
cargo run --release -p ironman-bench --bin extension -- --quick

echo "==> serving-throughput floors (quick mode, best-of-N)"
# Floors derived from the refreshed BENCH_cluster.json after the zero-copy
# hot-path PR: quick-mode cot_service_single measures ~225-280K COTs/s on
# the CI box (full mode ~750K) where the pre-zero-copy path managed ~140K
# quick (~207K full); quick cluster_streaming measures ~4M COTs/s against
# ~200K before. The floors sit between the two regimes with margin for
# scheduler noise, so a regression to the old copy-heavy path fails CI
# while an unlucky run does not.
check_floor() { # file name floor
  v=$(sed -n "s/.*\"name\": \"$2\".*\"cots_per_sec\": \([0-9.]*\).*/\1/p" "$1")
  if [ -z "$v" ]; then echo "FLOOR CHECK: $2 missing from $1"; exit 1; fi
  awk -v v="$v" -v f="$3" -v n="$2" 'BEGIN {
    if (v + 0 < f + 0) { printf "FLOOR CHECK: %s at %.0f COTs/s is below floor %.0f\n", n, v, f; exit 1 }
    printf "floor ok: %s at %.0f COTs/s (floor %.0f)\n", n, v, f
  }'
}
check_ceiling() { # file section key ceiling
  v=$(sed -n "s/.*\"$2\": {.*\"$3\": \([0-9.]*\).*/\1/p" "$1")
  if [ -z "$v" ]; then echo "CEILING CHECK: $2.$3 missing from $1"; exit 1; fi
  awk -v v="$v" -v c="$4" -v n="$2.$3" 'BEGIN {
    if (v + 0 > c + 0) { printf "CEILING CHECK: %s at %.3f is above ceiling %.3f\n", n, v, c; exit 1 }
    printf "ceiling ok: %s at %.3f (ceiling %.3f)\n", n, v, c
  }'
}
# The serving floors are latency-sensitive: on the shared one-core CI
# box a host-slowness burst can depress an entire best-of-5 window
# (observed 120K draws on trees that measure 200K+ in a calm window —
# including the pre-chaos-PR baseline, so it is machine noise, not a
# code regression). A structural regression to the old copy-heavy path
# fails every window deterministically, so a floor miss gets up to two
# settled re-measurements before it fails the gate.
cluster_floors() {
  check_floor BENCH_cluster.json cot_service_single 180000 \
    && check_floor BENCH_cluster.json cluster_streaming 1000000
}
if ! cluster_floors; then
  for retry in 1 2; do
    echo "serving-floor miss (attempt $retry): settling 60s, re-measuring"
    sleep 60
    cargo run --release -q -p ironman-bench --bin cluster_loopback -- --quick
    if cluster_floors; then break; fi
    [ "$retry" = 2 ] && { echo "serving floors failed after settled retries"; exit 1; }
  done
fi
# Raw-extension floors: a single pipelined session on the LPN-heavy set
# with the recommended split kernel measures ~10-11M COTs/s under
# auto-detected AVX2/BMI2 dispatch and ~8.5-9M forced scalar (best-of-N
# quick mode, slow-host day; a calm host runs ~1.4x those), against
# ~6-7M for the naive kernels and well under 2M if the supply path
# regresses structurally (per-refill bootstraps, extra copies, broken
# schedule caching). Each floor sits between the naive and measured
# regimes with ~1.5x host-noise margin, so a regression to naive
# kernels or a broken SIMD tier fails while an unlucky window does not
# (same settled-retry treatment as the serving floors). Kernel-ranking
# regressions are guarded separately by the head-to-head table in
# BENCH_extension.json and the equivalence proptests.
extension_floors() {
  check_floor BENCH_extension.json extend_recommended 7000000 \
    && check_floor BENCH_extension_scalar.json extend_recommended 5500000
}
if ! extension_floors; then
  for retry in 1 2; do
    echo "extension-floor miss (attempt $retry): settling 60s, re-measuring"
    sleep 60
    IRONMAN_SIMD=scalar cargo run --release -q -p ironman-bench --bin extension -- --quick
    mv BENCH_extension.json BENCH_extension_scalar.json
    cargo run --release -q -p ironman-bench --bin extension -- --quick
    if extension_floors; then break; fi
    [ "$retry" = 2 ] && { echo "extension floors failed after settled retries"; exit 1; }
  done
fi
# Matrix-build ceiling: generating the Table-4 matrix (2^20 x 168 000,
# d = 10) measures ~0.10-0.18 s on the AES-NI tier and ~0.9-1.2 s on the
# software cipher, so 0.45 s sits 2.5x above one regime and 2x below the
# other: a silent fall-back to the software tier fails here, a slow window
# does not. BENCH_extension_scalar.json is not gated - that tier keeps the
# software cipher by design.
check_ceiling BENCH_extension.json shared_matrix matrix_build_secs 0.45

echo "==> telemetry-overhead head-to-head (--quick; refreshes BENCH_telemetry.json)"
# Two builds of one binary: --features telemetry-noop compiles every
# histogram record, trace push, and call-site Stopwatch clock read to
# nothing. The feature unifies across the workspace, so the no-op build
# is parked aside before the instrumented rebuild clobbers it; the
# instrumented binary then alternates baseline/live rounds adjacent in
# time (--pair-with) and reports the median CPU-per-COT ratio, which
# must show instrumentation costing under 3% of the serving hot path.
cargo build --release -p ironman-bench --features telemetry-noop --bin telemetry_overhead
cp target/release/telemetry_overhead target/release/telemetry_overhead_noop
cargo build --release -p ironman-bench --bin telemetry_overhead
./target/release/telemetry_overhead --quick --pair-with target/release/telemetry_overhead_noop
ratio=$(sed -n 's/.*"overhead_ratio": \([0-9.]*\).*/\1/p' BENCH_telemetry.json)
if [ -z "$ratio" ]; then echo "TELEMETRY GATE: overhead_ratio missing/null in BENCH_telemetry.json"; exit 1; fi
awk -v r="$ratio" 'BEGIN {
  if (r + 0 < 0.97) { printf "TELEMETRY GATE: instrumented/no-op ratio %.4f below 0.97 (overhead > 3%%)\n", r; exit 1 }
  printf "telemetry gate ok: instrumented/no-op CPU-per-COT ratio %.4f (>= 0.97)\n", r
}'

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
