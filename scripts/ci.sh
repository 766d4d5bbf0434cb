#!/usr/bin/env bash
# Workspace CI, cheapest check first. Run from anywhere; operates on the
# repo root and leaves everything it writes under target/ (plus ci.log).
#   0. scripts/loc.sh's total, printed for information (not a gate)
#   1. cargo fmt --check, cargo clippy -D warnings, cargo doc over the
#      first-party crates with broken/private intra-doc links denied, the
#      serving crates' dependency tree free of the hardware models, and
#      the CPU-feature and IRONMAN_SIMD reads confined to one module
#      (seconds)
#   2. release build; every `paper` report at full size (its wall-clock
#      seconds and Table 2's software-check line printed for information,
#      not a gate); every crate's tests, the TCP-loopback e2e and the
#      fleet tests (cluster smoke, churn, multi-process partition/heal,
#      SLO e2e, chaos soak) included; the full-scale LPN matrix pins in
#      release; the kernel crates again on the forced-scalar tier;
#      ironman-ot and ironman-net's unit tests again with telemetry
#      compiled out
#   3. benchmark/'s own tests and its --smoke run, on both tiers
#   4. the benchmark gate: a fresh --runs 3 suite from benchmark/ judged
#      against scripts/bench_baseline.json by benchmark --compare
#   5. the telemetry-overhead head-to-head (instrumented vs no-op build)
# Two knobs reach the fleet tests through the environment:
#   MULTIPROC_WAIT_SECS (default 30) bounds every convergence wait of the
#     multi-process partition/heal test, and so its runtime on a wedged
#     fleet; the happy path finishes in ~10 s regardless.
#   CHAOS_SOAK_SECS (default 2) stretches the scripted chaos soak; set
#     30+ for a real soak.
set -euo pipefail
cd "$(dirname "$0")/.."

# Self-tee instead of `ci.sh | tee log`: piping from the outside makes the
# pipeline's exit status tee's, so a red run reads as green to anything
# checking $?. Writing the log from inside keeps our own exit status, and
# the EXIT trap prints an unmissable trailer either way.
CI_LOG="${CI_LOG:-ci.log}"
exec > >(tee "$CI_LOG") 2>&1
trap 'status=$?; if [ "$status" -ne 0 ]; then echo "CI FAILED (exit $status)"; fi' EXIT

echo "==> non-test, non-blank lines under crates/*/src (information only)"
scripts/loc.sh | tail -n 1

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc, first-party crates, broken or private intra-doc links denied"
# What a deletion leaves behind first is a doc comment naming the item
# that went. vendor/ is excluded: stand-ins, not ours to document.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --offline --no-deps --workspace --exclude proptest --exclude serde --exclude serde_derive

echo "==> serving crates link no hardware model"
# A pool needs only a FerretConfig, so ironman-net and ironman-cluster
# build on ironman-ot. Pulling ironman-core back in would drag the NMP
# simulator, with its DRAM and cache models, into every server binary.
tree=$(cargo tree --offline -e normal -p ironman-net -p ironman-cluster --prefix none)
if grep -E '^ironman-(core|nmp) ' <<<"$tree" | sort -u; then
  echo "DEPENDENCY GATE: the serving crates link the crates listed above"; exit 1
fi

echo "==> one module decides the kernel tiers"
# ironman_prg::cpu detects the CPU features once and reads IRONMAN_SIMD
# once; every kernel tier (AES, ChaCha level kernel, LPN block pass and
# placement) derives from it. A second detector could pick a tier the
# override or the other kernels do not know about.
if git grep --untracked -n -e 'is_x86_feature_detected' -e '"IRONMAN_SIMD"' -- 'crates/*/src/*' ':!crates/prg/src/cpu.rs'; then
  echo "TIER GATE: feature detection or an IRONMAN_SIMD read outside crates/prg/src/cpu.rs (listed above)"; exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> paper all, every report at full size"
# The test pass below runs each report on the smallest slice of its grid
# only; a report that panics at full size would reach no other stage.
# The reports themselves go to target/paper_all.txt; the stage's
# wall-clock seconds and Table 2's software check (measured block rates,
# and which AES and ChaCha level-kernel tier this host ran) are printed
# for information (not a gate).
paper_start=$(date +%s.%N)
./target/release/paper all > target/paper_all.txt
awk -v s="$paper_start" -v e="$(date +%s.%N)" \
  'BEGIN { printf "paper all: %.2f s wall clock (information only)\n", e - s }'
sed -n 's/^(software check, \(.*\))$/Table 2 software check (information only): \1/p' target/paper_all.txt

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> the Table-4 matrix and schedule, bit for bit (release, ~1 s)"
# The generator's proptests compare it with its definition at toy sizes
# only. These two ignored tests regenerate OT_2POW20's 2^20 x 168000
# matrix and its streamed schedule for three seeds each and check the
# recorded sums of their column indices, so a generator change that moves
# a single index fails here.
cargo test --release -q -p ironman-lpn --lib -- --ignored table4_matrix_is_pinned table4_schedule_is_pinned

echo "==> cargo test, kernel crates, forced-scalar dispatch"
# Every kernel tier derives from ironman_prg::cpu, which reads
# IRONMAN_SIMD once per process: the AES cipher, the ChaCha level kernel,
# the LPN session kernels (SimdMode::Auto) and the schedule placement. The
# pass above only ever ran the widest tier the host has. ironman-lpn rides
# along so its portable lanes and the software cipher behind the index
# generator are exercised under the override too. Every tier gives the
# same output, so the ignored test then checks that each kernel really
# took its portable tier.
IRONMAN_SIMD=scalar cargo test -q -p ironman-prg -p ironman-ggm -p ironman-lpn -p ironman-ot
IRONMAN_SIMD=scalar cargo test -q -p ironman-lpn --lib -- --ignored forced_scalar_pins_every_tier

echo "==> cargo test -q -p ironman-ot and ironman-net --lib, telemetry compiled out"
# The noop feature empties histogram records and trace pushes. The shard
# counters Stats reports live beside them, in the pool's SessionTelemetry,
# but must keep counting; this run fails if one of them is ever compiled
# out with the histograms. ironman-net's unit tests then check the
# service counters, the Stats codec and its frozen v11 bytes in the same
# build (--lib only: the crate's debug proptests take over a minute).
cargo test -q -p ironman-ot --features ironman-telemetry/noop
cargo test -q -p ironman-net --lib --features ironman-telemetry/noop

echo "==> benchmark harness: its own unit tests, then a --smoke run of every workload"
# benchmark/ is its own package (own workspace and lock file, path
# dependencies on crates/); read-only here. The smoke run drives the
# same code paths and correctness checks as the real one in < 10 s and
# exits non-zero if any delivered COT fails verification.
bench() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bench --smoke
# Again on the portable tier, so every workload's in-window z = y ^ x*delta
# check also covers the scalar lanes of the single-pass extension (the
# line above only ever ran the tier the host detects).
IRONMAN_SIMD=scalar bench --smoke

echo "==> benchmark gate: fresh suite vs scripts/bench_baseline.json"
# One measurement system: benchmark/ at Table-4 scale, each workload
# pinned to one CPU, every delivery verified, rates read off the
# 90th-percentile equal-work segment. scripts/bench_baseline.json was
# recorded on the build host with
#   cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
#     --seed 1 --runs 3 --out scripts/bench_baseline.json
# Re-record it the same way on a new host, or after an accepted change
# moves a metric. --compare exits non-zero when an end-to-end metric
# (cots_per_s, setup_s, peak_rss_mb) of a workload is worse than the
# baseline by more than its BENCHMARK.json bound, or failed_share rose; a
# pair too noisy to judge reads `unresolved` and does not fail. setup_s is
# also the AES-tier tripwire: a silent fall-back to the software cipher
# moves it about 4x.
bench --seed 1 --runs 3 --out target/bench_gate.json
bench --compare scripts/bench_baseline.json target/bench_gate.json

echo "==> telemetry-overhead head-to-head (--quick; writes target/telemetry_overhead.json)"
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
ratio=$(sed -n 's/.*"overhead_ratio": \([0-9.]*\).*/\1/p' target/telemetry_overhead.json)
if [ -z "$ratio" ]; then echo "TELEMETRY GATE: overhead_ratio missing/null in target/telemetry_overhead.json"; exit 1; fi
awk -v r="$ratio" 'BEGIN {
  if (r + 0 < 0.97) { printf "TELEMETRY GATE: instrumented/no-op ratio %.4f below 0.97 (overhead > 3%%)\n", r; exit 1 }
  printf "telemetry gate ok: instrumented/no-op CPU-per-COT ratio %.4f (>= 0.97)\n", r
}'

echo "CI OK"
