#!/usr/bin/env bash
# Before/after pairs of the benchmark, as a change's CHANGES.md table
# quotes them.
#
#   scripts/pair.sh [--cores one|all] <ref> [workload ...]
#   scripts/pair.sh --report target/pair/runs-<time>.jsonl
#
# Builds the benchmark harness of <ref> (any commit-ish) from a `git
# archive` export under target/pair/, with its own CARGO_TARGET_DIR, then
# the working tree's harness with another. Then, per workload (default:
# every workload BENCHMARK.json lists), it runs ten pairs, one run of
# each side per pair, each a single `--workload W --seed i --seconds 16
# --trace 0` run: pair i uses seed i, and the side that runs first
# alternates from pair to pair, so drift of the host within a pair falls
# on both sides alike. Both sides run from the repo root.
#
# Per workload and end-to-end metric it prints the reference's median and
# the working tree's, the distance between the quartiles of the
# reference's runs, and in how many pairs the working tree was better
# (BENCHMARK.json gives each metric's direction). Every run's result line
# goes to target/pair/runs-<time>.jsonl (`--report` prints that file's
# table again); a run that was not correct or had a failed operation is
# reported and fails the script.
#
# Each harness build regenerates benchmark/Cargo.lock; the working tree's
# copy is put back as it was after the build. The ref is exported rather
# than checked out as a worktree, so an interrupted run leaves nothing
# registered in .git; the export is reused by later runs against the same
# commit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/pair.sh [--cores one|all] <ref> [workload ...]"
  echo "       scripts/pair.sh --report target/pair/runs-<time>.jsonl"
}

# report <runs.jsonl>: the table, and a failure for any run that was not
# correct or had a failed operation.
report() {
  jq -rs --slurpfile spec BENCHMARK.json '
    def quantile($q): sort | if length == 0 then null
      else ((length - 1) * $q) as $h | ($h | floor) as $lo
        | .[$lo] + ($h - $lo) * (.[[$lo + 1, length - 1] | min] - .[$lo]) end;
    def median: quantile(0.5);
    def fmt: if . == null then "-" elif . >= 1e5 then (. / 1e4 | round / 100 | tostring) + "M"
      else (. * 1000 | round / 1000 | tostring) end;
    . as $runs
    | ["workload", "metric", "ref median", "work median", "ref IQR", "wins"],
      ($runs | map(.workload) | unique[] as $w
        | $spec[0].end_to_end[] as $m
        | [$runs[] | select(.workload == $w)] as $rows
        | def values($side): [$rows[] | select(.side == $side) | .result.metrics[$m.name].value];
          values("ref") as $ref
        | [$rows | group_by(.pair)[]
            | [(map(select(.side == "ref"))[0].result.metrics[$m.name].value),
               (map(select(.side == "work"))[0].result.metrics[$m.name].value)]
            | select(all(. != null))] as $pairs
        | [$pairs[] | select(if $m.better == "higher" then .[1] > .[0] else .[1] < .[0] end)]
          as $wins
        | [$w, $m.name, ($ref | median | fmt), (values("work") | median | fmt),
           (if $ref == [] then null else ($ref | quantile(0.75)) - ($ref | quantile(0.25)) end | fmt),
           "\($wins | length)/\($pairs | length)"])
    | @tsv' "$1" | awk -F '\t' '
    { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } }
    END {
      for (r = 1; r <= NR; r++) {
        line = ""
        for (i = 1; i <= 6; i++)
          line = line sprintf("%" (i < 3 ? "-" : "") w[i] "s  ", cell[r, i])
        sub(/ +$/, "", line); print line
      }
    }'
  echo "(every run: $1)"
  local bad
  bad=$(jq -c 'select(.result.correct != true or .result.failed != 0)
    | {workload, pair, side}' "$1")
  if [ -n "$bad" ]; then
    echo "runs that were not correct or had failed operations:"
    echo "$bad"
    return 1
  fi
}

readonly pairs=10 seconds=16
cores=one
while [ $# -gt 0 ]; do
  case "$1" in
    --cores) cores=$2; shift 2 ;;
    --report) report "$2"; exit ;;
    -h|--help) usage; exit 0 ;;
    -*) echo "unknown option $1" >&2; usage >&2; exit 2 ;;
    *) break ;;
  esac
done
if [ $# -lt 1 ]; then
  usage >&2
  exit 2
fi
sha=$(git rev-parse --verify "$1^{commit}")
shift
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

root=target/pair
mkdir -p "$root"
lock_copy=$root/Cargo.lock.work

# build <source dir> <target dir>: the harness of that tree, leaving the
# working tree's benchmark/Cargo.lock as it found it.
build() {
  cp benchmark/Cargo.lock "$lock_copy"
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
  cp "$lock_copy" benchmark/Cargo.lock
}

ref_src=$root/ref-$sha
if [ ! -d "$ref_src" ]; then
  rm -rf "$ref_src.part"
  mkdir -p "$ref_src.part"
  git archive "$sha" | tar -x -C "$ref_src.part"
  mv "$ref_src.part" "$ref_src"
fi
echo "==> building the harness of ${sha:0:12}"
build "$ref_src" "$ref_src/target"
echo "==> building the working tree's harness"
build . "$root/work-target"
declare -A bin=(
  [ref]=$ref_src/target/release/benchmark
  [work]=$root/work-target/release/benchmark
)

runs=$root/runs-$(date +%Y%m%d-%H%M%S).jsonl
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order=(ref work); else order=(work ref); fi
    for side in "${order[@]}"; do
      echo "==> $w pair $i/$pairs: $side"
      line=$("${bin[$side]}" --workload "$w" --seed "$i" --seconds "$seconds" \
        --trace 0 --cores "$cores" | tail -n 1)
      jq -c --arg w "$w" --argjson pair "$i" --arg side "$side" \
        '{workload: $w, pair: $pair, side: $side, result: .}' <<<"$line" >>"$runs"
    done
  done
done

echo
echo "ref ${sha:0:12} vs working tree: $pairs pairs of $seconds s, --cores $cores"
report "$runs"
