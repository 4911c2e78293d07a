#!/usr/bin/env bash
# The repo's single benchmark. Run from anywhere; works on the repo root.
#
#   benchmark/run.sh [--seed S]            every workload, untraced (end-to-end
#                                          metrics) then traced (per-layer)
#   benchmark/run.sh --smoke [--seed S]    the same at toy size, < 20 s in all
#   benchmark/run.sh --selfcheck           the full set twice on one build;
#                                          fails if any end-to-end pair
#                                          disagrees by more than its bound
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                          one run (what BENCHMARK.json's
#                                          command gets); last line is JSON
#
# Builds the benchmark package first (offline, release). Exits non-zero if the
# build fails, a guard rail refuses the box, or any trial is incorrect.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A nested package does not inherit the root manifest's [profile.release];
# the two must be kept equal by hand, or the benchmark measures another build
# than the one users run.
release_profile() {
    awk '/^\[profile\.release\]/ {on = 1; next} /^\[/ {on = 0}
         on && !/^[[:space:]]*(#|$)/ {gsub(/[[:space:]]/, ""); print}' "$1" | sort
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
    echo "error: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml:" >&2
    diff <(release_profile Cargo.toml) <(release_profile benchmark/Cargo.toml) >&2 || true
    exit 2
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/agossip-benchmark"

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_COMMIT

mode=all
seed=2008
passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) mode=single; passthrough+=("$1" "$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --smoke) mode=smoke; shift ;;
        --selfcheck) mode=selfcheck; shift ;;
        *) passthrough+=("$1"); shift ;;
    esac
done

if [ "$mode" = single ]; then
    exec "$bin" "${passthrough[@]}" --seed "$seed"
fi

seconds="$(sed -n 's/.*"run_seconds"[^0-9]*\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)"
if [ -z "$seconds" ] || [ -z "$workloads" ]; then
    echo "error: cannot read run_seconds and the workload names from BENCHMARK.json" >&2
    exit 2
fi

# Every workload in a process of its own (so peak memory is per workload),
# first untraced, then traced.
run_set() {
    local failed=0
    for workload in $workloads; do
        for trace in 0 1; do
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" "$@" || failed=1
        done
    done
    return $failed
}

case "$mode" in
    all) run_set ;;
    smoke) seconds=0.1; run_set --smoke ;;
    selfcheck)
        status=0
        for half in first second; do
            rm -rf "benchmark/out/selfcheck-$half"
            mkdir -p "benchmark/out/selfcheck-$half"
            run_set > "benchmark/out/selfcheck-$half/run.log" || status=1
            mv benchmark/out/result-*.json "benchmark/out/selfcheck-$half/"
        done
        "$bin" compare BENCHMARK.json benchmark/out/selfcheck-first benchmark/out/selfcheck-second \
            || status=1
        exit $status
        ;;
esac
