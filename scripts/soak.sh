#!/usr/bin/env bash
# Nightly chaos soak: long seeded fault-injection sweeps under ASan and
# TSan. Reuses the chaos_test matrix (all four engines × fault ×
# thread-count × graph-shape) and stretches it through the environment:
# each round arms a fresh seeded fault schedule, so N rounds explore N
# distinct interleavings of errors, simulated alloc failures, delays and
# cancellations — every one of which must either degrade gracefully or
# propagate cleanly, byte-identically reproducible from its seed.
#
# Usage: scripts/soak.sh [rounds] [seed-base]
#   rounds     chaos rounds per sanitizer (default 50; a round is ~5 s)
#   seed-base  first seed (default: day of year, so nightly runs rotate
#              but any run can be reproduced by passing its seed back)
#
# Intended as the nightly CI entry point; scripts/ci.sh runs the short
# (2-round) version of the same sweep on every gate.
set -euo pipefail

cd "$(dirname "$0")/.."
ROUNDS="${1:-50}"
SEED_BASE="${2:-$(date +%j)}"

echo "soak: $ROUNDS rounds per sanitizer, seeds $SEED_BASE..$((SEED_BASE + ROUNDS - 1))"

run_sweep() {
  local build_dir="$1" sanitize="$2"
  shift 2
  cmake -S . -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIDREPAIR_SANITIZE="$sanitize" \
    >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" \
    --target chaos_test fault_test stats_json_test
  IDREPAIR_CHAOS_SEED_BASE="$SEED_BASE" IDREPAIR_CHAOS_ROUNDS="$ROUNDS" \
    "$@" ctest --test-dir "$build_dir" \
    -R 'chaos_test|fault_test|stats_json_test' --output-on-failure
}

echo "==> soak: address sanitizer"
run_sweep build-asan address \
  env ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"

echo "==> soak: thread sanitizer"
run_sweep build-tsan thread \
  env TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

echo "soak: OK ($ROUNDS rounds x 2 sanitizers, seed base $SEED_BASE)"
