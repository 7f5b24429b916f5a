#!/usr/bin/env bash
# Full local CI gate: the tier-1 build + test suite, then the sanitizer
# sweeps (ASan with leak detection, then TSan). Stops at the first failing
# stage so the earliest, cheapest signal is the one reported.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "==> tier-1: configure + build"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "==> tier-1: ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure

echo "==> bench-smoke: storage-layer memory gate"
BENCH_JSON_DIR="$BUILD_DIR/bench-json"
mkdir -p "$BENCH_JSON_DIR"
IDREPAIR_BENCH_JSON_DIR="$BENCH_JSON_DIR" "$BUILD_DIR/bench/bench_storage_memory"
# Compare the run's memory block against the committed baseline: any gate
# metric more than 10% above its baseline value fails CI. Lower is always
# better for these, so improvements pass and tighten nothing.
python3 - "$BENCH_JSON_DIR/BENCH_storage_memory.json" \
    bench/baselines/BENCH_storage_memory.json <<'EOF'
import json, sys
current = json.load(open(sys.argv[1]))["memory"]
baseline = json.load(open(sys.argv[2]))["memory"]
failed = False
for key, base in sorted(baseline.items()):
    now = current.get(key)
    if now is None:
        print(f"bench-smoke: FAIL missing metric {key}")
        failed = True
        continue
    limit = base * 1.10
    verdict = "FAIL" if now > limit else "ok"
    print(f"bench-smoke: {verdict} {key}: {now:.0f} vs baseline {base:.0f} "
          f"(limit {limit:.0f})")
    failed = failed or now > limit
sys.exit(1 if failed else 0)
EOF

echo "==> scenario: city-scale & adversarial workload matrix"
# The scenario tier (topology x traffic x error model through all four
# engines, metamorphic + quality oracles) ran inside tier-1; re-run it by
# name so a scenario regression reports as its own stage, then replay the
# scenario bench and hold its deterministic columns (vertices, records,
# erroneous, candidates, f_measure, set_dist) exactly to the committed
# BENCH_scenarios.json — those are pure functions of the catalog seeds, so
# any drift is a generator or repair-quality change that must be re-pinned
# deliberately. Timing columns are report-only.
ctest --test-dir "$BUILD_DIR" -R 'scenario_test' --output-on-failure
IDREPAIR_BENCH_JSON_DIR="$BENCH_JSON_DIR" "$BUILD_DIR/bench/bench_scenarios"
python3 - "$BENCH_JSON_DIR/BENCH_scenarios.json" BENCH_scenarios.json <<'EOF'
import json, sys
GATED = ["vertices", "records", "erroneous", "candidates", "f_measure",
         "set_dist"]
current = {r["scenario"]: r for t in json.load(open(sys.argv[1]))["tables"]
           for r in t["rows"]}
baseline = {r["scenario"]: r for t in json.load(open(sys.argv[2]))["tables"]
            for r in t["rows"]}
failed = False
for name, base in sorted(baseline.items()):
    now = current.get(name)
    if now is None:
        print(f"scenario: FAIL missing scenario {name}")
        failed = True
        continue
    bad = [c for c in GATED if now.get(c) != base.get(c)]
    for c in bad:
        print(f"scenario: FAIL {name}.{c}: {now.get(c)} vs committed "
              f"{base.get(c)}")
    if not bad:
        print(f"scenario: ok {name}")
    failed = failed or bool(bad)
sys.exit(1 if failed else 0)
EOF

echo "==> scaling: regression test + bench floor"
# The ctest half re-runs the scaling regression test on its own (byte
# identity at 1 vs 8 threads; it times nothing). The bench half replays the giant-component table and holds the 8-thread
# generation speedup to a floor scaled by the cores actually present:
# the full >=4x tentpole target on >=8 cores, cores/2 on smaller true
# multicores, and report-only below 4 cores. Override the computed floor
# with IDREPAIR_SCALING_BENCH_FLOOR (e.g. on a contended shared runner).
ctest --test-dir "$BUILD_DIR" -R 'scaling_test' --output-on-failure
IDREPAIR_BENCH_JSON_DIR="$BENCH_JSON_DIR" "$BUILD_DIR/bench/bench_ext_partitioned"
python3 - "$BENCH_JSON_DIR/BENCH_ext_partitioned.json" <<'EOF'
import json, os, sys
report = json.load(open(sys.argv[1]))
table = next(t for t in report["tables"]
             if t["title"].startswith("Single giant chain component"))
gen_ms = {row["threads"]: float(row["gen_ms"]) for row in table["rows"]}
speedup = gen_ms[1] / max(gen_ms[8], 1e-9)
cores = os.cpu_count() or 1
env_floor = os.environ.get("IDREPAIR_SCALING_BENCH_FLOOR")
if env_floor is not None:
    floor = float(env_floor)
elif cores >= 8:
    floor = 4.0
elif cores >= 4:
    floor = cores / 2.0
else:
    floor = None  # too few cores for any meaningful wall-clock gate
if floor is None:
    print(f"scaling: report-only ({cores} cores): 8-thread generation "
          f"speedup {speedup:.2f}x")
    sys.exit(0)
verdict = "ok" if speedup >= floor else "FAIL"
print(f"scaling: {verdict} 8-thread generation speedup {speedup:.2f}x "
      f"(floor {floor:.2f}x on {cores} cores)")
sys.exit(0 if speedup >= floor else 1)
EOF

echo "==> server: daemon e2e + snapshot kill-restart arm"
# The idrepaird end-to-end suite (register -> snapshot -> kill -> restart
# --load-dir -> byte-identical repair, admission shedding, wire garbage)
# plus the daemon kill-restart chaos arm. Both binaries were built by the
# tier-1 stage; this re-runs them by name so a server regression is
# reported as its own stage, not buried in the tier-1 wall of green.
ctest --test-dir "$BUILD_DIR" -R 'server_test|snapshot_test' --output-on-failure
"$BUILD_DIR/tests/chaos_test" \
  --gtest_filter='ChaosTest.DaemonKillRestartFromSnapshotIsByteIdentical'

echo "==> stream: incremental batch-equivalence differential tier"
# The streaming engine's per-window repairs must be byte-identical to the
# batch pipeline (tentpole invariant of the incremental rewrite), with the
# eviction-pattern fuzz/chaos arms alongside. Built by tier-1; re-run by
# name so a streaming regression reports as its own stage.
ctest --test-dir "$BUILD_DIR" -R 'stream_test|stream_differential_test' \
  --output-on-failure
"$BUILD_DIR/tests/chaos_test" \
  --gtest_filter='ChaosTest.SoakEvictionHeavyStreaming'

echo "==> sanitizer: address"
scripts/check_asan.sh

echo "==> sanitizer: thread"
scripts/check_tsan.sh

# Short seeded chaos stage under both sanitizers: the fault-injection
# matrix (chaos_test) at the thread counts the engines branch on. The
# sanitizer builds above already compiled chaos_test; this re-runs it with
# rotated seeds so CI doesn't always test the same fault schedule. The
# overnight version of this sweep is scripts/soak.sh.
echo "==> chaos: seeded fault-injection sweep (asan + tsan)"
CHAOS_SEED="$(date +%j)"  # rotate daily, stay reproducible within a day
for dir in build-asan build-tsan; do
  IDREPAIR_CHAOS_SEED_BASE="$CHAOS_SEED" IDREPAIR_CHAOS_ROUNDS=2 \
    ctest --test-dir "$dir" -R 'chaos_test' --output-on-failure
done

echo "ci: OK"
