#!/usr/bin/env bash
# Tier-1 verification plus smoke tests — the sequence a CI step should run
# on every push.
#
#   tools/run_checks.sh [build-dir]
#
# 0. lint: the convoy_lint self-test (every rule must fire on a seeded
#    violation), a repo-wide convoy_lint pass over src/, and — when the
#    binary is available — clang-tidy (.clang-tidy profile) on the .cc
#    files changed vs origin/main;
# 1. configure + build + ctest in the default RelWithDebInfo configuration
#    (the repo's tier-1 verify command), with -DCONVOY_WERROR=ON — all
#    three build types promote warnings to errors here and in CI;
# 2. configure + build + ctest again in Debug — RelWithDebInfo defines
#    NDEBUG, so running BOTH build types ensures the recoverable error
#    model is exercised with and without asserts and an assert-only
#    regression can never hide;
# 3. configure + build + ctest a third time in Release (-O3 -DNDEBUG) —
#    the configuration the performance claims are made in; hot-path
#    parity must hold under full optimization too;
# 3b. TSan smoke: build the thread-focused tests (race_stress, trace,
#    streaming) with -DCONVOY_SANITIZE=thread and run them — the dedicated
#    CI job runs the whole suite under TSan, this leg catches the common
#    races locally first;
# 3c. scalar-kernel leg: build the distance-heavy suites with
#    -DCONVOY_SIMD=OFF and run them — the kernels' compile-time scalar
#    fallback must stay bit-identical to the AVX2 path;
# 4. bench smoke: run the Release bench/scalability and require it to
#    produce a well-formed BENCH_hotpath.json (the machine-readable perf
#    trajectory tracked across PRs);
# 4a. perfbench self-test: python3 perfbench/test_perfbench.py runs every
#    benchmark workload at toy scale — it catches a library change that
#    breaks the benchmark's build, its correctness gate, or its
#    decomposed-pipeline check (the benchmark's own CutsRefine call must
#    return Execute's convoys);
# 4b. durable-ingest smoke: an fsync-policy sweep (none / interval /
#    every_tick, each against its own WAL-backed daemon) plus a chaos run
#    that SIGKILLs the daemon mid-ingest and requires the recovered
#    closed-convoy events to be bit-identical to an unfaulted local
#    replay, and the recovered streams' live kQuery answers to equal a
#    local Cmc() — the crash-recovery property, end to end over processes;
# 5. generate a small synthetic dataset with convoy_cli;
# 6. run CuTS* and CMC discovery with 1 and 2 worker threads and require
#    byte-identical results (the parallel subsystem's core guarantee), and
#    CuTS* with --repeat 3, whose warm runs (served by the clustering
#    memo) must return the first run's convoys;
# 7. drive convoy_cli's error paths and require the documented exit codes
#    (1 usage — malformed numeric values included, 2 I/O, 3 invalid query,
#    4 data error), and require convoy_serverd, convoy_loadgen and the
#    bench binaries to reject malformed numeric flags with usage code 1;
#    run a database at the top of the tick range through the auto plan and
#    CuTS* under a memory cap, requiring verified convoys;
# 8. smoke the planner: --algo auto --explain must print the chosen
#    algorithm and the resolved delta/lambda;
# 9. smoke the observability surface: --explain-analyze must print
#    measured counters/spans, --trace must emit valid Chrome trace-event
#    JSON (validated against the format with python3 when available), and
#    --report must carry an enabled metrics block.
#
# Before any of that: refuse to run if build artifacts are tracked by git
# (a PR once committed 688 of them; .gitignore's build*/ plus this guard
# keep it from recurring).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
DEBUG_BUILD_DIR="${BUILD_DIR}-debug"
RELEASE_BUILD_DIR="${BUILD_DIR}-release"

echo "== tracked-build-artifact guard =="
# Anchored to build*/ *directories* so a legitimate build.sh/buildspec.yml
# at the root would not trip it.
if git -C "${REPO_ROOT}" ls-files | grep -q '^build[^/]*/'; then
  echo "FAIL: build artifacts are tracked by git:"
  git -C "${REPO_ROOT}" ls-files | grep '^build[^/]*/' | head -10
  echo "(git rm -r --cached them; .gitignore covers build*/)"
  exit 1
fi
echo "ok: no tracked build artifacts"

echo "== lint (convoy_lint self-test + repo-wide pass) =="
if command -v python3 > /dev/null 2>&1; then
  python3 "${REPO_ROOT}/tools/lint/lint_selftest.py"
  python3 "${REPO_ROOT}/tools/lint/convoy_lint.py" --root "${REPO_ROOT}" src
else
  echo "skip: python3 unavailable (CI runs the lint job with python3)"
fi

echo "== configure (RelWithDebInfo) =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCONVOY_WERROR=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build (RelWithDebInfo) =="
cmake --build "${BUILD_DIR}" -j "$(nproc)"

echo "== ctest (RelWithDebInfo — NDEBUG, asserts compiled out) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "== clang-tidy (changed files; skipped when unavailable) =="
if command -v clang-tidy > /dev/null 2>&1; then
  # Changed .cc files vs the merge base with main (all of src/ when the
  # base cannot be resolved — e.g. a shallow clone).
  TIDY_BASE="$(git -C "${REPO_ROOT}" merge-base HEAD origin/main \
               2> /dev/null || echo "")"
  if [[ -n "${TIDY_BASE}" ]]; then
    mapfile -t TIDY_FILES < <(git -C "${REPO_ROOT}" diff --name-only \
        --diff-filter=d "${TIDY_BASE}" -- 'src/*.cc' 'tools/*.cc')
  else
    mapfile -t TIDY_FILES < <(cd "${REPO_ROOT}" && ls src/*/*.cc)
  fi
  if [[ "${#TIDY_FILES[@]}" -gt 0 ]]; then
    (cd "${REPO_ROOT}" && clang-tidy -p "${BUILD_DIR}" "${TIDY_FILES[@]}")
    echo "ok: clang-tidy clean on ${#TIDY_FILES[@]} file(s)"
  else
    echo "ok: no changed .cc files to tidy"
  fi
else
  echo "skip: clang-tidy unavailable (CI runs it in the lint job)"
fi

echo "== configure (Debug) =="
cmake -B "${DEBUG_BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Debug \
      -DCONVOY_WERROR=ON

echo "== build (Debug) =="
cmake --build "${DEBUG_BUILD_DIR}" -j "$(nproc)"

echo "== ctest (Debug — asserts live) =="
ctest --test-dir "${DEBUG_BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "== configure (Release — the configuration perf claims are made in) =="
cmake -B "${RELEASE_BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release \
      -DCONVOY_WERROR=ON

echo "== build (Release) =="
cmake --build "${RELEASE_BUILD_DIR}" -j "$(nproc)"

echo "== ctest (Release — -O3 -DNDEBUG) =="
ctest --test-dir "${RELEASE_BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "== TSan smoke (race-stress + trace suites under ThreadSanitizer) =="
# The full suite runs under TSan in the dedicated CI job; locally this leg
# builds the thread-focused tests only, so the hot race surfaces (engine
# caches, clustering-memo eviction, live trace reads, streaming ticks) are
# verified on every run without tripling the wall time.
TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_BUILD_DIR}" -S "${REPO_ROOT}" -DCONVOY_SANITIZE=thread \
      -DCONVOY_WERROR=ON
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" \
      --target race_stress_test trace_test streaming_test ring_test \
               server_test wal_test recovery_test
TSAN_OPTIONS="suppressions=${REPO_ROOT}/tools/tsan.supp" \
  ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure \
        -R 'race_stress_test|trace_test|streaming_test|ring_test|server_test|wal_test|recovery_test'

echo "== scalar-kernel leg (-DCONVOY_SIMD=OFF, compile-time fallback) =="
# The distance kernels carry a compile-time scalar fallback that must stay
# bit-identical to the AVX2 path; this leg builds the distance-heavy suites
# without AVX2 codegen and runs them (CI mirrors it as a matrix entry).
SCALAR_BUILD_DIR="${BUILD_DIR}-scalar"
cmake -B "${SCALAR_BUILD_DIR}" -S "${REPO_ROOT}" -DCONVOY_SIMD=OFF \
      -DCONVOY_WERROR=ON
cmake --build "${SCALAR_BUILD_DIR}" -j "$(nproc)" \
      --target polyline_parity_test polyline_dbscan_test cuts_test \
               hotpath_parity_test grid_index_test
ctest --test-dir "${SCALAR_BUILD_DIR}" --output-on-failure -R \
  'polyline_parity_test|polyline_dbscan_test|cuts_test|hotpath_parity_test|grid_index_test'

echo "== threading determinism smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
CLI="${BUILD_DIR}/convoy_cli"

echo "== bench smoke (BENCH_hotpath.json produced and well-formed) =="
BENCH_JSON="${SMOKE_DIR}/BENCH_hotpath.json"
"${RELEASE_BUILD_DIR}/bench/scalability" --json "${BENCH_JSON}" > /dev/null
if [[ ! -s "${BENCH_JSON}" ]]; then
  echo "FAIL: bench/scalability did not produce ${BENCH_JSON}"
  exit 1
fi
if command -v python3 > /dev/null 2>&1; then
  python3 - "${BENCH_JSON}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "convoy-bench-hotpath-v3", doc.get("schema")
results = doc["results"]
assert results, "no results"
for row in results:
    assert {"bench", "n", "threads", "ns_per_op"} <= set(row), row
names = {row["bench"] for row in results}
for needed in ("snapshot_cluster_reference", "snapshot_cluster_csr_arena",
               "cmc_e2e_reference", "cmc_e2e_optimized", "cmc_e2e_traced",
               "cuts_filter_reference", "cuts_filter_soa",
               "cuts_filter_simd", "cuts_star_e2e_optimized"):
    assert needed in names, f"missing bench entry: {needed}"
phases = doc["phases"]
assert phases, "no phases (traced run recorded no spans)"
for row in phases:
    assert {"name", "count", "total_ms"} <= set(row), row
phase_names = {row["name"] for row in phases}
for needed in ("prepare", "execute", "filter.partition", "refine.unit"):
    assert needed in phase_names, f"missing phase: {needed}"
print(f"ok: {len(results)} well-formed results, {len(phases)} phases")
PYEOF
else
  # No python3: at least require the schema marker and one result row.
  grep -q '"schema": "convoy-bench-hotpath-v3"' "${BENCH_JSON}"
  grep -q '"phases"' "${BENCH_JSON}"
  grep -q '"ns_per_op"' "${BENCH_JSON}"
  echo "ok: schema marker and result rows present (python3 unavailable)"
fi
echo "ok: BENCH_hotpath.json produced and well-formed"

echo "== perfbench self-test (toy workloads, gate, decomposed pipeline) =="
if command -v python3 > /dev/null 2>&1; then
  python3 "${REPO_ROOT}/perfbench/test_perfbench.py"
else
  echo "skip: python3 unavailable (CI runs it in the tier-1 job)"
fi

"${CLI}" --generate carlike --scale 0.1 --seed 99 \
         --output "${SMOKE_DIR}/data.csv" > /dev/null

# Two queries: the smoke query, which finds no convoy on this dataset, and
# one that finds some, so the comparison is not between two empty answers.
# A third run repeats the query three times on one engine: --repeat exits
# non-zero unless every warm run, served by the clustering memo, returns
# the first run's convoys, and that first run must equal the one-thread
# answer.
for query in "--m 3 --k 60 --e 8.0" "--m 2 --k 5 --e 30"; do
  for algo in "cuts*" cmc mc2; do
    # shellcheck disable=SC2086  # ${query} is several flags
    "${CLI}" --input "${SMOKE_DIR}/data.csv" ${query} \
             --algo "${algo}" --threads 1 --results "${SMOKE_DIR}/t1.csv" \
             > /dev/null
    # shellcheck disable=SC2086
    "${CLI}" --input "${SMOKE_DIR}/data.csv" ${query} \
             --algo "${algo}" --threads 2 --results "${SMOKE_DIR}/t2.csv" \
             > /dev/null
    if ! diff -q "${SMOKE_DIR}/t1.csv" "${SMOKE_DIR}/t2.csv" > /dev/null; then
      echo "FAIL: ${algo} (${query}) results differ between --threads 1" \
           "and --threads 2"
      exit 1
    fi
    echo "ok: ${algo} (${query}) identical for --threads 1 and --threads 2"
    # shellcheck disable=SC2086
    "${CLI}" --input "${SMOKE_DIR}/data.csv" ${query} \
             --algo "${algo}" --threads 2 --repeat 3 \
             --results "${SMOKE_DIR}/t2r.csv" > /dev/null
    if ! diff -q "${SMOKE_DIR}/t1.csv" "${SMOKE_DIR}/t2r.csv" > /dev/null; then
      echo "FAIL: ${algo} (${query}) --repeat 3 differs from --threads 1"
      exit 1
    fi
    echo "ok: ${algo} (${query}) --repeat 3 warm runs identical"
  done
done

echo "== CLI error-path smoke (documented exit codes) =="
expect_exit() {
  local want="$1"
  local label="$2"
  shift 2
  local got=0
  "$@" > /dev/null 2>&1 || got=$?
  if [[ "${got}" != "${want}" ]]; then
    echo "FAIL: ${label}: expected exit ${want}, got ${got}"
    exit 1
  fi
  echo "ok: ${label} -> exit ${want}"
}

expect_exit 1 "unknown algorithm" \
  "${CLI}" --input "${SMOKE_DIR}/data.csv" --algo nonsense
# A numeric flag must parse whole and fit its type: a trailing character,
# a sign on an unsigned flag or a port above 65535 is a usage error, not a
# prefix or a wrapped-around value that runs anyway.
expect_exit 1 "malformed number (--threads x)" \
  "${CLI}" --input "${SMOKE_DIR}/data.csv" --m 3 --k 60 --e 8.0 --threads x
expect_exit 1 "malformed number (--m 3x)" \
  "${CLI}" --input "${SMOKE_DIR}/data.csv" --m 3x --k 60 --e 8.0
expect_exit 1 "malformed number (--e 8,5)" \
  "${CLI}" --input "${SMOKE_DIR}/data.csv" --m 3 --k 60 --e 8,5
expect_exit 1 "negative unsigned (--m -1)" \
  "${CLI}" --input "${SMOKE_DIR}/data.csv" --m -1 --k 60 --e 8.0
expect_exit 1 "port out of range (--port 70000)" \
  "${CLI}" --serve --port 70000 --max-seconds 0
# convoy_serverd and convoy_loadgen parse numbers the same way (usage
# code 1 in both); a wrapped or truncated value must not start a daemon or
# a run.
expect_exit 1 "convoy_serverd port out of range (--port 70000)" \
  "${BUILD_DIR}/convoy_serverd" --port 70000 --max-seconds 0
expect_exit 1 "convoy_serverd malformed number (--fault-eintr-prob abc)" \
  "${BUILD_DIR}/convoy_serverd" --fault-eintr-prob abc --max-seconds 0
expect_exit 1 "convoy_loadgen malformed number (--kills 2x)" \
  "${BUILD_DIR}/convoy_loadgen" --serverd /nonexistent --chaos --kills 2x
expect_exit 1 "convoy_loadgen negative unsigned (--seed -1)" \
  "${BUILD_DIR}/convoy_loadgen" --serverd /nonexistent --sweep-fsync \
  --seed -1
# The bench binaries share bench/bench_common.h's flag parser, which uses
# the same ParseNumber: a wrapped seed or a truncated thread count must not
# start a run.
expect_exit 1 "bench negative unsigned (fig12_cmc_vs_cuts --seed -1)" \
  "${BUILD_DIR}/bench/fig12_cmc_vs_cuts" --scale 0.05 --seed -1
expect_exit 1 "bench malformed number (scalability --threads 2x)" \
  "${BUILD_DIR}/bench/scalability" --threads 2x --json /dev/null
expect_exit 2 "missing input file" \
  "${CLI}" --input "${SMOKE_DIR}/does_not_exist.csv"
expect_exit 3 "invalid query (m = 1)" \
  "${CLI}" --input "${SMOKE_DIR}/data.csv" --m 1 --k 60 --e 8.0
expect_exit 3 "invalid query (e = 0)" \
  "${CLI}" --input "${SMOKE_DIR}/data.csv" --m 3 --k 60 --e 0
printf 'garbage\nmore,garbage\n' > "${SMOKE_DIR}/garbage.csv"
expect_exit 4 "garbage-only input" \
  "${CLI}" --input "${SMOKE_DIR}/garbage.csv" --m 3 --k 60 --e 8.0
printf '0,0,nan,1\n0,1,1,1\n0,2,2,2\n1,0,0,0\n' > "${SMOKE_DIR}/nanrow.csv"
expect_exit 0 "NaN row skipped, rest discovered" \
  "${CLI}" --input "${SMOKE_DIR}/nanrow.csv" --m 2 --k 2 --e 8.0
# Four objects 0.5 apart at every tick of [INT64_MAX - 40, last], once
# with last = INT64_MAX - 1 and once with last = INT64_MAX: tick loops,
# store blocks, filter partitions and refinement windows end at the top of
# the tick range there. Every algorithm runs on both, each capped by
# `timeout 60` (a tick loop that overflows and never ends) and by
# `ulimit -v` (one that allocates without bound); each must exit 0 with
# every convoy verified.
TOP_TICK=9223372036854775807
for top_last in 1 0; do
  for ((back = 40; back >= top_last; --back)); do
    for o in 0 1 2 3; do
      echo "${o},$((TOP_TICK - back)),$((40 - back)),$((o / 2)).$((o % 2 * 5))"
    done
  done > "${SMOKE_DIR}/top${top_last}.csv"
  for top_algo in "auto" "cmc" "cuts" "cuts+" "cuts*" "cuts* --lambda 7" \
                  "mc2"; do
    TOP_OUT="${SMOKE_DIR}/top.out"
    TOP_EXIT=0
    # shellcheck disable=SC2086  # ${top_algo} is the algorithm and its flags
    (ulimit -v 2000000; timeout 60 "${CLI}" \
       --input "${SMOKE_DIR}/top${top_last}.csv" --m 2 --k 5 --e 2 --verify \
       --algo ${top_algo}) > "${TOP_OUT}" 2>&1 || TOP_EXIT=$?
    TOP_CASE="--algo ${top_algo}, last tick INT64_MAX - ${top_last}"
    if [[ "${TOP_EXIT}" != 0 ]] || grep -q "FAILED VERIFICATION" "${TOP_OUT}" \
       || ! grep -q "verified" "${TOP_OUT}"; then
      echo "FAIL: top-of-range repro (${TOP_CASE}): exit ${TOP_EXIT}"
      cat "${TOP_OUT}"
      exit 1
    fi
    echo "ok: top-of-range repro (${TOP_CASE}) -> exit 0, verified"
  done
done

echo "== planner EXPLAIN smoke =="
EXPLAIN_OUT="$("${CLI}" --input "${SMOKE_DIR}/data.csv" --m 3 --k 60 --e 8.0 \
                        --algo auto --explain)"
for needle in "algorithm:" "delta:" "lambda:"; do
  if ! grep -q "${needle}" <<< "${EXPLAIN_OUT}"; then
    echo "FAIL: --algo auto --explain output lacks '${needle}':"
    echo "${EXPLAIN_OUT}"
    exit 1
  fi
done
echo "ok: --algo auto --explain prints the chosen algorithm and parameters"

echo "== observability smoke (EXPLAIN ANALYZE, --trace, --report metrics) =="
ANALYZE_OUT="$("${CLI}" --input "${SMOKE_DIR}/data.csv" --m 3 --k 60 --e 8.0 \
                        --algo "cuts*" --explain-analyze \
                        --trace "${SMOKE_DIR}/trace.json" \
                        --report "${SMOKE_DIR}/report.json")"
for needle in "analyze" "dbscan.points_scanned" "filter.partition"; do
  if ! grep -q "${needle}" <<< "${ANALYZE_OUT}"; then
    echo "FAIL: --explain-analyze output lacks '${needle}':"
    echo "${ANALYZE_OUT}"
    exit 1
  fi
done
echo "ok: --explain-analyze prints measured counters and spans"

if [[ ! -s "${SMOKE_DIR}/trace.json" ]]; then
  echo "FAIL: --trace did not produce trace.json"
  exit 1
fi
if command -v python3 > /dev/null 2>&1; then
  python3 - "${SMOKE_DIR}/trace.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
# Chrome trace-event JSON Object Format: {"traceEvents": [...]}. Each
# event needs ph + pid/tid, "X" complete events need name/ts/dur, and
# every recording thread gets an "M" thread_name metadata record.
events = doc["traceEvents"] if isinstance(doc, dict) else doc
assert isinstance(events, list) and events, "empty trace"
complete = [e for e in events if e.get("ph") == "X"]
meta = [e for e in events if e.get("ph") == "M"]
assert complete, "no complete (ph=X) span events"
assert any(e.get("name") == "thread_name" for e in meta), "no track names"
for e in complete:
    assert {"name", "ts", "dur", "pid", "tid"} <= set(e), e
names = {e["name"] for e in complete}
for needed in ("prepare", "execute"):
    assert needed in names, f"missing span: {needed}"
print(f"ok: {len(complete)} spans on"
      f" {len({e['tid'] for e in complete})} track(s)")
PYEOF
  python3 - "${SMOKE_DIR}/report.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
metrics = doc["metrics"]
assert metrics["enabled"] is True, "metrics block disabled despite --trace"
assert metrics["counters"]["dbscan.points_scanned"] > 0, metrics["counters"]
assert metrics["spans"], "no span aggregates in report"
print("ok: --report carries an enabled metrics block")
PYEOF
else
  grep -q '"ph":"X"' "${SMOKE_DIR}/trace.json"
  grep -q '"thread_name"' "${SMOKE_DIR}/trace.json"
  grep -q '"metrics":{"enabled":true' "${SMOKE_DIR}/report.json"
  echo "ok: trace and report markers present (python3 unavailable)"
fi
echo "ok: --trace emits Perfetto-loadable Chrome trace-event JSON"

echo "== server smoke (daemon + loadgen burst + BENCH_server.json) =="
SERVER_LOG="${SMOKE_DIR}/serverd.log"
SERVER_STATS="${SMOKE_DIR}/server_stats.json"
BENCH_SERVER_JSON="${SMOKE_DIR}/BENCH_server.json"
# --max-seconds is a watchdog only; the leg SIGTERMs the daemon long before.
"${RELEASE_BUILD_DIR}/convoy_serverd" --port 0 --max-seconds 300 \
    --stats-json "${SERVER_STATS}" > "${SERVER_LOG}" 2>&1 &
SERVER_PID=$!
SERVER_PORT=""
for _ in $(seq 100); do
  SERVER_PORT="$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' \
                 "${SERVER_LOG}" 2> /dev/null | grep -oE '[0-9]+$' || true)"
  [[ -n "${SERVER_PORT}" ]] && break
  sleep 0.1
done
if [[ -z "${SERVER_PORT}" ]]; then
  echo "FAIL: convoy_serverd never reported its port:"
  cat "${SERVER_LOG}"
  exit 1
fi
echo "ok: daemon listening on port ${SERVER_PORT}"

# A bounded burst at the acceptance scale (8 ingest + 4 query clients),
# with --verify: subscriber events must be bit-identical to a local
# StreamingCmc replay of the same feed, and each stream's post-Finish
# kQuery (auto, the live incremental CMC) must equal a local Cmc().
"${RELEASE_BUILD_DIR}/convoy_loadgen" --port "${SERVER_PORT}" \
    --ingest 8 --query 4 --ticks 12 --objects 24 --batch-rows 8 \
    --verify --json "${BENCH_SERVER_JSON}"
echo "ok: loadgen burst verified against local replay and local Cmc()"

kill -TERM "${SERVER_PID}"
SERVER_EXIT=0
wait "${SERVER_PID}" || SERVER_EXIT=$?
if [[ "${SERVER_EXIT}" != 0 ]]; then
  echo "FAIL: convoy_serverd exit ${SERVER_EXIT} on SIGTERM (want 0):"
  cat "${SERVER_LOG}"
  exit 1
fi
echo "ok: daemon shut down cleanly on SIGTERM"

if command -v python3 > /dev/null 2>&1; then
  python3 - "${BENCH_SERVER_JSON}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "convoy-bench-server-v2", doc.get("schema")
config = doc["config"]
assert config["ingest_clients"] >= 8 and config["query_clients"] >= 4
assert config["fsync"] in ("none", "interval", "every_tick"), config
ingest = doc["ingest"]
assert ingest["rows_accepted"] > 0 and ingest["rows_per_sec"] > 0
sub = doc["subscription"]
assert sub["events"] > 0 and sub["latency_ms"]["count"] > 0
assert "p50" in sub["latency_ms"] and "p99" in sub["latency_ms"]
query = doc["query"]
assert query["latency_ms"]["count"] > 0
assert "p50" in query["latency_ms"] and "p99" in query["latency_ms"]
verify = doc["verify"]
assert verify["enabled"] is True
assert verify["streams_ok"] == verify["streams_total"] == \
    config["ingest_clients"]
assert verify["live_queries_ok"] == verify["streams_total"], verify
# v2 carries the durability sections even when this run used neither.
assert isinstance(doc["fsync_sweep"], list)
assert doc["chaos"]["enabled"] in (True, False)
print(f"ok: {ingest['rows_accepted']} rows at"
      f" {ingest['rows_per_sec']:.0f} rows/s,"
      f" {verify['streams_ok']}/{verify['streams_total']} streams verified")
PYEOF
  python3 - "${SERVER_STATS}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "convoy-server-stats-v1", doc.get("schema")
counters = doc["metrics"]["counters"]
assert counters["server.batches_accepted"] > 0, counters
assert counters["server.events_emitted"] > 0, counters
assert counters["server.active_sessions_max"] >= 8, counters
print("ok: stats dump carries the server.* counters")
PYEOF
else
  grep -q '"schema":"convoy-bench-server-v2"' "${BENCH_SERVER_JSON}"
  grep -q '"schema":"convoy-server-stats-v1"' "${SERVER_STATS}"
  echo "ok: schema markers present (python3 unavailable)"
fi

echo "== durable-ingest smoke (fsync sweep over WAL-backed daemons) =="
SWEEP_JSON="${SMOKE_DIR}/BENCH_server_sweep.json"
"${RELEASE_BUILD_DIR}/convoy_loadgen" \
    --serverd "${RELEASE_BUILD_DIR}/convoy_serverd" --sweep-fsync \
    --wal-root "${SMOKE_DIR}/sweep-wal" \
    --ingest 2 --query 1 --ticks 10 --objects 16 --verify \
    --json "${SWEEP_JSON}" > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "${SWEEP_JSON}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
sweep = doc["fsync_sweep"]
assert {row["policy"] for row in sweep} == \
    {"none", "interval", "every_tick"}, sweep
for row in sweep:
    assert row["ok"] is True, row
    assert row["rows_accepted"] > 0 and row["rows_per_sec"] > 0, row
print("ok: all three fsync policies ingest and verify")
PYEOF
else
  grep -q '"policy":"every_tick"' "${SWEEP_JSON}"
  echo "ok: sweep rows present (python3 unavailable)"
fi

echo "== crash-recovery smoke (chaos: SIGKILL mid-ingest, verify replay) =="
CHAOS_JSON="${SMOKE_DIR}/BENCH_server_chaos.json"
# Kills the daemon mid-ingest (twice), restarts it on the same WAL, and
# exits 3 unless every recovered stream's closed-convoy events are
# bit-identical to an unfaulted local replay and its kQuery (auto, the
# live incremental CMC over the replayed rows) equals a local Cmc().
"${RELEASE_BUILD_DIR}/convoy_loadgen" \
    --serverd "${RELEASE_BUILD_DIR}/convoy_serverd" --chaos --kills 2 \
    --wal-root "${SMOKE_DIR}/chaos-wal" \
    --ingest 2 --ticks 40 --objects 16 --json "${CHAOS_JSON}"
if command -v python3 > /dev/null 2>&1; then
  python3 - "${CHAOS_JSON}" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
chaos = doc["chaos"]
assert chaos["enabled"] is True
assert chaos["kills"] >= 1, chaos
assert chaos["streams_ok"] == chaos["streams_total"] == 2, chaos
assert chaos["live_queries_ok"] == chaos["streams_total"], chaos
print(f"ok: {chaos['kills']} kills, {chaos['resumes']} resumes,"
      f" {chaos['streams_ok']}/{chaos['streams_total']} streams"
      " bit-identical after recovery, live answers equal Cmc()")
PYEOF
else
  grep -q '"chaos":{"enabled":true' "${CHAOS_JSON}"
  echo "ok: chaos verdict present (python3 unavailable)"
fi

echo "== CLI --serve smoke (same server embedded in convoy_cli) =="
CLI_SERVE_LOG="${SMOKE_DIR}/cli_serve.log"
"${CLI}" --serve --port 0 --max-seconds 300 > "${CLI_SERVE_LOG}" 2>&1 &
CLI_SERVE_PID=$!
CLI_SERVE_PORT=""
for _ in $(seq 100); do
  CLI_SERVE_PORT="$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' \
                    "${CLI_SERVE_LOG}" 2> /dev/null \
                    | grep -oE '[0-9]+$' || true)"
  [[ -n "${CLI_SERVE_PORT}" ]] && break
  sleep 0.1
done
if [[ -z "${CLI_SERVE_PORT}" ]]; then
  echo "FAIL: convoy_cli --serve never reported its port:"
  cat "${CLI_SERVE_LOG}"
  exit 1
fi
"${RELEASE_BUILD_DIR}/convoy_loadgen" --port "${CLI_SERVE_PORT}" \
    --ingest 2 --query 1 --ticks 6 --objects 12 --verify > /dev/null
kill -TERM "${CLI_SERVE_PID}"
CLI_SERVE_EXIT=0
wait "${CLI_SERVE_PID}" || CLI_SERVE_EXIT=$?
if [[ "${CLI_SERVE_EXIT}" != 0 ]]; then
  echo "FAIL: convoy_cli --serve exit ${CLI_SERVE_EXIT} on SIGTERM (want 0)"
  exit 1
fi
echo "ok: convoy_cli --serve serves the protocol and shuts down cleanly"

echo "== all checks passed =="
