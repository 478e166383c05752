#!/usr/bin/env bash
# CI entry point: configure, build, and run the test suite in Release
# mode, again under AddressSanitizer (MOSAIC_SANITIZE=address), and a
# ThreadSanitizer pass over the concurrency-sensitive tests (the query
# service routes concurrent reads through the shared-lock batch
# executor and fans OPEN generation onto a pool, so the TSan leg is
# not optional). A static
# leg (lint gate + Clang thread-safety analysis + clang-tidy) runs
# first when the tooling is present. Pass "fast" as $1 to skip the
# static and TSan legs for quick local iterations.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

run_suite() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== ${name}: configure ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${name}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# Network serving E2E: boot a real mosaic_serve on an ephemeral
# loopback port, run the client smoke workload (mixed visibility
# levels, one BATCH frame, STATS), then SIGTERM and require a clean
# drain (exit 0). Exercises the full socket path the unit tests mock
# at most one layer of. Startup races a busy host for its port: when
# the server fails to come up (or the port it grabbed is stolen
# before the client connects), retry the whole leg with a fresh
# ephemeral port instead of failing outright.
run_server_e2e() {
  local name="$1" build_dir="$2"
  echo "=== ${name}: server E2E ==="
  local port_file="${build_dir}/server_e2e.port"
  local attempts=3
  for attempt in $(seq 1 "${attempts}"); do
    rm -f "${port_file}"
    "${build_dir}/mosaic_serve" --demo-world --port=0 \
      --port-file="${port_file}" &
    local server_pid=$!
    for _ in $(seq 1 100); do
      [[ -s "${port_file}" ]] && break
      sleep 0.1
    done
    if [[ ! -s "${port_file}" ]]; then
      echo "WARN: mosaic_serve did not come up (attempt ${attempt}/${attempts})" >&2
      kill -9 "${server_pid}" 2>/dev/null || true
      wait "${server_pid}" 2>/dev/null || true
      continue
    fi
    if ! "${build_dir}/mosaic_client" --port="$(cat "${port_file}")" --smoke
    then
      echo "WARN: client smoke failed (attempt ${attempt}/${attempts})" >&2
      kill -TERM "${server_pid}" 2>/dev/null || true
      wait "${server_pid}" || true
      continue
    fi
    kill -TERM "${server_pid}"
    wait "${server_pid}"   # non-zero (unclean drain) fails the script
    # An interval past the clock's range is a usage error (exit 2),
    # not a negative interval that snapshots every tick.
    local rc=0
    timeout 10 "${build_dir}/mosaic_serve" --port=0 \
      --snapshot-interval-s=9223372036854775808 2>/dev/null || rc=$?
    [[ "${rc}" -eq 2 ]] || { echo "ERROR: --snapshot-interval-s=2^63 exited ${rc}, want 2" >&2; exit 1; }
    return 0
  done
  echo "ERROR: server E2E failed after ${attempts} attempts" >&2
  exit 1
}

# Crash-recovery E2E: boot mosaic_serve on a fresh data dir, ingest a
# small world, record query answers, SIGKILL the server mid-flight,
# restart it from the same dir, and require (a) bit-identical answers,
# (b) zero IPF refits on the recovered process (the replayed weight
# epochs carry their fit signatures, so SEMI-OPEN is a signature-match
# no-op), then SIGTERM (which writes a final snapshot) and verify a
# third boot from the snapshot too.
run_crash_recovery() {
  local name="$1" build_dir="$2"
  echo "=== ${name}: crash-recovery E2E ==="
  local data_dir port_file
  data_dir="$(mktemp -d)"
  port_file="${build_dir}/crash_recovery.port"
  local q_closed="SELECT COUNT(*) AS c FROM Panel"
  local q_open="SELECT SEMI-OPEN COUNT(*) AS c FROM People WHERE device = 'phone'"

  start_server() {
    rm -f "${port_file}"
    "${build_dir}/mosaic_serve" --port=0 --port-file="${port_file}" \
      --data-dir="${data_dir}" &
    server_pid=$!
    for _ in $(seq 1 100); do
      [[ -s "${port_file}" ]] && break
      sleep 0.1
    done
    [[ -s "${port_file}" ]] || { echo "ERROR: server did not come up" >&2; return 1; }
    port="$(cat "${port_file}")"
  }

  # Phase 1: ingest, query, then die without any shutdown protocol.
  start_server
  "${build_dir}/mosaic_client" --port="${port}" \
    "CREATE GLOBAL POPULATION People (email VARCHAR, device VARCHAR)" \
    "CREATE TABLE EmailReport (email VARCHAR, cnt INT)" \
    "INSERT INTO EmailReport VALUES ('gmail', 550), ('yahoo', 300), ('aol', 150)" \
    "CREATE METADATA People_M1 AS (SELECT email, cnt FROM EmailReport)" \
    "CREATE SAMPLE Panel AS (SELECT * FROM People)" \
    "INSERT INTO Panel VALUES ('gmail','phone'), ('gmail','phone'), ('gmail','laptop'), ('yahoo','phone'), ('yahoo','laptop'), ('aol','laptop')" \
    > /dev/null
  "${build_dir}/mosaic_client" --port="${port}" \
    "${q_closed}" "${q_open}" > "${build_dir}/crash_answers_live.txt"
  kill -9 "${server_pid}"
  wait "${server_pid}" 2>/dev/null || true

  # Phase 2: recover from snapshot-less WAL, answers must match and
  # the recovered process must not have retrained.
  start_server
  "${build_dir}/mosaic_client" --port="${port}" \
    "${q_closed}" "${q_open}" > "${build_dir}/crash_answers_rec1.txt"
  diff "${build_dir}/crash_answers_live.txt" \
       "${build_dir}/crash_answers_rec1.txt"
  "${build_dir}/mosaic_client" --port="${port}" --stats \
    > "${build_dir}/crash_stats_rec1.txt"
  grep -q '^weight_refits_total=0$' "${build_dir}/crash_stats_rec1.txt" || {
    echo "ERROR: recovery retrained (weight_refits_total != 0):" >&2
    grep '^weight_refits' "${build_dir}/crash_stats_rec1.txt" >&2 || true
    exit 1
  }
  kill -TERM "${server_pid}"
  wait "${server_pid}"   # clean drain writes a final snapshot

  # Phase 3: boot again — now from the snapshot — and re-verify.
  start_server
  "${build_dir}/mosaic_client" --port="${port}" \
    "${q_closed}" "${q_open}" > "${build_dir}/crash_answers_rec2.txt"
  diff "${build_dir}/crash_answers_live.txt" \
       "${build_dir}/crash_answers_rec2.txt"
  "${build_dir}/mosaic_client" --port="${port}" --stats \
    | grep -q '^weight_refits_total=0$' || {
    echo "ERROR: snapshot recovery retrained" >&2; exit 1;
  }
  kill -TERM "${server_pid}"
  wait "${server_pid}"
  rm -rf "${data_dir}"
  echo "${name}: crash-recovery OK"
}

# Static-analysis leg: the repo-invariant lint gate, its self-tests,
# and (when a Clang toolchain is present) the thread-safety analysis
# build plus clang-tidy over changed files. Runs by default; `fast`
# skips it like the TSan leg. Every failure names the violated rule:
# lint.py prints `path:line: [rule] ...`, the analysis build fails on
# -Werror=thread-safety, and tidy findings carry their check name.
run_static() {
  echo "=== static: lint gate (scripts/lint.py) ==="
  python3 scripts/lint.py src
  echo "=== static: lint self-tests ==="
  python3 scripts/test_lint.py

  # The annotations must stay a no-op outside Clang: the deliberate
  # thread-safety violation below is well-formed C++ and has to pass a
  # plain GCC syntax check.
  echo "=== static: GCC no-op check on the compile-fail fixture ==="
  g++ -std=c++17 -fsyntax-only -Isrc tests/compile_fail/unguarded_access.cc

  if ! command -v clang++ >/dev/null 2>&1; then
    echo "static: clang++ not found; skipping thread-safety analysis" \
         "and clang-tidy (annotations compile as no-ops here)" >&2
    return 0
  fi

  echo "=== static: Clang thread-safety analysis build ==="
  cmake -B build-analyze -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER=clang++ -DMOSAIC_ANALYZE=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build-analyze -j "${JOBS}"

  # The negative control: a deliberately unguarded access must FAIL
  # under the analysis, or the whole leg is a rubber stamp.
  echo "=== static: compile-fail check (unguarded access must not build) ==="
  if clang++ -std=c++17 -fsyntax-only -Isrc \
       -Wthread-safety -Werror=thread-safety \
       tests/compile_fail/unguarded_access.cc 2>/dev/null; then
    echo "ERROR: rule thread-safety-analysis did not fire on" \
         "tests/compile_fail/unguarded_access.cc" >&2
    exit 1
  fi
  echo "compile-fail fixture rejected as expected"

  if command -v clang-tidy >/dev/null 2>&1; then
    # Tidy only what this branch touched: the full tree takes minutes
    # and legacy findings would drown new ones. Fall back to the last
    # commit's files when there is no merge base (shallow CI clones).
    echo "=== static: clang-tidy over changed files ==="
    local changed
    changed="$( (git diff --name-only --diff-filter=d origin/main... 2>/dev/null \
                 || git diff --name-only --diff-filter=d HEAD~1 2>/dev/null \
                 || true) | grep -E '^src/.*\.cc$' || true)"
    if [[ -z "${changed}" ]]; then
      echo "static: no changed src/*.cc files; skipping clang-tidy"
    else
      # shellcheck disable=SC2086
      clang-tidy -p build-analyze --quiet ${changed}
    fi
  else
    echo "static: clang-tidy not found; skipping" >&2
  fi
}

if [[ "${1:-}" != "fast" ]]; then
  run_static
fi

run_suite "Release" build-release -DCMAKE_BUILD_TYPE=Release
run_server_e2e "Release" build-release
run_crash_recovery "Release" build-release

# Tracing must never change results: run the cross-path SQL parity
# fuzzer and the service suite with per-query tracing forced on, so
# every parity assertion doubles as a traced-vs-untraced check. The
# system-tables suite rides along: its concurrent-introspection test
# hammers system.queries/system.metrics readers against traced
# writers asserting traced == untraced bit-identity, and MOSAIC_TRACE
# makes every other statement in the suite leave a full span tree in
# the ring those readers scan.
echo "=== Release + MOSAIC_TRACE=1: traced parity ==="
MOSAIC_TRACE=1 ctest --test-dir build-release --output-on-failure \
  -R 'test_(sql_fuzz|service|net_e2e|system_tables)'

# Scalar-parity leg: the SIMD kernels must be bit-identical to the
# scalar reference end to end, not just per kernel. MOSAIC_SIMD=0
# forces the scalar table; the SQL fuzzer (batch vs row oracle) and
# the exec parity suite then prove scalar-batch == row, which together
# with the default run (SIMD-batch == row) pins SIMD == scalar on
# whole query plans. MOSAIC_SIMD=0 also forces the scalar nn GEMM, so
# the nn parity tests, the M-SWG golden training fingerprint and the
# generator suite pin scalar == AVX2 for model training and generation.
echo "=== Release + MOSAIC_SIMD=0: scalar kernel parity ==="
MOSAIC_SIMD=0 ctest --test-dir build-release --output-on-failure \
  -R 'test_(sql_fuzz|exec_parity|simd_kernels|nn|mswg|generator)'

# AVX2-parity leg: on an AVX-512 host the default GEMM level is the
# 8x8 AVX-512 tile, so the AVX2 4x8 tile would go unexercised end to
# end. MOSAIC_SIMD=avx2 caps the GEMM at AVX2; the nn parity tests, the
# M-SWG golden fingerprint, the generator suite and the W2 coupling
# tests then pin AVX2 == AVX-512 == scalar for training and generation.
echo "=== Release + MOSAIC_SIMD=avx2: AVX2 GEMM parity ==="
MOSAIC_SIMD=avx2 ctest --test-dir build-release --output-on-failure \
  -R 'test_(nn|mswg|generator|wasserstein)'

# FMA-contraction guard: the M-SWG is pinned bit for bit across kernel
# levels, so the floating-point code built for avx512f (which brings
# FMA) must keep multiply and add apart. A fused multiply-add in these
# Release objects means a function lost MOSAIC_NO_FP_CONTRACT
# (common/cpu.h).
echo "=== Release: no FMA in the bit-pinned M-SWG objects ==="
if command -v objdump >/dev/null 2>&1; then
  for obj in mosaic_nn.dir/src/nn/matrix.cc.o \
             mosaic_core.dir/src/core/mswg.cc.o \
             mosaic_stats.dir/src/stats/wasserstein.cc.o; do
    path="build-release/CMakeFiles/${obj}"
    [[ -f "${path}" ]] || { echo "ERROR: ${path} not built" >&2; exit 1; }
    if objdump -d --no-show-raw-insn "${path}" \
         | grep -E 'vf(n)?m(add|sub)' >/dev/null; then
      echo "ERROR: FMA instructions in ${path}:" >&2
      objdump -d --no-show-raw-insn "${path}" \
        | grep -E 'vf(n)?m(add|sub)' | head -5 >&2
      exit 1
    fi
  done
  echo "no FMA instructions found"
else
  echo "objdump not found; skipping the FMA disassembly guard" >&2
fi

# UBSan leg over the executor tests, the durable storage suites, the
# service suite, the nn/M-SWG suites and the IPF/marginal suites: the
# SIMD layer leans on casts, bit tricks, and alignment assumptions, the
# storage engine adds mmap'd column reads and byte-level
# (de)serialization on top, the service scales operator-supplied
# thresholds, the GEMM's edge tiles do raw pointer arithmetic over
# packed panels, and the cell index bins rows by indexing with raw
# dictionary codes; undefined-behavior findings there must fail CI
# even when the answers happen to come out right.
echo "=== UBSan: executor + kernel + storage + service + nn + stats tests ==="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMOSAIC_SANITIZE=undefined
cmake --build build-ubsan -j "${JOBS}" --target \
  test_simd_kernels test_exec_parity test_executor test_sql_fuzz \
  test_durable test_durable_recovery test_service test_nn test_mswg \
  test_marginal test_ipf test_reweight test_bayes_net test_weight_epochs
UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-ubsan \
  --output-on-failure \
  -R 'test_(simd_kernels|exec_parity|executor|sql_fuzz|durable|durable_recovery|service|nn|mswg|marginal|ipf|reweight|bayes_net|weight_epochs)'

# Bench JSON smoke: the bench binaries must emit parseable JSON with
# the latency histogram fields (BENCH_*.json feeds dashboards; a
# malformed file fails silently downstream otherwise).
echo "=== Release: bench JSON smoke ==="
(
  cd build-release
  MOSAIC_BENCH_ROWS=20000 ./bench_executor >/dev/null
  ./bench_net 2 50 >/dev/null
  ./bench_durable >/dev/null
  python3 - <<'EOF'
import json, sys
for name, want_latency in [("BENCH_executor.json", True),
                           ("BENCH_net.json", True),
                           ("BENCH_durable.json", False)]:
    with open(name) as f:
        doc = json.load(f)
    hists = []
    if "latency_us" in doc:
        hists.append(doc["latency_us"])
    for section in doc.values():
        if isinstance(section, list):
            hists.extend(e["latency_us"] for e in section
                         if isinstance(e, dict) and "latency_us" in e)
    if want_latency and not hists:
        sys.exit(f"{name}: no latency_us histogram fields found")
    for h in hists:
        for field in ("count", "p50", "p95", "p99"):
            if field not in h:
                sys.exit(f"{name}: latency_us missing '{field}': {h}")
    print(f"{name}: OK ({len(hists)} latency summaries)")
EOF
)

# Latency regression gate: diff this run's BENCH_*.json against the
# saved baseline set and fail on >20% p50 regressions. The first run
# on a machine seeds the baseline (nothing to compare against yet);
# refresh it by deleting bench-baseline/ after an intentional perf
# change. A self-comparison runs either way so the comparator itself
# is exercised on every CI pass.
echo "=== Release: bench latency regression gate ==="
python3 scripts/bench_compare.py build-release build-release
if [[ -d bench-baseline ]]; then
  python3 scripts/bench_compare.py bench-baseline build-release
else
  mkdir -p bench-baseline
  cp build-release/BENCH_*.json bench-baseline/
  echo "bench-baseline/ seeded from this run; gate active on the next run"
fi

run_suite "ASan" build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMOSAIC_SANITIZE=address
run_server_e2e "ASan" build-asan
run_crash_recovery "ASan" build-asan

if [[ "${1:-}" != "fast" ]]; then
  # TSan pass over the threaded subsystem tests (the full suite under
  # TSan is slow; these are the tests that exercise concurrency —
  # concurrent reads through the batch executor, parallel OPEN
  # generation, and the service-level readers and writers).
  # One list drives the build targets and both ctest regexes.
  TSAN_SUITES=(thread_pool lru_cache service sql_fuzz net_e2e weight_epochs
               metrics_registry system_tables event_log)
  TSAN_REGEX="test_($(IFS='|'; echo "${TSAN_SUITES[*]}"))"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMOSAIC_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" --target \
    "${TSAN_SUITES[@]/#/test_}"
  ctest --test-dir build-tsan --output-on-failure -R "${TSAN_REGEX}"
  # And once more with tracing forced on, racing the query-log ring
  # and the system-table readers against traced execution.
  MOSAIC_TRACE=1 ctest --test-dir build-tsan \
    --output-on-failure -R "${TSAN_REGEX}"
fi

echo "All checks passed."
