#!/usr/bin/env bash
# Tier-1 verify sequence: configure, build, ctest, smoke benches.
#
# Usage: tools/ci.sh [build-dir] [mode]   (default: build "")
#
#   mode "sanitize": build with ASan + UBSan, float-cast-overflow included
#   (halt on any report), and run
#   ctest only — the smoke benches are skipped, sanitized models train too
#   slowly for them.
#
#   mode "tsan": build with ThreadSanitizer and run the multi-worker /
#   corpus test subset — the tests whose Sessions run parallel workers over
#   shared coverage trackers, which is exactly the surface a data race
#   would corrupt — plus execution_plan_test, whose concurrent compiles
#   share one Dense forward pack.
#
#   mode "release": build the benches and the bit-identity tests
#   (execution_plan_test, gemm_kernel_test, batch_exec_test, alloc_test,
#   core_test) with
#   CMAKE_BUILD_TYPE=Release, run those tests — the e2e digests come from a
#   Release build — then run each bench once as a smoke test (the plan
#   bench's inline tolerance checks keep the GEMM/SIMD path honest where
#   asserts vanish), compare the
#   artifacts against bench/baselines with compare_baselines.py --strict
#   (files recorded on a different host core count are skipped, not
#   failed), and consolidate every artifact into BENCH_results.json at the
#   repo root.
#
#   mode "simd-off": configure with -DDX_SIMD=OFF (scalar kernel fallback —
#   the build any non-AVX2/NEON host gets) and run ctest. Guards the
#   portability path: the scalar GemmBias/std::fma kernels must pass the
#   same suite, including the SIMD-vs-scalar tolerance sweeps, which become
#   self-comparisons there.
#
#   mode "service-smoke": build the campaign daemon + client and drive the
#   full lifecycle end to end over real sockets: start dxplored on ephemeral
#   ports, submit an mnist campaign via dxplorectl, poll /health and
#   /metrics, pause/resume mid-flight, drain the daemon mid-campaign
#   (must exit 0 with every campaign checkpointed), restart, resume the
#   campaign from its corpus, wait for DONE, then `dxplore --replay` the
#   corpus to prove the daemon-driven run is bit-identical on re-execution.
#
#   mode "corpus-maintenance": build the CLI + daemon + client, record a
#   pdf-domain corpus, run the distill -> dedup -> minimize chain via the
#   `dxplore corpus` verbs (every stage replay-verifies its derived corpus
#   or exits nonzero), check `dxplore corpus stats` on both ends, then run
#   a daemon campaign and compact its corpus through the `compact` ctl
#   request, asserting the verified result and the /metrics families.
#
#   mode "e2e-smoke": configure bench/e2e (a CMake project of its own, built
#   Release) into the build dir, build dxbench_e2e and run its
#   dxbench_e2e_smoke ctest — every workload at a fiftieth of its measured
#   size. No other job builds the benchmark, so this is where an engine API
#   change that breaks it shows up.
#
# ctest writes a JUnit report to <build-dir>/ctest-junit.xml and a
# slowest-first per-test timing table is printed after every run, so slow
# tests are visible before they become the long pole.
#
# DEEPXPLORE_FAST=1 is exported so the model zoo trains at CI scale; the
# trained-model disk cache makes repeat runs fast.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MODE="${2:-}"
export DEEPXPLORE_FAST=1

CMAKE_EXTRA=()
if [ "$MODE" = "sanitize" ]; then
  # The trained-model disk cache is shared with regular runs (weights are
  # bit-identical either way), so the sanitized job spends its time on the
  # engine, not on re-training the zoo under ASan. GCC's "undefined" group
  # leaves out float-cast-overflow (a NaN or out-of-range float cast to int),
  # so it is named on its own.
  CMAKE_EXTRA+=(-DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer")
elif [ "$MODE" = "tsan" ]; then
  CMAKE_EXTRA+=(-DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer")
elif [ "$MODE" = "release" ]; then
  CMAKE_EXTRA+=(-DCMAKE_BUILD_TYPE=Release)
elif [ "$MODE" = "simd-off" ]; then
  CMAKE_EXTRA+=(-DDX_SIMD=OFF)
fi

if [ "$MODE" = "e2e-smoke" ]; then
  echo "==> configure (bench/e2e -> $BUILD_DIR)"
  cmake -S bench/e2e -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
  echo "==> build (dxbench_e2e)"
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target dxbench_e2e
  echo "==> smoke: dxbench_e2e_smoke"
  ctest --test-dir "$BUILD_DIR" -R dxbench_e2e_smoke --output-on-failure
  echo "==> OK (e2e-smoke)"
  exit 0
fi

echo "==> configure ($BUILD_DIR${MODE:+, $MODE})"
# The guarded expansion keeps bash < 4.4 (set -u) happy when the array is empty.
cmake -B "$BUILD_DIR" -S . ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}

if [ "$MODE" = "release" ]; then
  # The bit-identity tests also run here: the e2e digests come from a
  # Release (-O3) build, while the default ctest build is RelWithDebInfo.
  RELEASE_TESTS=(execution_plan_test gemm_kernel_test batch_exec_test alloc_test core_test)
  echo "==> build (Release: bench suite + bit-identity tests)"
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target bench_plan_steady_state bench_session_scaling "${RELEASE_TESTS[@]}"
  echo "==> ctest (Release): ${RELEASE_TESTS[*]}"
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R "^($(IFS='|'; echo "${RELEASE_TESTS[*]}"))\$"
  ARTIFACTS="$BUILD_DIR/bench_artifacts"
  echo "==> smoke: plan steady-state bench (Release)"
  DEEPXPLORE_ARTIFACT_DIR="$ARTIFACTS" "$BUILD_DIR/bench_plan_steady_state"
  echo "==> smoke: session scaling bench (Release)"
  DEEPXPLORE_ARTIFACT_DIR="$ARTIFACTS" "$BUILD_DIR/bench_session_scaling" --seeds 10
  echo "==> baseline vs current comparison (strict)"
  if command -v python3 > /dev/null; then
    python3 tools/compare_baselines.py --strict bench/baselines "$ARTIFACTS"
    echo "==> consolidated bench results -> BENCH_results.json"
    python3 - "$ARTIFACTS" << 'EOF'
import json, os, sys
artifacts = sys.argv[1]
merged = {}
for name in sorted(os.listdir(artifacts)):
    if name.endswith(".json"):
        with open(os.path.join(artifacts, name)) as f:
            merged[name[: -len(".json")]] = json.load(f)
with open("BENCH_results.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"BENCH_results.json: {', '.join(merged)}")
EOF
  else
    echo "python3 not found; skipping strict comparison + consolidation"
  fi
  echo "==> OK (release)"
  exit 0
fi

if [ "$MODE" = "service-smoke" ]; then
  echo "==> build (service smoke: daemon + client + CLI)"
  # dxplore_cli is the target; `dxplore` is only its OUTPUT_NAME.
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target dxplored dxplorectl dxplore_cli

  SVC_DIR="$BUILD_DIR/service_smoke"
  rm -rf "$SVC_DIR"
  mkdir -p "$SVC_DIR"
  SVC_CORPUS="$SVC_DIR/corpus"
  DAEMON_LOG="$SVC_DIR/dxplored.log"
  DAEMON_PID=""

  cleanup_daemon() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2> /dev/null; then
      kill "$DAEMON_PID" 2> /dev/null || true
      wait "$DAEMON_PID" 2> /dev/null || true
    fi
  }
  trap cleanup_daemon EXIT

  # Start dxplored on ephemeral ports and parse the bound ports from its
  # "dxplored listening ctl=P http=P" banner (port 0 avoids collisions with
  # anything else on the CI host).
  start_daemon() {
    : > "$DAEMON_LOG"
    "$BUILD_DIR/dxplored" --port 0 --http-port 0 --campaign-workers 2 \
      >> "$DAEMON_LOG" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
      grep -q "dxplored listening" "$DAEMON_LOG" && break
      sleep 0.1
    done
    CTL_PORT=$(sed -n 's/.*ctl=\([0-9]*\).*/\1/p' "$DAEMON_LOG" | tail -1)
    HTTP_PORT=$(sed -n 's/.*http=\([0-9]*\).*/\1/p' "$DAEMON_LOG" | tail -1)
    if [ -z "$CTL_PORT" ] || [ -z "$HTTP_PORT" ]; then
      echo "==> FAILED (dxplored did not report its ports)"
      cat "$DAEMON_LOG"
      exit 1
    fi
  }

  ctl() {
    "$BUILD_DIR/dxplorectl" --port "$CTL_PORT" --http-port "$HTTP_PORT" "$@"
  }

  # Poll `status ID` until the campaign reaches STATE (pause/cancel apply at
  # the next batch boundary, so state changes are asynchronous).
  wait_state() {
    local id="$1" state="$2"
    for _ in $(seq 1 200); do
      if ctl status "$id" | grep -q "\"state\":\"$state\""; then
        return 0
      fi
      sleep 0.1
    done
    echo "==> FAILED (campaign $id never reached $state)"
    ctl status "$id" || true
    exit 1
  }

  echo "==> service smoke: start dxplored"
  start_daemon
  echo "    ctl=$CTL_PORT http=$HTTP_PORT"
  ctl ping > /dev/null
  ctl get /health | grep -q '"status":"ok"'

  echo "==> service smoke: submit mnist campaign"
  # Sized so the campaign runs for many sync batches (pause and drain below
  # must land mid-flight, never racing completion) but still finishes in
  # seconds once resumed to completion.
  SUBMIT=$(ctl submit domain=mnist seeds=16 max_seed_passes=12 \
    max_iterations_per_seed=150 batch_size=4 sync_interval=4 \
    corpus_dir="$SVC_CORPUS")
  echo "    $SUBMIT"
  CAMPAIGN_ID=$(echo "$SUBMIT" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  [ -n "$CAMPAIGN_ID" ]
  wait_state "$CAMPAIGN_ID" RUNNING

  echo "==> service smoke: pause / resume"
  ctl pause "$CAMPAIGN_ID" > /dev/null
  wait_state "$CAMPAIGN_ID" PAUSED
  ctl resume "$CAMPAIGN_ID" > /dev/null
  wait_state "$CAMPAIGN_ID" RUNNING

  echo "==> service smoke: /health + /metrics while running"
  ctl get /health | grep -q '"running":'
  METRICS=$(ctl get /metrics)
  for family in dxplored_uptime_seconds dxplored_ctl_requests_total \
    dxplored_campaigns_submitted_total dxplored_campaign_tests_total \
    dxplored_campaign_coverage_ratio dxplored_executor_phase_seconds; do
    if ! echo "$METRICS" | grep -q "^$family"; then
      echo "==> FAILED (/metrics missing family $family)"
      echo "$METRICS"
      exit 1
    fi
  done

  echo "==> service smoke: drain mid-campaign (checkpoint + exit 0)"
  "$BUILD_DIR/dxplored" --drain --port "$CTL_PORT" > /dev/null
  DRAIN_RC=0
  wait "$DAEMON_PID" || DRAIN_RC=$?
  DAEMON_PID=""
  if [ "$DRAIN_RC" -ne 0 ]; then
    echo "==> FAILED (dxplored exited $DRAIN_RC on drain)"
    cat "$DAEMON_LOG"
    exit 1
  fi

  echo "==> service smoke: restart + resume campaign from its corpus"
  start_daemon
  echo "    ctl=$CTL_PORT http=$HTTP_PORT"
  RESUBMIT=$(ctl submit corpus_dir="$SVC_CORPUS" resume=true)
  echo "    $RESUBMIT"
  RESUMED_ID=$(echo "$RESUBMIT" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  [ -n "$RESUMED_ID" ]
  ctl wait "$RESUMED_ID" --timeout-seconds 300 > /dev/null
  ctl results "$RESUMED_ID" | grep -q '"ok":true'
  ctl get /metrics | grep -q 'state="DONE"'

  echo "==> service smoke: drain idle daemon"
  "$BUILD_DIR/dxplored" --drain --port "$CTL_PORT" > /dev/null
  wait "$DAEMON_PID"
  DAEMON_PID=""

  echo "==> service smoke: replay the daemon-recorded corpus bit for bit"
  "$BUILD_DIR/dxplore" --replay --corpus-dir "$SVC_CORPUS"

  echo "==> OK (service-smoke)"
  exit 0
fi

if [ "$MODE" = "corpus-maintenance" ]; then
  echo "==> build (corpus maintenance smoke: CLI + daemon + client)"
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target dxplore_cli dxplored dxplorectl

  CM_DIR="$BUILD_DIR/corpus_maintenance_smoke"
  rm -rf "$CM_DIR"
  mkdir -p "$CM_DIR"
  SRC_CORPUS="$CM_DIR/corpus"

  echo "==> corpus maintenance: record a pdf campaign"
  "$BUILD_DIR/dxplore" --domain pdf --seeds 60 --iters 20 \
    --corpus-dir "$SRC_CORPUS" > /dev/null
  "$BUILD_DIR/dxplore" corpus stats --corpus-dir "$SRC_CORPUS"

  echo "==> corpus maintenance: distill -> dedup -> minimize (each stage replay-verified)"
  # Each verb re-verifies its derived corpus via Session::Replay and exits
  # nonzero on any mismatch, so plain set -e is the assertion here.
  "$BUILD_DIR/dxplore" corpus distill --corpus-dir "$SRC_CORPUS" \
    --out "$CM_DIR/distilled"
  "$BUILD_DIR/dxplore" corpus dedup --corpus-dir "$CM_DIR/distilled" \
    --out "$CM_DIR/deduped"
  "$BUILD_DIR/dxplore" corpus minimize --corpus-dir "$CM_DIR/deduped" \
    --out "$CM_DIR/minimized" --regions 8 --rounds 2
  "$BUILD_DIR/dxplore" corpus stats --corpus-dir "$CM_DIR/minimized" \
    | grep -q "distill+dedup+minimize"

  echo "==> corpus maintenance: daemon compact request"
  DAEMON_LOG="$CM_DIR/dxplored.log"
  "$BUILD_DIR/dxplored" --port 0 --http-port 0 --campaign-workers 2 \
    > "$DAEMON_LOG" 2>&1 &
  DAEMON_PID=$!
  trap 'kill "$DAEMON_PID" 2> /dev/null || true' EXIT
  for _ in $(seq 1 100); do
    grep -q "dxplored listening" "$DAEMON_LOG" && break
    sleep 0.1
  done
  CTL_PORT=$(sed -n 's/.*ctl=\([0-9]*\).*/\1/p' "$DAEMON_LOG" | tail -1)
  HTTP_PORT=$(sed -n 's/.*http=\([0-9]*\).*/\1/p' "$DAEMON_LOG" | tail -1)
  if [ -z "$CTL_PORT" ] || [ -z "$HTTP_PORT" ]; then
    echo "==> FAILED (dxplored did not report its ports)"
    cat "$DAEMON_LOG"
    exit 1
  fi
  ctl() {
    "$BUILD_DIR/dxplorectl" --port "$CTL_PORT" --http-port "$HTTP_PORT" "$@"
  }

  SUBMIT=$(ctl submit domain=pdf seeds=40 max_seed_passes=1 \
    corpus_dir="$CM_DIR/daemon_corpus")
  echo "    $SUBMIT"
  CAMPAIGN_ID=$(echo "$SUBMIT" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  [ -n "$CAMPAIGN_ID" ]
  ctl wait "$CAMPAIGN_ID" --timeout-seconds 300 > /dev/null

  COMPACT=$(ctl compact "$CAMPAIGN_ID" out_dir="$CM_DIR/daemon_compacted" \
    minimize=true)
  echo "    $COMPACT"
  echo "$COMPACT" | grep -q '"verified":true'
  METRICS=$(ctl get /metrics)
  for family in dxplored_compactions_total dxplored_compaction_seconds \
    dxplored_corpus_entries dxplored_corpus_checkpoint_records; do
    if ! echo "$METRICS" | grep -q "^$family"; then
      echo "==> FAILED (/metrics missing family $family)"
      echo "$METRICS"
      exit 1
    fi
  done
  "$BUILD_DIR/dxplore" corpus stats --corpus-dir "$CM_DIR/daemon_compacted"

  "$BUILD_DIR/dxplored" --drain --port "$CTL_PORT" > /dev/null
  wait "$DAEMON_PID"
  DAEMON_PID=""

  echo "==> OK (corpus-maintenance)"
  exit 0
fi

echo "==> build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

CTEST_ARGS=(--output-on-failure -j "$(nproc)")
if ctest --help | grep -q -- --output-junit; then
  CTEST_ARGS+=(--output-junit ctest-junit.xml)
fi
if [ "$MODE" = "tsan" ]; then
  # Multi-worker Sessions + corpus resume are the race-prone surface, and
  # execution_plan_test compiles one model from several threads; the rest
  # of the suite is single-threaded and would only slow TSan down.
  CTEST_ARGS+=(-R 'session_test|batch_exec_test|corpus_test|corpus_maintenance_test|util_test|execution_plan_test')
fi

echo "==> ctest"
CTEST_LOG="$BUILD_DIR/ctest-run.log"
CTEST_RC=0
ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}" | tee "$CTEST_LOG" || CTEST_RC=$?

echo "==> per-test timing (slowest first)"
# `|| true`: a log with no test lines (ctest died before running any) must
# not let set -e eat the FAILED branch below.
grep -E 'Test +#[0-9]+:' "$CTEST_LOG" \
  | sed -E 's/.*Test +#[0-9]+: +([a-zA-Z0-9_]+) .* ([0-9.]+) sec.*/\2 \1/' \
  | sort -rn | head -10 | awk '{printf "  %8.2f s  %s\n", $1, $2}' || true

if [ "$CTEST_RC" -ne 0 ]; then
  echo "==> FAILED (ctest exit $CTEST_RC)"
  exit "$CTEST_RC"
fi

if [ "$MODE" = "sanitize" ] || [ "$MODE" = "tsan" ] || [ "$MODE" = "simd-off" ]; then
  echo "==> OK ($MODE)"
  exit 0
fi

echo "==> smoke: domain registry (--list-domains must include the out-of-paper domains)"
"$BUILD_DIR/dxplore" --list-domains
for domain in speech tabular; do
  if ! "$BUILD_DIR/dxplore" --list-domains | grep -q "^| $domain"; then
    echo "==> FAILED (--list-domains does not list '$domain')"
    exit 1
  fi
done
# The domain-conformance certification suite already ran under ctest above
# (domain_conformance_test covers every registered domain); the greps here
# only guard the CLI registry surface.

echo "==> smoke: malformed numeric flags exit 2 naming the flag"
for bad in "--step 0.O1" "--lambda1 1e" "--seeds 5x" "--rng-seed -3" \
  "--threshold nan" "--dedup-threshold x"; do
  flag="${bad%% *}"
  RC=0
  if [ "$flag" = "--dedup-threshold" ]; then
    OUT=$("$BUILD_DIR/dxplore" corpus dedup --corpus-dir /nonexistent \
      --out /nonexistent2 $bad 2>&1) || RC=$?
  else
    OUT=$("$BUILD_DIR/dxplore" --domain mnist $bad 2>&1) || RC=$?
  fi
  if [ "$RC" -ne 2 ] || ! echo "$OUT" | grep -q "invalid value for $flag"; then
    echo "==> FAILED ('dxplore $bad' exited $RC; want exit 2 naming $flag)"
    echo "$OUT"
    exit 1
  fi
done
echo "    all malformed values rejected with exit 2"

echo "==> smoke: --version reports the SIMD backend"
"$BUILD_DIR/dxplore" --version
"$BUILD_DIR/dxplore" --version | grep -q "simd backend:"

echo "==> smoke: micro_nn"
if [ -x "$BUILD_DIR/micro_nn" ]; then
  "$BUILD_DIR/micro_nn" --benchmark_min_time=0.01s
else
  echo "micro_nn not built (Google Benchmark not found); skipping"
fi

echo "==> smoke: session scaling bench"
DEEPXPLORE_ARTIFACT_DIR="$BUILD_DIR/bench_artifacts" \
  "$BUILD_DIR/bench_session_scaling" --seeds 10

echo "==> smoke: plan steady-state bench"
DEEPXPLORE_ARTIFACT_DIR="$BUILD_DIR/bench_artifacts" \
  "$BUILD_DIR/bench_plan_steady_state"

echo "==> baseline vs current comparison (informational)"
if command -v python3 > /dev/null; then
  python3 tools/compare_baselines.py bench/baselines "$BUILD_DIR/bench_artifacts" || true
else
  echo "python3 not found; skipping comparison"
fi

echo "==> smoke: corpus record + resume + replay (paper domain: pdf)"
CORPUS_DIR="$BUILD_DIR/smoke_corpus"
rm -rf "$CORPUS_DIR"
"$BUILD_DIR/dxplore" --domain pdf --seeds 60 --iters 20 \
  --corpus-dir "$CORPUS_DIR" --max-batches 1 > /dev/null
"$BUILD_DIR/dxplore" --resume --corpus-dir "$CORPUS_DIR" --workers 2 > /dev/null
"$BUILD_DIR/dxplore" --replay --corpus-dir "$CORPUS_DIR"

echo "==> smoke: corpus record + replay of a regression domain (driving)"
# Regression entries store float outputs, so replay re-predicts every stored
# input bit for bit on the kernels that generated it.
DRIVING_CORPUS_DIR="$BUILD_DIR/smoke_corpus_driving"
rm -rf "$DRIVING_CORPUS_DIR"
"$BUILD_DIR/dxplore" --domain driving --seeds 40 --iters 20 \
  --corpus-dir "$DRIVING_CORPUS_DIR" > /dev/null
"$BUILD_DIR/dxplore" --replay --corpus-dir "$DRIVING_CORPUS_DIR"

echo "==> smoke: corpus record + replay on an out-of-paper registry domain (speech)"
SPEECH_CORPUS_DIR="$BUILD_DIR/smoke_corpus_speech"
rm -rf "$SPEECH_CORPUS_DIR"
"$BUILD_DIR/dxplore" --domain speech --seeds 40 --iters 20 \
  --corpus-dir "$SPEECH_CORPUS_DIR" > /dev/null
"$BUILD_DIR/dxplore" --replay --corpus-dir "$SPEECH_CORPUS_DIR"

echo "==> smoke: corpus stats polling a recording campaign never damages its corpus (tabular)"
# Opening a corpus never writes, so a reader polling every 20 ms must neither
# fail (other than before the manifest exists) nor stop the corpus replaying.
POLLED_CORPUS_DIR="$BUILD_DIR/smoke_corpus_polled"
rm -rf "$POLLED_CORPUS_DIR"
"$BUILD_DIR/dxplore" --domain tabular --metric kmultisection \
  --scheduler coverage-gain --seeds 4000 --workers 3 \
  --corpus-dir "$POLLED_CORPUS_DIR" > /dev/null &
CAMPAIGN_PID=$!
POLLS=0
while kill -0 "$CAMPAIGN_PID" 2> /dev/null; do
  RC=0
  OUT=$("$BUILD_DIR/dxplore" corpus stats --corpus-dir "$POLLED_CORPUS_DIR" 2>&1) || RC=$?
  if [ "$RC" -ne 0 ] && ! echo "$OUT" | grep -q "holds no recorded campaign"; then
    echo "==> FAILED ('dxplore corpus stats' exited $RC while the campaign recorded)"
    echo "$OUT"
    kill "$CAMPAIGN_PID" 2> /dev/null || true
    exit 1
  fi
  POLLS=$((POLLS + 1))
  sleep 0.02
done
wait "$CAMPAIGN_PID"
echo "    $POLLS stats polls, none failed"
"$BUILD_DIR/dxplore" --replay --corpus-dir "$POLLED_CORPUS_DIR"

echo "==> smoke: corpus distill + dedup of a metric that profiles seeds (tabular kmultisection)"
# Each pass and each verification must start from the profiled seed ranges;
# every verb replay-verifies its derived corpus or exits nonzero.
rm -rf "$POLLED_CORPUS_DIR.distilled" "$POLLED_CORPUS_DIR.deduped"
"$BUILD_DIR/dxplore" corpus distill --corpus-dir "$POLLED_CORPUS_DIR" \
  --out "$POLLED_CORPUS_DIR.distilled"
"$BUILD_DIR/dxplore" corpus dedup --corpus-dir "$POLLED_CORPUS_DIR.distilled" \
  --out "$POLLED_CORPUS_DIR.deduped"

echo "==> OK"
