#!/usr/bin/env bash
# One-shot CI: tier-1 verify (default preset build + full ctest), the
# ASan+UBSan `sanitize` preset build + ctest (UBSan findings, float->int
# overflow included, abort the run), and the ThreadSanitizer `tsan`
# preset, which builds with -fsanitize=thread and runs the sharded-engine
# tests (the only multi-threaded code). The optional perf smoke stage builds
# the `profile` preset and runs the E17 hot-path bench in quick mode; the
# bench exits nonzero if steady-state allocations/event exceed its budget or
# the >=5x reduction vs the reference loop regresses. Run from anywhere:
#
#   tools/ci.sh            # tier1 + sanitize + tsan
#   tools/ci.sh --tier1    # default preset only
#   tools/ci.sh --sanitize # sanitize preset only
#   tools/ci.sh --tsan     # tsan preset only
#   tools/ci.sh --perf     # profile preset + E17 allocation budget smoke
#   tools/ci.sh --replay   # record a short run, fail on trace-verify error
#                          # or replay divergence, then the E18 quick bench
#   tools/ci.sh --realnet  # byte-codec and hostile-input decoder tests
#                          # (bytes, golden, realnet, replay, avatar,
#                          # recovery) under ASan+UBSan, the E19
#                          # loopback bench (wire rate + record->replay
#                          # divergence gate), and the two-process UDP demo
#   tools/ci.sh --chaos    # chaos/reconnect unit tests under ASan+UBSan,
#                          # then the E20 chaos soak (delivery/recovery SLO
#                          # gates + same-seed determinism) in quick mode
#                          # and the E14 fault-recovery gates (a loss burst
#                          # degrades the ladder, which then fully recovers)
#   tools/ci.sh --scenario # scenario-engine unit tests under ASan+UBSan,
#                          # every shipped scenarios/*.scenario.json through
#                          # metaclass_scenario, the E15 crash/overload gates,
#                          # the E21 gate in quick mode,
#                          # a 60 s spec-mutation fuzz smoke, and the
#                          # recorded-corpus fuzz-trace sweep (ASan+UBSan)
#   tools/ci.sh --qoe      # qoe unit tests under ASan+UBSan, the shipped
#                          # congested-lecture scenario SLO gates, then the
#                          # E23 priority-trade + clean-control + determinism
#                          # gate in quick mode
#   tools/ci.sh --campus   # campus/pool/aggregator and cloud/relay egress
#                          # unit tests (campus_test, cloud_test) under
#                          # ASan+UBSan, then the E22 campus sweep in quick
#                          # mode (events/sec + bytes/avatar SLO gates,
#                          # thread-count determinism, BENCH_e22.json)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
# A UBSan report fails the binary that made it (the stages below run test
# binaries directly, outside ctest's preset environment).
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

run_tier1=1
run_sanitize=1
run_tsan=1
run_perf=0
run_replay=0
run_realnet=0
run_chaos=0
run_scenario=0
run_campus=0
run_qoe=0
case "${1:-}" in
  "") ;;
  --tier1) run_sanitize=0; run_tsan=0 ;;
  --sanitize) run_tier1=0; run_tsan=0 ;;
  --tsan) run_tier1=0; run_sanitize=0 ;;
  --perf) run_tier1=0; run_sanitize=0; run_tsan=0; run_perf=1 ;;
  --replay) run_tier1=0; run_sanitize=0; run_tsan=0; run_replay=1 ;;
  --realnet) run_tier1=0; run_sanitize=0; run_tsan=0; run_realnet=1 ;;
  --chaos) run_tier1=0; run_sanitize=0; run_tsan=0; run_chaos=1 ;;
  --scenario) run_tier1=0; run_sanitize=0; run_tsan=0; run_scenario=1 ;;
  --campus) run_tier1=0; run_sanitize=0; run_tsan=0; run_campus=1 ;;
  --qoe) run_tier1=0; run_sanitize=0; run_tsan=0; run_qoe=1 ;;
  *) echo "usage: tools/ci.sh [--tier1|--sanitize|--tsan|--perf|--replay|--realnet|--chaos|--scenario|--campus|--qoe]" >&2; exit 2 ;;
esac

stage() { # stage <preset>
  echo "==> [$1] configure"
  cmake --preset "$1"
  echo "==> [$1] build"
  cmake --build --preset "$1" -j "$jobs"
  echo "==> [$1] ctest"
  ctest --preset "$1"
}

perf_stage() {
  echo "==> [profile] configure"
  cmake --preset profile
  echo "==> [profile] build bench_e17_hotpath"
  cmake --build --preset profile -j "$jobs" --target bench_e17_hotpath
  echo "==> [profile] E17 allocation budget smoke (quick mode)"
  E17_QUICK=1 ./build-profile/bench/bench_e17_hotpath
}

replay_stage() {
  echo "==> [default] configure"
  cmake --preset default
  echo "==> [default] build metaclass_trace + bench_e18_record_replay"
  cmake --build --preset default -j "$jobs" --target metaclass_trace \
    --target bench_e18_record_replay
  local trace
  trace=$(mktemp -t ci_replay_XXXXXX.mvtr)
  trap 'rm -f "$trace"' RETURN
  echo "==> [replay] record a short builtin lecture"
  ./build/tools/metaclass_trace record "$trace" --duration 8
  echo "==> [replay] trace integrity"
  ./build/tools/metaclass_trace verify "$trace"
  echo "==> [replay] re-run from the recorded seed, diff state hashes"
  ./build/tools/metaclass_trace check "$trace"
  echo "==> [replay] E18 record/replay budget smoke (quick mode)"
  E18_QUICK=1 ./build/bench/bench_e18_record_replay
}

realnet_stage() {
  echo "==> [sanitize] configure"
  cmake --preset sanitize
  local decoders=(bytes_test golden_bytes_test realnet_test replay_test avatar_test
                  recovery_test)
  local targets=()
  for t in "${decoders[@]}"; do targets+=(--target "$t"); done
  echo "==> [sanitize] build the byte-codec and decoder tests"
  cmake --build --preset sanitize -j "$jobs" "${targets[@]}"
  echo "==> [realnet] wire/trace/avatar/checkpoint decoders under ASan+UBSan"
  # gtest_discover_tests registers Suite.Case names, so ctest -R on a binary
  # name selects nothing (and exits 0); run the binaries directly.
  for t in "${decoders[@]}"; do
    "./build-sanitize/tests/$t"
  done
  echo "==> [default] configure"
  cmake --preset default
  echo "==> [default] build bench_e19_realnet + realnet_demo"
  cmake --build --preset default -j "$jobs" --target bench_e19_realnet     --target realnet_demo
  echo "==> [realnet] E19 loopback wire rate + record->replay gate (quick mode)"
  E19_QUICK=1 ./build/bench/bench_e19_realnet
  echo "==> [realnet] two-process UDP demo (edge + client)"
  ./build/examples/realnet_demo --role edge --port 47620 --seconds 3 &
  local edge_pid=$!
  sleep 0.5
  ./build/examples/realnet_demo --role client --port 47620 --seconds 2
  wait "$edge_pid"
}

chaos_stage() {
  echo "==> [sanitize] configure"
  cmake --preset sanitize
  echo "==> [sanitize] build chaos_test"
  cmake --build --preset sanitize -j "$jobs" --target chaos_test
  echo "==> [chaos] chaos/reconnect unit tests under ASan+UBSan"
  ctest --preset sanitize -R 'Backoff|Chaos|Reconnect|Degradation|PathHealth|FrameDefect'
  echo "==> [default] configure"
  cmake --preset default
  echo "==> [default] build bench_e20_chaos + bench_e14_fault_recovery"
  cmake --build --preset default -j "$jobs" --target bench_e20_chaos \
    --target bench_e14_fault_recovery
  echo "==> [chaos] E20 soak: SLO gates + same-seed determinism (quick mode)"
  E20_QUICK=1 ./build/bench/bench_e20_chaos
  echo "==> [chaos] E14 fault recovery: failover + degradation-ladder gates"
  ./build/bench/bench_e14_fault_recovery
}

scenario_stage() {
  echo "==> [sanitize] configure"
  cmake --preset sanitize
  echo "==> [sanitize] build scenario_test + metaclass_scenario + bench_e15_crash_recovery"
  cmake --build --preset sanitize -j "$jobs" --target scenario_test \
    --target metaclass_scenario --target bench_e15_crash_recovery
  echo "==> [scenario] engine unit tests under ASan+UBSan"
  # gtest_discover_tests registers individual case names, so ctest -R on the
  # binary name would select nothing (and exit 0); run the binary directly.
  ./build-sanitize/tests/scenario_test
  echo "==> [scenario] every shipped spec end-to-end (ASan+UBSan)"
  for spec in scenarios/*.scenario.json; do
    ./build-sanitize/tools/metaclass_scenario run "$spec"
  done
  echo "==> [scenario] E15 crash-recovery + overload gates (ASan+UBSan)"
  ./build-sanitize/bench/bench_e15_crash_recovery
  echo "==> [scenario] 60 s spec-mutation fuzz smoke (ASan+UBSan)"
  ./build-sanitize/tools/metaclass_scenario fuzz --seconds 60 \
    scenarios/exam.scenario.json
  echo "==> [scenario] recorded-corpus fuzz-trace sweep (ASan+UBSan)"
  # Every checked-in corpus file (valid specs and rejection cases alike) is a
  # seed blob: fuzz-trace corrupts its bytes and the trace verify/parse path
  # must reject garbage without crashing.
  for f in tests/corpus/valid/* tests/corpus/bad/*; do
    ./build-sanitize/tools/metaclass_scenario fuzz-trace --iters 50 "$f"
  done
  echo "==> [default] configure"
  cmake --preset default
  echo "==> [default] build bench_e21_scenario"
  cmake --build --preset default -j "$jobs" --target bench_e21_scenario
  echo "==> [scenario] E21 gate: SLOs + determinism + thread sweep (quick mode)"
  E21_QUICK=1 ./build/bench/bench_e21_scenario
}

qoe_stage() {
  echo "==> [sanitize] configure"
  cmake --preset sanitize
  echo "==> [sanitize] build qoe_test"
  cmake --build --preset sanitize -j "$jobs" --target qoe_test
  echo "==> [qoe] ABR/budget/score/loop unit tests under ASan+UBSan"
  ./build-sanitize/tests/qoe_test
  echo "==> [default] configure"
  cmake --preset default
  echo "==> [default] build bench_e23_qoe + metaclass_scenario"
  cmake --build --preset default -j "$jobs" --target bench_e23_qoe \
    --target metaclass_scenario
  echo "==> [qoe] congested-lecture scenario SLO gates"
  ./build/tools/metaclass_scenario run scenarios/congested_lecture.scenario.json
  echo "==> [qoe] E23 gate: priority trade + clean control + determinism (quick mode)"
  E23_QUICK=1 ./build/bench/bench_e23_qoe
}

campus_stage() {
  echo "==> [sanitize] configure"
  cmake --preset sanitize
  echo "==> [sanitize] build campus_test cloud_test"
  cmake --build --preset sanitize -j "$jobs" --target campus_test cloud_test
  echo "==> [campus] pool/grid/aggregator and avatar egress unit tests under ASan+UBSan"
  ./build-sanitize/tests/campus_test
  ./build-sanitize/tests/cloud_test
  echo "==> [default] configure"
  cmake --preset default
  echo "==> [default] build bench_e22_campus"
  cmake --build --preset default -j "$jobs" --target bench_e22_campus
  echo "==> [campus] E22 sweep: thread determinism + bytes/avatar gate (quick mode)"
  E22_QUICK=1 ./build/bench/bench_e22_campus
}

[ "$run_tier1" -eq 1 ] && stage default
[ "$run_sanitize" -eq 1 ] && stage sanitize
[ "$run_tsan" -eq 1 ] && stage tsan
[ "$run_perf" -eq 1 ] && perf_stage
[ "$run_replay" -eq 1 ] && replay_stage
[ "$run_realnet" -eq 1 ] && realnet_stage
[ "$run_chaos" -eq 1 ] && chaos_stage
[ "$run_scenario" -eq 1 ] && scenario_stage
[ "$run_campus" -eq 1 ] && campus_stage
[ "$run_qoe" -eq 1 ] && qoe_stage

echo "==> ci.sh: all requested stages passed"
