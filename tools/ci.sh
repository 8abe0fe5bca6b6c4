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
#                          # `metaclass_scenario sweep <spec> --threads 1,2`
#                          # for every shipped scenarios/*.scenario.json (SLO
#                          # gates, same-seed rerun identity, campus thread
#                          # identity: E21's gates), the E15 crash/overload
#                          # gates, a 60 s spec-mutation fuzz smoke, and the
#                          # recorded-corpus fuzz-trace sweep (ASan+UBSan)
#   tools/ci.sh --qoe      # qoe unit tests under ASan+UBSan, then E23's
#                          # sweeps cut to 12 s: the congested lecture (SLOs
#                          # + identity over a rerun and 2/4/8 threads) and
#                          # the clean-link control's SLOs
#   tools/ci.sh --campus   # campus/pool/aggregator and cloud/relay egress
#                          # unit tests (campus_test, cloud_test; the former
#                          # holds E22's aggregated-below-fan-out gate) under
#                          # ASan+UBSan, then the quick E22 sweep and its
#                          # aggregation ablation and the quick E16 sweep
#                          # (gates: identity across thread counts, no
#                          # lookahead violations)
#   tools/ci.sh --unreached # list library functions no shipped binary
#                          # keeps (report only, always exits 0; see
#                          # unreached_stage)
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
run_unreached=0
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
  --unreached) run_tier1=0; run_sanitize=0; run_tsan=0; run_unreached=1 ;;
  *) echo "usage: tools/ci.sh [--tier1|--sanitize|--tsan|--perf|--replay|--realnet|--chaos|--scenario|--campus|--qoe|--unreached]" >&2; exit 2 ;;
esac

# A sweep writes BENCH_<name>.json into its working directory, so the
# stages below run theirs in a scratch directory. Its exit code is its
# SLO and identity verdict.
sweep_dir=$(mktemp -d -t ci_sweep_XXXXXX)
trap 'rm -rf "$sweep_dir"' EXIT
sweep() { # sweep <build-dir> <spec file name> [args...]
  local root=$PWD
  (cd "$sweep_dir" && "$root/$1/tools/metaclass_scenario" sweep "$root/scenarios/$2" "${@:3}")
}

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
  echo "==> [scenario] every shipped spec swept at 1 and 2 threads (ASan+UBSan)"
  for spec in scenarios/*.scenario.json; do
    sweep build-sanitize "$(basename "$spec")" --threads 1,2
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
  echo "==> [default] build metaclass_scenario"
  cmake --build --preset default -j "$jobs" --target metaclass_scenario
  echo "==> [qoe] E23: congested lecture, 12 s, SLOs + identity over a rerun and threads"
  sweep build congested_lecture.scenario.json --vary duration_s=12 --threads 1,1,2,4,8
  echo "==> [qoe] E23: clean-link control, 12 s, top tier and no switches"
  sweep build clean_lecture.scenario.json --vary duration_s=12
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
  echo "==> [default] build metaclass_scenario"
  cmake --build --preset default -j "$jobs" --target metaclass_scenario
  local e22_quick=(--vary campus.pooled.buildings=2 --vary campus.pooled.classrooms_per_building=10
                   --vary campus.pooled.avatars_per_classroom=50 --vary duration_s=0.5)
  echo "==> [campus] E22 quick sweep: identity across threads, no lookahead violations"
  sweep build e22.scenario.json "${e22_quick[@]}" --threads 1,2
  echo "==> [campus] E22 quick aggregation ablation (aggregated vs fan-out bytes)"
  sweep build e22.scenario.json "${e22_quick[@]}" --vary name=e22-aggregation \
    --vary campus.pooled.aggregate=true,false
  echo "==> [campus] E16 quick sweep: identity across threads, no lookahead violations"
  sweep build e16.scenario.json --vary campus.clients_per_region=6 --vary duration_s=1 \
    --threads 1,2
}

# Dead-code scan: build every shipped executable (tools, benches, examples)
# and perfbench at -O0 with one section per function, link with
# --gc-sections, and print the mvc:: functions that the module libraries
# define but no linked binary keeps. Functions inlined into every caller have
# no out-of-line copy to find, and virtual functions stay alive through their
# vtables, so the list is neither complete nor proof: check each name with
# grep across src/ tools/ bench/ perfbench/ examples/ before deleting it, and
# re-run the scan after each deletion. Report only; exits 0.
unreached_stage() {
  local dir=build-unreached
  local cfg=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
             "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
             -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
  local targets=() bins=()
  for f in tools/metaclass_*.cpp bench/bench_*.cpp examples/*.cpp; do
    local name
    name=$(basename "$f" .cpp)
    targets+=(--target "$name")
    case "$f" in
      bench/*) bins+=("$dir/bench/$name") ;;
      *) bins+=("$dir/$(dirname "$f")/$name") ;;
    esac
  done
  echo "==> [unreached] build ${#bins[@]} shipped executables (-O0, --gc-sections)"
  cmake -S . -B "$dir" "${cfg[@]}"
  cmake --build "$dir" -j "$jobs" "${targets[@]}"
  echo "==> [unreached] build perfbench"
  cmake -S perfbench -B "$dir/perfbench" "${cfg[@]}"
  cmake --build "$dir/perfbench" -j "$jobs" --target perfbench
  bins+=("$dir/perfbench/perfbench")

  # Mangled names of mvc:: functions (members, free functions, templates and
  # the lambdas inside them) with a global or weak text definition.
  mvc_functions() {
    nm --defined-only "$@" 2>/dev/null |
      awk '$2 == "T" || $2 == "W" { print $3 }' |
      grep -E '^_ZZ?NK?3mvc' | sort -u || true
  }
  local defined kept unreached
  defined=$(mvc_functions "$dir"/src/*/libmvc_*.a)
  kept=$(mvc_functions "${bins[@]}")
  unreached=$(comm -23 <(printf '%s\n' "$defined") <(printf '%s\n' "$kept") |
              c++filt | sort -u)
  echo "==> [unreached] $(printf '%s' "$unreached" | grep -c . || true) mvc:: functions" \
       "no shipped binary keeps (check each with grep before deleting):"
  [ -n "$unreached" ] && printf '%s\n' "$unreached"
  return 0
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
[ "$run_unreached" -eq 1 ] && unreached_stage

echo "==> ci.sh: all requested stages passed"
