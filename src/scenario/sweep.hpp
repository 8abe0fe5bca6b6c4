#pragma once
// Sweep: one spec run over a grid of overrides and worker-thread counts,
// reported as one artifact (`metaclass_scenario sweep`). An override sets
// one dotted key ("campus.clients_per_region") in the spec's JSON document,
// which the strict reader then re-reads, so a bad path or value fails with
// the reader's field-path SpecError. Several axes form a cartesian product,
// the last axis turning fastest. Each point runs once per thread count (a
// repeated count is a same-seed rerun), and every run must match the
// point's first run byte for byte.

#include <string_view>

#include "scenario/runner.hpp"

namespace mvc::scenario {

/// One `--vary <dotted.path>=v1,v2,…` axis. A value is JSON, or a plain
/// string when it does not parse as JSON ("name=e16-batching").
struct VaryAxis {
    std::string path;
    std::vector<common::Json> values;
};

/// Throws std::invalid_argument for a flag without a path or with an
/// empty value.
[[nodiscard]] VaryAxis parse_vary(std::string_view flag);

/// "t1,t2,…", each an integer >= 1; throws std::invalid_argument otherwise.
[[nodiscard]] std::vector<std::size_t> parse_threads(std::string_view list);

/// Same non-empty hash stream and byte-identical metrics dump.
[[nodiscard]] bool same_run(const ScenarioReport& a, const ScenarioReport& b);

/// Events per wall second of one run (0 when it took no measurable time).
[[nodiscard]] double events_per_s(const ScenarioReport& r);

struct SweepPoint {
    common::JsonObject overrides;      ///< path -> value at this point
    std::vector<ScenarioReport> runs;  ///< one per thread count, in order
    bool identical{true};              ///< every run matched runs.front() (one run: true)
};

struct Sweep {
    std::string name;  ///< the first point's spec name: BENCH_<name>.json
    std::uint64_t seed{0};
    std::vector<std::size_t> threads;
    std::vector<SweepPoint> points;

    /// Every point identical and every SLO held.
    [[nodiscard]] bool passed() const;
};

/// Sweep the spec document `text`; `threads` must not be empty.
[[nodiscard]] Sweep run_sweep(std::string_view text, const std::vector<VaryAxis>& axes,
                              const std::vector<std::size_t>& threads);

/// The BENCH artifact: `experiment`/`seed`/`build` stamps, the verdict,
/// and per point its overrides, identity verdict and report_to_json. Wall
/// seconds, events and events/s per (point, threads) sit apart in
/// `timing`, the only part that differs between invocations.
[[nodiscard]] common::Json sweep_to_json(const Sweep& sweep, const std::string& build);

}  // namespace mvc::scenario
