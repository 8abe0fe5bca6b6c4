#pragma once
// ScenarioRunner: drive a built ScenarioWorld for its declared duration,
// snapshot metrics, evaluate the spec's declarative SLO gates, and package
// everything as a ScenarioReport the CLI prints or exports as JSON.
// The same evaluator, printer and JSON rows judge every bench binary's gates
// (bench::Session).
//
// SLO metric names resolve against the collected MetricsRecorder: an exact
// counter name ("chaos.dropped", "shard.lookahead_violations"), or
// "<series>.<stat>" with stat one of count/mean/min/max/p50/p95/p99
// ("cloud.e2e_ms.p95"). A gate whose metric does not exist fails — a typo'd
// gate must not silently pass.

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/spec.hpp"
#include "scenario/world.hpp"
#include "sim/metrics.hpp"

namespace mvc::scenario {

struct SloResult {
    SloGate gate;
    std::optional<double> value;  ///< nullopt: metric missing from the run
    bool passed{false};
};

struct ScenarioReport {
    std::string name;
    std::string stamp;
    common::Json metrics;  ///< MetricsRecorder::to_json() snapshot
    std::vector<std::uint64_t> hashes;
    std::vector<SloResult> slos;
    bool passed{true};  ///< every SLO held
    // Host cost of ScenarioWorld::run, the only part timed. Not in
    // report_to_json: wall time differs from run to run.
    std::size_t events{0};
    double wall_seconds{0.0};
};

/// Look one SLO metric up in a recorder (counter name or "<series>.<stat>").
[[nodiscard]] std::optional<double> metric_value(const sim::MetricsRecorder& metrics,
                                                 const std::string& name);

/// Evaluate the spec's gates against collected metrics.
[[nodiscard]] std::vector<SloResult> evaluate_slos(const sim::MetricsRecorder& metrics,
                                                   const std::vector<SloGate>& gates);

/// One "[ok]"/"[FAIL]" line per result: metric, value (or <missing>), bounds.
void print_slos(const std::vector<SloResult>& slos);

/// The `slos` array of an artifact: one {metric, min?, max?, value, passed}
/// row per result; a missing metric's value is null.
[[nodiscard]] common::Json slos_to_json(const std::vector<SloResult>& slos);

/// Drive an already-built world for the spec's duration and report. The
/// world must not have been run yet.
[[nodiscard]] ScenarioReport run_world(ScenarioWorld& world, std::size_t threads = 1);

/// The one-call path: build(spec), run, report.
[[nodiscard]] ScenarioReport run_scenario(const ScenarioSpec& spec,
                                          std::size_t threads = 1);

[[nodiscard]] common::Json report_to_json(const ScenarioReport& report);

/// The text of a spec file. An unreadable file throws SpecError.
[[nodiscard]] std::string read_spec_file(const std::string& path);

/// Read + parse a `.scenario.json` file. Unreadable files and schema
/// violations throw SpecError (path context = the file name).
[[nodiscard]] ScenarioSpec load_spec_file(const std::string& path);

}  // namespace mvc::scenario
