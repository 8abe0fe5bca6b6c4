#include "scenario/runner.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace mvc::scenario {

namespace {

/// "<series>.<stat>" → the stat applied to `series`, if the suffix names one.
[[nodiscard]] std::optional<double> series_stat(const math::SampleSeries& series,
                                                std::string_view stat) {
    if (stat == "count") return static_cast<double>(series.count());
    if (series.empty()) return std::nullopt;
    if (stat == "mean") return series.mean();
    if (stat == "min") return series.min();
    if (stat == "max") return series.max();
    if (stat == "p50") return series.median();
    if (stat == "p95") return series.p95();
    if (stat == "p99") return series.p99();
    return std::nullopt;
}

}  // namespace

std::optional<double> metric_value(const sim::MetricsRecorder& metrics,
                                   const std::string& name) {
    const auto counters = metrics.counters();
    if (const auto it = counters.find(name); it != counters.end())
        return static_cast<double>(it->second);
    const auto dot = name.rfind('.');
    if (dot == std::string::npos) return std::nullopt;
    const std::string base = name.substr(0, dot);
    if (!metrics.has_series(base)) return std::nullopt;
    return series_stat(metrics.series(base), std::string_view{name}.substr(dot + 1));
}

std::vector<SloResult> evaluate_slos(const sim::MetricsRecorder& metrics,
                                     const std::vector<SloGate>& gates) {
    std::vector<SloResult> out;
    out.reserve(gates.size());
    for (const SloGate& gate : gates) {
        SloResult r;
        r.gate = gate;
        r.value = metric_value(metrics, gate.metric);
        r.passed = r.value.has_value() &&
                   (!gate.min || *r.value >= *gate.min) &&
                   (!gate.max || *r.value <= *gate.max);
        out.push_back(std::move(r));
    }
    return out;
}

void print_slos(const std::vector<SloResult>& slos) {
    for (const SloResult& r : slos) {
        std::printf("  [%s] %-36s", r.passed ? "ok" : "FAIL", r.gate.metric.c_str());
        if (r.value)
            std::printf(" value=%.6g", *r.value);
        else
            std::printf(" value=<missing>");
        if (r.gate.min) std::printf(" min=%.6g", *r.gate.min);
        if (r.gate.max) std::printf(" max=%.6g", *r.gate.max);
        std::printf("\n");
    }
}

common::Json slos_to_json(const std::vector<SloResult>& slos) {
    common::JsonArray rows;
    for (const SloResult& r : slos) {
        common::JsonObject row{{"metric", common::Json{r.gate.metric}},
                               {"value", r.value ? common::Json{*r.value} : common::Json{}},
                               {"passed", common::Json{r.passed}}};
        if (r.gate.min) row["min"] = common::Json{*r.gate.min};
        if (r.gate.max) row["max"] = common::Json{*r.gate.max};
        rows.emplace_back(std::move(row));
    }
    return common::Json{std::move(rows)};
}

ScenarioReport run_world(ScenarioWorld& world, std::size_t threads) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t events = world.run(threads);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    world.stop();

    ScenarioReport report;
    report.events = events;
    report.wall_seconds = wall.count();
    report.name = world.spec().name;
    report.stamp = spec_stamp(world.spec());
    const sim::MetricsRecorder metrics = world.collect_metrics();
    report.metrics = metrics.to_json();
    report.hashes = world.hashes();
    report.slos = evaluate_slos(metrics, world.spec().slos);
    for (const SloResult& r : report.slos) report.passed = report.passed && r.passed;
    return report;
}

ScenarioReport run_scenario(const ScenarioSpec& spec, std::size_t threads) {
    const std::unique_ptr<ScenarioWorld> world = build(spec);
    return run_world(*world, threads);
}

common::Json report_to_json(const ScenarioReport& report) {
    common::JsonObject doc;
    doc["name"] = common::Json{report.name};
    doc["stamp"] = common::Json{report.stamp};
    doc["passed"] = common::Json{report.passed};
    doc["hash_epochs"] = common::Json{static_cast<double>(report.hashes.size())};
    if (!report.hashes.empty()) {
        // The final hash summarises the stream; full streams live in traces.
        std::ostringstream hex;
        hex << std::hex << report.hashes.back();
        doc["final_hash"] = common::Json{hex.str()};
    }
    doc["slos"] = slos_to_json(report.slos);
    doc["metrics"] = report.metrics;
    return common::Json{std::move(doc)};
}

std::string read_spec_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw SpecError(path, "cannot open spec file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

ScenarioSpec load_spec_file(const std::string& path) {
    const std::string text = read_spec_file(path);
    try {
        return scenario_from_text(text);
    } catch (const SpecError& e) {
        std::string why = e.what();
        if (constexpr std::string_view prefix = "scenario: "; why.starts_with(prefix))
            why.erase(0, prefix.size());
        throw SpecError(path, why);
    }
}

}  // namespace mvc::scenario
