#pragma once
// Shared helpers for the experiment harnesses: fixed-width table printing,
// latency-series row formatting, and the Session wrapper that collects every
// reported figure into a MetricsRecorder, judges the bench's SLO gates over
// it and exports both as BENCH_<exp>.json — so each bench emits the human
// table EXPERIMENTS.md records, a machine-readable artifact with identical
// numbers, and an exit code that is its verdict. A Session is named
// by its id in tools/experiment_registry.hpp, the table behind
// `metaclass_scenario experiments`, which supplies its title and claim.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "math/stats.hpp"
#include "scenario/runner.hpp"
#include "sim/metrics.hpp"
#include "tools/experiment_registry.hpp"

// Build provenance stamped into every BENCH_<exp>.json. The CMake bench
// target defines METACLASS_BUILD_FLAGS from the compiler id + build type +
// flags; both are fixed per build tree, so the artifact stays byte-identical
// across runs of the same binary.
#ifndef METACLASS_BUILD_FLAGS
#define METACLASS_BUILD_FLAGS "unknown"
#endif

namespace mvc::bench {

inline void latency_row(const char* label, const math::SampleSeries& s) {
    std::printf("%-36s n=%7zu  mean=%8.2f  p50=%8.2f  p95=%8.2f  p99=%8.2f ms\n",
                label, s.count(), s.mean(), s.median(), s.p95(), s.p99());
}

inline std::string fmt_rate(double bits_per_second) {
    char buf[64];
    if (bits_per_second >= 1e6) {
        std::snprintf(buf, sizeof buf, "%.2f Mbit/s", bits_per_second / 1e6);
    } else if (bits_per_second >= 1e3) {
        std::snprintf(buf, sizeof buf, "%.2f kbit/s", bits_per_second / 1e3);
    } else {
        std::snprintf(buf, sizeof buf, "%.0f bit/s", bits_per_second);
    }
    return buf;
}

/// One experiment run. Prints the registry entry's banner on construction,
/// accumulates every reported figure in a MetricsRecorder, and in finish()
/// judges the bench's gates over them and writes BENCH_<id>.json (in the
/// working directory): MetricsRecorder::to_json() plus "experiment", "seed"
/// and "build" stamps, the verdict ("passed") and the gate rows ("slos"), so
/// two runs that record identical metrics serialize to identical bytes.
class Session {
public:
    /// An id the registry does not know throws, so a bench can never ship
    /// under an undocumented name.
    explicit Session(std::string_view id) : id_(id) {
        for (const tools::Experiment& e : tools::kExperiments) {
            if (id_ != e.id) continue;
            std::printf("\n%s\n%s\nclaim: %s\n%s\n", kRule, e.title, e.claim, kRule);
            metrics_.count("experiment." + id_);  // never write an empty artifact
            return;
        }
        throw std::invalid_argument("bench::Session: unknown experiment id: " + id_);
    }

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] sim::MetricsRecorder& metrics() { return metrics_; }

    /// Stamp the scenario seed into the artifact ("seed" field). Benches call
    /// this right after picking their ClassroomConfig seed so a reader can
    /// reproduce the exact run from the JSON alone.
    void set_seed(std::uint64_t seed) { seed_ = seed; }

    /// Record a value under `name` (scalars land in a 1-sample series).
    void record(std::string_view name, double value) { metrics_.sample(name, value); }
    void count(std::string_view name, std::uint64_t delta = 1) {
        metrics_.count(name, delta);
    }
    /// Record a whole series (count/mean/min/max/percentiles survive export).
    void record(std::string_view name, const math::SampleSeries& s) {
        for (const double v : s.samples()) metrics_.sample(name, v);
    }
    /// Record a wall-clock figure. It lands, with the rows of the gates that
    /// read it, in the artifact's "timing" object, as in a sweep artifact.
    void timing(std::string_view name, double value) { timing_.sample(name, value); }

    /// Print the standard latency table row and capture it under `label`.
    void latency_row(const char* label, const math::SampleSeries& s) {
        bench::latency_row(label, s);
        record(label, s);
    }

    /// Declare one gate {metric, min, max}; `{}` leaves a bound open. The
    /// metric is "<series>.<stat>" or a counter name, as in a spec's `slos`;
    /// one never recorded fails.
    void gate(scenario::SloGate gate) { gates_.push_back(std::move(gate)); }

    /// Judge every gate, print the rows and write the artifact. Returns the
    /// exit code: 0 when every gate held and the artifact was written.
    [[nodiscard]] int finish() {
        std::vector<scenario::SloGate> gates[2];  // on metrics, on timing figures
        for (scenario::SloGate& g : gates_)
            gates[scenario::metric_value(timing_, g.metric) ? 1 : 0].push_back(std::move(g));
        const auto slos = scenario::evaluate_slos(metrics_, gates[0]);
        const auto timed_slos = scenario::evaluate_slos(timing_, gates[1]);
        std::printf("\nexpected shape:\n");
        scenario::print_slos(slos);
        scenario::print_slos(timed_slos);
        const auto held = std::ranges::count(slos, true, &scenario::SloResult::passed) +
                          std::ranges::count(timed_slos, true, &scenario::SloResult::passed);
        const std::size_t total = slos.size() + timed_slos.size();
        const bool passed = static_cast<std::size_t>(held) == total;

        common::Json root = metrics_.to_json();
        root["experiment"] = common::Json{id_};
        if (seed_) root["seed"] = common::Json{*seed_};
        root["build"] = common::Json{std::string{METACLASS_BUILD_FLAGS}};
        root["passed"] = common::Json{passed};
        root["slos"] = scenario::slos_to_json(slos);
        if (!timing_.all_series().empty()) {
            common::Json timing = timing_.to_json();
            timing["slos"] = scenario::slos_to_json(timed_slos);
            root["timing"] = std::move(timing);
        }
        const std::string path = "BENCH_" + id_ + ".json";
        const std::string body = root.dump(2) + "\n";
        std::ofstream out(path, std::ios::binary);
        if (!(out << body)) {
            std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("%td of %zu gates held; metrics written to %s\n", held, total,
                    path.c_str());
        return passed ? 0 : 1;
    }

private:
    static constexpr const char* kRule =
        "================================================================";

    std::string id_;
    sim::MetricsRecorder metrics_;
    sim::MetricsRecorder timing_;
    std::vector<scenario::SloGate> gates_;
    std::optional<std::uint64_t> seed_;
};

}  // namespace mvc::bench
