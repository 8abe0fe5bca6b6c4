#pragma once
// Shared helpers for the experiment harnesses: fixed-width table printing,
// latency-series row formatting, and the Session wrapper that collects every
// reported figure into a MetricsRecorder and exports it as BENCH_<exp>.json
// on exit — so each bench emits both the human table EXPERIMENTS.md records
// and a machine-readable artifact with identical numbers. A Session is named
// by its id in tools/experiment_registry.hpp, the table behind
// `metaclass_scenario experiments`, which supplies its title and claim.

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "math/stats.hpp"
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

inline void header(const char* experiment, const char* claim) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", experiment);
    std::printf("claim: %s\n", claim);
    std::printf("================================================================\n");
}

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
/// accumulates every reported figure in a MetricsRecorder, and writes
/// BENCH_<id>.json (in the working directory) when destroyed or on an
/// explicit write(). The JSON is MetricsRecorder::to_json() plus an
/// "experiment" field, so two runs that record identical metrics serialize
/// to identical bytes.
class Session {
public:
    /// An id the registry does not know throws, so a bench can never ship
    /// under an undocumented name.
    explicit Session(std::string_view id) : id_(id) {
        for (const tools::Experiment& e : tools::kExperiments) {
            if (id_ != e.id) continue;
            header(e.title, e.claim);
            metrics_.count("experiment." + id_);  // never write an empty artifact
            return;
        }
        throw std::invalid_argument("bench::Session: unknown experiment id: " + id_);
    }

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    ~Session() {
        try {
            write();
        } catch (...) {  // NOLINT(bugprone-empty-catch): best-effort in dtor
        }
    }

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

    /// Print the standard latency table row and capture it under `label`.
    void latency_row(const char* label, const math::SampleSeries& s) {
        bench::latency_row(label, s);
        record(label, s);
    }

    /// Write BENCH_<id>.json. Idempotent: later calls rewrite the file with
    /// the metrics recorded so far.
    void write() {
        common::Json root = metrics_.to_json();
        root["experiment"] = common::Json{id_};
        if (seed_) root["seed"] = common::Json{*seed_};
        root["build"] = common::Json{std::string{METACLASS_BUILD_FLAGS}};
        const std::string path = "BENCH_" + id_ + ".json";
        const std::string body = root.dump(2) + "\n";
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) throw std::runtime_error("Session: cannot write " + path);
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        if (!wrote_banner_) {
            wrote_banner_ = true;
            std::printf("\nmetrics written to %s\n", path.c_str());
        }
    }

private:
    std::string id_;
    sim::MetricsRecorder metrics_;
    std::optional<std::uint64_t> seed_;
    bool wrote_banner_{false};
};

}  // namespace mvc::bench
