#pragma once
// Shared vocabulary of the perfbench binary: run options, the result every
// workload returns, the outside-in meters (allocation counter, process CPU,
// peak RSS, wall clock), small statistics helpers, and the reconciliation
// ledger that sets per-layer unit costs against a run's CPU time.
//
// Every workload runs as a sequence of *episodes*: build the world, run it
// over a fixed horizon (the measurement), read its outputs, tear it down.
// Episodes repeat until --seconds of wall time are used; how they are
// summarised, set-up time included, is in episodes.hpp.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    /// Worker threads for the sharded workloads: min(4, nproc).
    std::size_t threads{1};
};

struct Metric {
    std::string name;
    double value{0.0};
    std::string unit;
};

struct Result {
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<Metric> metrics;
    /// Lines printed before the JSON result (gate failures, reconciliation).
    std::vector<std::string> report;

    void set(const std::string& name, double value, const std::string& unit);
    /// Record a failed correctness gate.
    void fail(const std::string& why);
};

// ------------------------------------------------------------------ meters

/// Heap allocations made through the global operator new since start-up.
[[nodiscard]] std::uint64_t allocations();
/// Process CPU time, user + system, all threads (getrusage).
[[nodiscard]] double cpu_seconds();
/// Peak resident set size (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();
/// Monotonic wall clock, seconds.
[[nodiscard]] double wall_seconds();
[[nodiscard]] std::int64_t wall_ns();

/// CPU, wall and allocation deltas over one measured section.
struct Section {
    double wall{0.0};
    double cpu{0.0};
    std::uint64_t allocs{0};
};
class SectionTimer {
public:
    SectionTimer();
    [[nodiscard]] Section stop() const;

private:
    double wall_;
    double cpu_;
    std::uint64_t allocs_;
};

// -------------------------------------------------------------- statistics

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}
inline void append(std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
}

// ------------------------------------------------------------ reconciliation

/// Σ(layer unit cost × the run's layer count) against the run's CPU time.
class Ledger {
public:
    /// `unit_ns` host nanoseconds per operation, `count` operations in the
    /// traced run.
    void add(const std::string& layer, double unit_ns, double count);
    /// explained_share = Σ / cpu; appends the report lines (top three
    /// layers and the unexplained remainder) to `out`.
    double reconcile(const std::string& workload, double cpu_seconds,
                     std::vector<std::string>& out) const;

private:
    struct Entry {
        std::string layer;
        double unit_ns;
        double count;
    };
    std::vector<Entry> entries_;
};

/// Every per-layer metric the traced run prints, in print order, with its
/// unit. Metrics a workload does not exercise print as 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// --------------------------------------------------------------- workloads

Result run_campus_mingle(const Options& options);
Result run_blended_classroom(const Options& options);

}  // namespace perfbench
