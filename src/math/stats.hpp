#pragma once
// Small statistics toolkit used by the telemetry layer and every benchmark:
// streaming summaries, exact percentiles over retained samples, and
// exponentially weighted moving averages.

#include <cstddef>
#include <span>
#include <vector>

namespace mvc::math {

/// Streaming count/mean/variance/min/max without retaining samples
/// (Welford's online algorithm).
class RunningStats {
public:
    void add(double x);
    void merge(const RunningStats& other);
    void reset();

    [[nodiscard]] std::size_t count() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] double mean() const { return mean_; }
    /// Population variance; 0 for fewer than 2 samples.
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const { return min_; }
    [[nodiscard]] double max() const { return max_; }
    [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

private:
    std::size_t count_{0};
    double mean_{0.0};
    double m2_{0.0};
    double min_{0.0};
    double max_{0.0};
};

/// Retains every sample; supports exact quantiles. Used for latency series
/// where p99 fidelity matters more than memory.
class SampleSeries {
public:
    void add(double x) { samples_.push_back(x); }
    void reserve(std::size_t n) { samples_.reserve(n); }
    void clear() { samples_.clear(); }

    [[nodiscard]] std::size_t count() const { return samples_.size(); }
    [[nodiscard]] bool empty() const { return samples_.empty(); }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    /// Exact quantile by linear interpolation between order statistics.
    /// q in [0,1]; returns 0 for an empty series.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double median() const { return quantile(0.5); }
    [[nodiscard]] double p95() const { return quantile(0.95); }
    [[nodiscard]] double p99() const { return quantile(0.99); }

    [[nodiscard]] std::span<const double> samples() const { return samples_; }

private:
    std::vector<double> samples_;
    mutable std::vector<double> sorted_;  // lazily rebuilt cache
    mutable bool sorted_valid_{false};
    void ensure_sorted() const;
};

/// Exponentially weighted moving average; alpha in (0,1], larger = snappier.
class Ewma {
public:
    explicit Ewma(double alpha);
    void add(double x);
    void reset();
    [[nodiscard]] bool initialized() const { return initialized_; }
    [[nodiscard]] double value() const { return value_; }

private:
    double alpha_;
    double value_{0.0};
    bool initialized_{false};
};

/// Percentile over an ad-hoc span without building a SampleSeries.
[[nodiscard]] double quantile_of(std::span<const double> xs, double q);

}  // namespace mvc::math
