#include "sim/metrics.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>


namespace mvc::sim {

std::string MetricsRecorder::keyed(std::string_view name,
                                   std::initializer_list<Label> labels) {
    std::string key{name};
    if (labels.size() == 0) return key;
    // Canonicalize label order by key so the flattened name is call-site
    // independent. Label counts are tiny (<= 4 in practice); an insertion
    // sort over a small pointer array avoids any allocation.
    const Label* order[8];
    const std::size_t n = std::min<std::size_t>(labels.size(), std::size(order));
    std::size_t used = 0;
    for (const Label& l : labels) {
        if (used == n) break;
        std::size_t at = used;
        while (at > 0 && l.key < order[at - 1]->key) {
            order[at] = order[at - 1];
            --at;
        }
        order[at] = &l;
        ++used;
    }
    key.push_back('{');
    for (std::size_t i = 0; i < used; ++i) {
        if (i > 0) key.push_back(',');
        key.append(order[i]->key);
        key.push_back('=');
        key.append(order[i]->value);
    }
    key.push_back('}');
    return key;
}

std::uint32_t MetricsRecorder::counter_slot(std::string_view name) {
    const auto it = counter_index_.find(name);
    if (it != counter_index_.end()) return it->second;
    const auto slot = static_cast<std::uint32_t>(counter_values_.size());
    counter_values_.push_back(0);
    counter_index_.emplace(std::string{name}, slot);
    return slot;
}

std::uint32_t MetricsRecorder::series_slot(std::string_view name) {
    const auto it = series_index_.find(name);
    if (it != series_index_.end()) return it->second;
    const auto slot = static_cast<std::uint32_t>(series_values_.size());
    series_values_.emplace_back();
    series_index_.emplace(std::string{name}, slot);
    return slot;
}

MetricId MetricsRecorder::counter_id(std::string_view name) {
    return MetricId{counter_slot(name)};
}

MetricId MetricsRecorder::counter_id(std::string_view name,
                                     std::initializer_list<Label> labels) {
    return MetricId{counter_slot(keyed(name, labels))};
}

MetricId MetricsRecorder::series_id(std::string_view name) {
    return MetricId{series_slot(name)};
}

MetricId MetricsRecorder::series_id(std::string_view name,
                                    std::initializer_list<Label> labels) {
    return MetricId{series_slot(keyed(name, labels))};
}

void MetricsRecorder::merge(const MetricsRecorder& other) {
    for (const auto& [name, slot] : other.counter_index_) {
        counter_values_[counter_slot(name)] += other.counter_values_[slot];
    }
    for (const auto& [name, slot] : other.series_index_) {
        math::SampleSeries& mine = series_values_[series_slot(name)];
        for (const double v : other.series_values_[slot].samples()) mine.add(v);
    }
}

void MetricsRecorder::count(std::string_view name, std::uint64_t delta) {
    counter_values_[counter_slot(name)] += delta;
}

void MetricsRecorder::count(std::string_view name, std::initializer_list<Label> labels,
                            std::uint64_t delta) {
    count(keyed(name, labels), delta);
}

void MetricsRecorder::sample(std::string_view name, double value) {
    series_values_[series_slot(name)].add(value);
}

void MetricsRecorder::sample(std::string_view name, std::initializer_list<Label> labels,
                             double value) {
    sample(keyed(name, labels), value);
}

std::uint64_t MetricsRecorder::counter(std::string_view name) const {
    const auto it = counter_index_.find(name);
    return it == counter_index_.end() ? 0 : counter_values_[it->second];
}

std::uint64_t MetricsRecorder::counter(std::string_view name,
                                       std::initializer_list<Label> labels) const {
    return counter(keyed(name, labels));
}

const math::SampleSeries& MetricsRecorder::series(std::string_view name) const {
    static const math::SampleSeries empty;
    const auto it = series_index_.find(name);
    return it == series_index_.end() ? empty : series_values_[it->second];
}

const math::SampleSeries& MetricsRecorder::series(
    std::string_view name, std::initializer_list<Label> labels) const {
    return series(keyed(name, labels));
}

bool MetricsRecorder::has_series(std::string_view name) const {
    return series_index_.contains(name);
}

std::map<std::string, std::uint64_t, std::less<>> MetricsRecorder::counters() const {
    std::map<std::string, std::uint64_t, std::less<>> out;
    for (const auto& [name, slot] : counter_index_) {
        out.emplace_hint(out.end(), name, counter_values_[slot]);
    }
    return out;
}

std::vector<std::pair<std::string_view, const math::SampleSeries*>>
MetricsRecorder::all_series() const {
    std::vector<std::pair<std::string_view, const math::SampleSeries*>> out;
    out.reserve(series_index_.size());
    for (const auto& [name, slot] : series_index_) {
        out.emplace_back(name, &series_values_[slot]);
    }
    return out;
}

void MetricsRecorder::reset() {
    counter_index_.clear();
    counter_values_.clear();
    series_index_.clear();
    series_values_.clear();
}

std::string MetricsRecorder::to_string() const {
    std::ostringstream os;
    for (const auto& [name, slot] : counter_index_) {
        os << name << ": " << counter_values_[slot] << '\n';
    }
    for (const auto& [name, slot] : series_index_) {
        const math::SampleSeries& s = series_values_[slot];
        os << name << ": n=" << s.count() << " mean=" << s.mean()
           << " p50=" << s.median() << " p95=" << s.p95() << " p99=" << s.p99()
           << '\n';
    }
    return os.str();
}

common::Json MetricsRecorder::to_json() const {
    common::JsonObject counters;
    for (const auto& [name, slot] : counter_index_) counters[name] = counter_values_[slot];
    common::JsonObject series;
    for (const auto& [name, slot] : series_index_) {
        const math::SampleSeries& s = series_values_[slot];
        common::JsonObject summary;
        summary["count"] = static_cast<std::uint64_t>(s.count());
        summary["mean"] = s.mean();
        summary["min"] = s.min();
        summary["max"] = s.max();
        summary["p50"] = s.median();
        summary["p95"] = s.p95();
        summary["p99"] = s.p99();
        series[name] = std::move(summary);
    }
    common::JsonObject root;
    root["counters"] = std::move(counters);
    root["series"] = std::move(series);
    return root;
}

}  // namespace mvc::sim
