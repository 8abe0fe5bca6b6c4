#include "scenario/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace mvc::scenario {

namespace {

/// Set the dotted `path` in `doc`, creating missing objects on the way.
void set_path(common::Json& doc, const std::string& path, const common::Json& value) {
    common::Json* at = &doc;
    for (std::size_t start = 0, dot = 0; dot != std::string::npos; start = dot + 1) {
        dot = path.find('.', start);
        if (!at->is_object())
            throw SpecError(path.substr(0, start - 1),
                            "not an object; cannot set '" + path + "'");
        at = &(*at)[path.substr(start, dot - start)];
        if (dot != std::string::npos && at->is_null()) *at = common::Json{common::JsonObject{}};
    }
    *at = value;
}

}  // namespace

VaryAxis parse_vary(std::string_view flag) {
    const auto eq = flag.find('=');
    if (eq == std::string_view::npos || eq == 0)
        throw std::invalid_argument("--vary wants <path>=v1,v2,...: '" +
                                    std::string{flag} + "'");
    VaryAxis axis{std::string{flag.substr(0, eq)}, {}};
    for (std::string_view rest = flag.substr(eq + 1);;) {
        const std::size_t comma = std::min(rest.find(','), rest.size());
        if (comma == 0) throw std::invalid_argument("--vary " + axis.path + ": empty value");
        const std::string_view text = rest.substr(0, comma);
        try {
            axis.values.push_back(common::Json::parse(text));
        } catch (const common::JsonParseError&) {  // not JSON: a plain string
            axis.values.emplace_back(std::string{text});
        }
        if (comma == rest.size()) return axis;
        rest.remove_prefix(comma + 1);
    }
}

std::vector<std::size_t> parse_threads(std::string_view list) {
    std::vector<std::size_t> out;
    for (std::size_t start = 0; start <= list.size();) {
        const std::size_t end = std::min(list.find(',', start), list.size());
        std::size_t n = 0;
        const auto [ptr, ec] = std::from_chars(list.data() + start, list.data() + end, n);
        if (end == start || ec != std::errc{} || ptr != list.data() + end || n == 0)
            throw std::invalid_argument("--threads wants counts >= 1: '" +
                                        std::string{list} + "'");
        out.push_back(n);
        start = end + 1;
    }
    return out;
}

bool same_run(const ScenarioReport& a, const ScenarioReport& b) {
    return !a.hashes.empty() && a.hashes == b.hashes &&
           a.metrics.dump(2) == b.metrics.dump(2);
}

double events_per_s(const ScenarioReport& r) {
    return r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds : 0.0;
}

bool Sweep::passed() const {
    return std::all_of(points.begin(), points.end(), [](const SweepPoint& p) {
        return p.identical && p.runs.front().passed;
    });
}

Sweep run_sweep(std::string_view text, const std::vector<VaryAxis>& axes,
                const std::vector<std::size_t>& threads) {
    if (threads.empty()) throw std::invalid_argument("sweep: no thread counts");
    (void)scenario_from_text(text);  // the base spec's own errors, with line and column
    const common::Json base = common::Json::parse(text);

    // Read every point before running any, so a bad override fails fast.
    std::vector<std::pair<common::JsonObject, ScenarioSpec>> specs;
    std::vector<std::size_t> at(axes.size(), 0);
    for (std::size_t a = 1; a != 0;) {
        common::JsonObject overrides;
        common::Json doc = base;
        for (std::size_t i = 0; i < axes.size(); ++i) {
            overrides[axes[i].path] = axes[i].values[at[i]];
            set_path(doc, axes[i].path, axes[i].values[at[i]]);
        }
        specs.emplace_back(std::move(overrides), scenario_from_json(doc));
        // Odometer step: the last axis turns fastest; a == 0 once all wrap.
        for (a = axes.size(); a > 0 && ++at[a - 1] == axes[a - 1].values.size();) at[--a] = 0;
    }

    Sweep sweep{specs.front().second.name, specs.front().second.seed, threads, {}};
    for (auto& [overrides, spec] : specs) {
        SweepPoint& point = sweep.points.emplace_back(SweepPoint{std::move(overrides), {}, true});
        for (const std::size_t t : threads) {
            point.runs.push_back(run_scenario(spec, t));
            const bool first = point.runs.size() == 1;
            point.identical &= first || same_run(point.runs.front(), point.runs.back());
        }
    }
    return sweep;
}

common::Json sweep_to_json(const Sweep& sweep, const std::string& build) {
    common::JsonArray points;
    common::JsonArray runs;
    for (std::size_t p = 0; p < sweep.points.size(); ++p) {
        const SweepPoint& point = sweep.points[p];
        points.emplace_back(common::JsonObject{{"overrides", common::Json{point.overrides}},
                                               {"identical", common::Json{point.identical}},
                                               {"report", report_to_json(point.runs.front())}});
        for (std::size_t i = 0; i < point.runs.size(); ++i) {
            const ScenarioReport& r = point.runs[i];
            const double first = events_per_s(point.runs.front());
            runs.emplace_back(common::JsonObject{
                {"point", common::Json{p}},
                {"threads", common::Json{sweep.threads[i]}},
                {"events", common::Json{r.events}},
                {"wall_s", common::Json{r.wall_seconds}},
                {"events_per_s", common::Json{events_per_s(r)}},
                {"speedup", common::Json{first > 0.0 ? events_per_s(r) / first : 0.0}}});
        }
    }
    return common::Json{common::JsonObject{
        {"experiment", common::Json{sweep.name}},
        {"seed", common::Json{sweep.seed}},
        {"build", common::Json{build}},
        {"passed", common::Json{sweep.passed()}},
        {"points", common::Json{std::move(points)}},
        {"timing", common::Json{common::JsonObject{{"runs", common::Json{std::move(runs)}}}}}}};
}

}  // namespace mvc::scenario
