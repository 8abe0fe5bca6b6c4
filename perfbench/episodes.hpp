#pragma once
// Episode loop shared by the workloads: repeat an episode until the run's
// wall budget is used, with a floor so every run has several samples and a
// ceiling so a fast host does not pile up memory. Episode 0 warms caches
// and the allocator; callers discard it.
//
// Timings across episodes are summarised by the best episode, not the
// median: on a shared host, interference only ever adds time, and
// identical episodes were seen to vary by half between neighbours, so
// the least-disturbed episode is the steadiest estimate of the program's
// own cost.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

inline constexpr std::size_t kMinEpisodes = 5;
inline constexpr std::size_t kMaxEpisodes = 64;

/// Calls `episode(i)` for i = 0, 1, ... until `seconds` of wall time have
/// passed since the call (at least kMinEpisodes, at most kMaxEpisodes).
/// Returns the number of episodes run.
template <class F>
std::size_t run_episodes(double seconds, F&& episode) {
    const double deadline = wall_seconds() + seconds;
    std::size_t i = 0;
    while (i < kMaxEpisodes && (i < kMinEpisodes || wall_seconds() < deadline)) episode(i++);
    return i;
}

/// Set-up time of one episode: the fastest of kSetupBuilds builds made
/// right after it (`build()` builds and discards a world, returning its
/// set-up seconds). On a shared host, build time has two modes that come
/// and go in phases of a few seconds, so setup_s is the mean of these
/// samples spread through the run, not one sample taken at its start.
inline constexpr int kSetupBuilds = 5;
template <class F>
double fastest_build(F&& build) {
    double best = build();
    for (int i = 1; i < kSetupBuilds; ++i) best = std::min(best, build());
    return best;
}

/// One measured episode, as the end-to-end summary sees it.
struct EpisodeTiming {
    Section run;
    /// Simulated seconds the run advanced.
    double clock_s{0.0};
    std::uint64_t updates{0};
    double setup_s{0.0};
};

/// Sets every end-to-end metric: set-up time as the mean over episodes,
/// sim_speed and CPU per update from the best episode, allocations per
/// update as the median.
inline void report_end_to_end(Result& r, const std::vector<EpisodeTiming>& eps,
                              double peak_rss_mb, double delivery_ratio,
                              double wire_bytes_per_update) {
    double setup = 0.0;
    double speed = 0.0;
    double cpu_us = 0.0;
    std::vector<double> allocs;
    for (const EpisodeTiming& e : eps) {
        const auto updates = static_cast<double>(std::max<std::uint64_t>(e.updates, 1));
        const double cpu = e.run.cpu * 1e6 / updates;
        setup += e.setup_s / static_cast<double>(eps.size());
        speed = std::max(speed, e.clock_s / e.run.wall);
        cpu_us = allocs.empty() ? cpu : std::min(cpu_us, cpu);
        allocs.push_back(static_cast<double>(e.run.allocs) / updates);
    }
    r.set("setup_s", setup, "s");
    r.set("sim_speed", speed, "s/s");
    r.set("cpu_per_update_us", cpu_us, "us");
    r.set("peak_rss_mb", peak_rss_mb, "MiB");
    r.set("allocs_per_update", median(allocs), "count");
    r.set("delivery_ratio", delivery_ratio, "ratio");
    r.set("wire_bytes_per_update", wire_bytes_per_update, "B");
}

}  // namespace perfbench
