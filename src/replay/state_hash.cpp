#include "replay/state_hash.hpp"

#include "common/hash.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mvc::replay {

std::uint64_t simulation_hash(const sim::Simulator& sim, const net::Network& net) {
    common::Hash64 h;
    h.i64(sim.now().nanos());
    h.u64(sim.seed());
    h.size(sim.executed_events());
    h.size(sim.pending_events());
    h.u64(net.total_bytes_sent());
    net.metrics().for_each_counter([&h](std::string_view name, std::uint64_t value) {
        h.str(name);
        h.u64(value);
    });
    net.metrics().for_each_series([&h](std::string_view name, const math::SampleSeries& series) {
        h.str(name);
        h.size(series.count());
        if (!series.empty()) h.f64(series.samples().back());
    });
    return h.digest();
}

}  // namespace mvc::replay
