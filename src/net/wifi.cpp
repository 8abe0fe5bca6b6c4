#include "net/wifi.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mvc::net {

WifiChannel::WifiChannel(sim::Simulator& sim, std::string name, WifiParams params)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      rng_(sim.rng_stream("wifi/" + name_)) {}

StationId WifiChannel::add_station() {
    stations_.push_back(Station{});
    return static_cast<StationId>(stations_.size() - 1);
}

std::size_t WifiChannel::contenders() const {
    std::size_t n = 0;
    for (const auto& s : stations_) {
        if (s.backlog_bytes > 0) ++n;
    }
    return std::clamp<std::size_t>(n, 1, params_.max_contenders);
}

double WifiChannel::utilization() const {
    const double total = sim_.now().to_seconds();
    if (total <= 0.0) return 0.0;
    return airtime_used_.to_seconds() / total;
}

bool WifiChannel::send(StationId station, Packet packet, PacketHandler deliver) {
    if (station >= stations_.size())
        throw std::out_of_range("WifiChannel::send: unknown station");
    Station& st = stations_[station];
    const std::size_t wire_bytes = packet.size_bytes + kHeaderBytes;
    if (st.backlog_bytes + wire_bytes > params_.queue_bytes) {
        ++dropped_queue_;
        return false;
    }
    st.backlog_bytes += wire_bytes;

    // Count attempts up front so airtime accounting matches the retry model:
    // each failed attempt still occupies the medium.
    int attempts = 1;
    bool success = true;
    while (rng_.chance(params_.per_try_loss)) {
        if (attempts > params_.max_retries) {
            success = false;
            break;
        }
        ++attempts;
        ++retries_;
    }

    const double payload_seconds =
        static_cast<double>(wire_bytes) * 8.0 / params_.rate_bps;
    sim::Time per_attempt = sim::Time::seconds(payload_seconds) + params_.frame_overhead;

    // CSMA/CA backoff: exponential with mean scaling in the number of
    // contending stations; doubles per retry attempt (binary exponential).
    sim::Time backoff = sim::Time::zero();
    const double base_ms =
        params_.backoff_per_station.to_ms() * static_cast<double>(contenders());
    for (int a = 0; a < attempts; ++a) {
        backoff += sim::Time::ms(rng_.exponential(base_ms * static_cast<double>(1 << a)));
    }

    const sim::Time occupancy = per_attempt * attempts + backoff;
    const sim::Time start = std::max(sim_.now(), busy_until_);
    const sim::Time done = start + occupancy;
    busy_until_ = done;
    airtime_used_ += occupancy;

    sim_.schedule_at(done, [this, station, wire_bytes, success,
                            packet = std::move(packet),
                            deliver = std::move(deliver)]() mutable {
        stations_[station].backlog_bytes -= std::min(
            stations_[station].backlog_bytes, wire_bytes);
        if (success) {
            ++delivered_;
            deliver(std::move(packet));
        } else {
            ++lost_;
        }
    });
    return true;
}

}  // namespace mvc::net
