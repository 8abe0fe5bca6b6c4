#include "sync/batcher.hpp"

#include <algorithm>
#include <utility>

namespace mvc::sync {

WireBatcher::WireBatcher(net::Backend& net, net::NodeId src, sim::Time interval,
                         net::Priority priority)
    : net_(net),
      tx_(net.open_channel({.src = src,
                            .flow = std::string{kAvatarBatchFlow},
                            .options = {.priority = priority}})),
      interval_(interval) {}

AvatarBatchWire& WireBatcher::batch_for(net::NodeId dst) {
    if (last_ < pending_.size() && pending_[last_].dst == dst) return pending_[last_].batch;
    const auto it = std::lower_bound(
        pending_.begin(), pending_.end(), dst,
        [](const Pending& p, net::NodeId n) { return p.dst < n; });
    last_ = static_cast<std::size_t>(it - pending_.begin());
    if (it == pending_.end() || it->dst != dst) pending_.insert(it, Pending{dst, {}});
    return pending_[last_].batch;
}

void WireBatcher::reserve(net::NodeId dst, std::size_t n) {
    // Grow geometrically past the first reservation, so repeated small
    // reservations on one batch stay amortised O(1) per update.
    std::vector<AvatarWire>& updates = batch_for(dst).updates;
    if (updates.capacity() - updates.size() < n)
        updates.reserve(std::max(updates.size() + n, 2 * updates.capacity()));
}

void WireBatcher::enqueue(net::NodeId dst, AvatarWire wire) {
    batch_for(dst).updates.push_back(std::move(wire));
    ++updates_batched_;
    if (armed_) return;
    armed_ = true;
    net_.clock().schedule_after(interval_, [this] {
        armed_ = false;
        flush();
    });
}

void WireBatcher::flush() {
    // The sent batch takes its update vector with it; the slot stays for
    // the destination's next enqueue. Destinations with nothing queued are
    // skipped.
    for (auto& [dst, batch] : pending_) {
        if (batch.updates.empty()) continue;
        const std::size_t size = batch.wire_bytes();
        bytes_sent_ += size;
        ++batches_sent_;
        tx_.send_to(dst, size, std::move(batch));
        batch = AvatarBatchWire{};
    }
}

}  // namespace mvc::sync
