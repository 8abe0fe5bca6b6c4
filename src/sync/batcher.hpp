#pragma once
// Per-destination coalescing of avatar updates. A fan-out sender (cloud
// origin, relay, edge) enqueues each outbound update with its destination;
// the batcher holds them for one batch interval and then ships one
// AvatarBatchWire packet per destination. On WAN and cross-shard paths this
// turns N per-tick packets into one, cutting per-packet header overhead and
// — in sharded runs — boundary messages, at the cost of up to one interval
// of added latency.
//
// Pending batches live in a flat vector sorted by NodeId. Entries are kept
// between flushes (an idle destination costs one empty slot), and the last
// destination enqueued to is remembered, so a run of enqueues for one
// destination pays one binary search, not one per update.
//
// Determinism: the flush event is scheduled through the owning shard's
// simulator and destinations are flushed in NodeId order, so batched runs
// are as reproducible as unbatched ones.

#include <cstdint>
#include <vector>

#include "net/channel.hpp"
#include "sync/wire.hpp"

namespace mvc::sync {

class WireBatcher {
public:
    /// Batches are sent from `src` on kAvatarBatchFlow every `interval`.
    WireBatcher(net::Backend& net, net::NodeId src, sim::Time interval,
                net::Priority priority = net::Priority::Realtime);

    WireBatcher(const WireBatcher&) = delete;
    WireBatcher& operator=(const WireBatcher&) = delete;

    /// Queue one update for `dst`; arms the flush timer if idle.
    void enqueue(net::NodeId dst, AvatarWire wire);
    /// Make room for `n` more updates to `dst` before enqueueing them, so
    /// the batch grows once instead of doubling. Never changes what is sent.
    void reserve(net::NodeId dst, std::size_t n);
    /// Ship all pending batches now (also runs on every timer expiry).
    void flush();

    [[nodiscard]] sim::Time interval() const { return interval_; }
    [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }
    [[nodiscard]] std::uint64_t updates_batched() const { return updates_batched_; }
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

private:
    struct Pending {
        net::NodeId dst;
        AvatarBatchWire batch;
    };

    net::Backend& net_;
    net::Channel tx_;
    sim::Time interval_;
    std::vector<Pending> pending_;  // sorted by dst
    std::size_t last_{0};           // index of the last destination looked up
    bool armed_{false};
    std::uint64_t batches_sent_{0};
    std::uint64_t updates_batched_{0};
    std::uint64_t bytes_sent_{0};

    [[nodiscard]] AvatarBatchWire& batch_for(net::NodeId dst);
};

}  // namespace mvc::sync
