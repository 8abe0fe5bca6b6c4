#include "net/chaos.hpp"

#include <algorithm>

#include "net/wire_format.hpp"

namespace mvc::net {

ChaosBackend::ChaosBackend(Backend& inner)
    : inner_(inner),
      drop_id_(inner.metrics().counter_id("chaos.drop")),
      dup_id_(inner.metrics().counter_id("chaos.dup")),
      reorder_id_(inner.metrics().counter_id("chaos.reorder")),
      corrupt_id_(inner.metrics().counter_id("chaos.corrupt_caught")),
      corrupt_uncodable_id_(inner.metrics().counter_id("chaos.corrupt")),
      blackhole_id_(inner.metrics().counter_id("chaos.blackhole")),
      throttle_id_(inner.metrics().counter_id("chaos.throttle_drop")),
      delayed_id_(inner.metrics().counter_id("chaos.delayed")) {}

// ----------------------------------------------------------- chaos control

ChaosBackend::PairState& ChaosBackend::state_for(NodeId src, NodeId dst) {
    const auto key = std::make_pair(src, dst);
    auto it = pairs_.find(key);
    if (it == pairs_.end()) {
        // One stream per directed pair: draws stay event-loop ordered no
        // matter how many other pairs (or models) draw around them.
        const std::string name = "chaos/" + std::to_string(src) + "->" +
                                 std::to_string(dst);
        it = pairs_.emplace(key, PairState{inner_.clock().rng_stream(name)}).first;
    }
    return it->second;
}

const ChaosBackend::PairState* ChaosBackend::find_state(NodeId src,
                                                        NodeId dst) const {
    const auto it = pairs_.find(std::make_pair(src, dst));
    return it == pairs_.end() ? nullptr : &it->second;
}

ChaosProfile ChaosBackend::set_profile(NodeId src, NodeId dst,
                                       const ChaosProfile& profile) {
    PairState& st = state_for(src, dst);
    ChaosProfile previous = st.profile;
    st.profile = profile;
    st.ge_bad = false;
    return previous;
}

void ChaosBackend::set_pair_profile(NodeId a, NodeId b,
                                    const ChaosProfile& profile) {
    set_profile(a, b, profile);
    set_profile(b, a, profile);
}

void ChaosBackend::clear_profile(NodeId src, NodeId dst) {
    set_profile(src, dst, ChaosProfile{});
}

ChaosProfile ChaosBackend::profile(NodeId src, NodeId dst) const {
    const PairState* st = find_state(src, dst);
    return st ? st->profile : ChaosProfile{};
}

void ChaosBackend::set_blackhole(NodeId src, NodeId dst, bool on) {
    state_for(src, dst).profile.blackhole = on;
}

// -------------------------------------------------------------- send path

bool ChaosBackend::do_send(NodeId src, NodeId dst, std::size_t size_bytes,
                           FlowRef flow, Payload payload, Priority priority) {
    const auto it = pairs_.find(std::make_pair(src, dst));
    if (it == pairs_.end() || !it->second.profile.active())
        return inner_.send(src, dst, size_bytes, flow, std::move(payload),
                           priority);
    PairState& st = it->second;
    const ChaosProfile& pr = st.profile;

    // A blackholed or dropped packet was "on the wire" and died there, so
    // the send itself succeeds — mirroring Link's lost-in-flight semantics.
    if (pr.blackhole) {
        ++blackholed_;
        inner_.metrics().count(blackhole_id_);
        return true;
    }

    if (pr.ge_p_bad > 0.0 || pr.ge_p_good > 0.0) {
        if (st.ge_bad) {
            if (st.rng.chance(pr.ge_p_good)) st.ge_bad = false;
        } else {
            if (st.rng.chance(pr.ge_p_bad)) st.ge_bad = true;
        }
        const double loss = st.ge_bad ? pr.ge_loss_bad : pr.ge_loss_good;
        if (loss > 0.0 && st.rng.chance(loss)) {
            ++dropped_;
            inner_.metrics().count(drop_id_);
            return true;
        }
    }
    if (pr.drop > 0.0 && st.rng.chance(pr.drop)) {
        ++dropped_;
        inner_.metrics().count(drop_id_);
        return true;
    }

    if (pr.corrupt > 0.0 && st.rng.chance(pr.corrupt) &&
        corrupt_in_flight(st, src, dst, size_bytes, flow, payload, priority))
        return true;

    sim::Time extra = pr.delay;
    if (pr.jitter > sim::Time::zero())
        extra += sim::Time::seconds(st.rng.uniform(0.0, pr.jitter.to_seconds()));

    if (pr.throttle_bps > 0.0) {
        const double wire_bits =
            static_cast<double>(size_bytes + kHeaderBytes) * 8.0;
        const sim::Time tx = sim::Time::seconds(wire_bits / pr.throttle_bps);
        const sim::Time now = inner_.clock().now();
        const sim::Time start = std::max(now, st.throttle_busy_until);
        if (start + tx - now > pr.throttle_backlog) {
            ++throttle_dropped_;
            inner_.metrics().count(throttle_id_);
            return true;
        }
        st.throttle_busy_until = start + tx;
        extra += st.throttle_busy_until - now;
    }

    if (pr.reorder > 0.0 && st.rng.chance(pr.reorder)) {
        ++reordered_;
        inner_.metrics().count(reorder_id_);
        extra += pr.reorder_hold;
    }

    if (pr.duplicate > 0.0 && st.rng.chance(pr.duplicate)) {
        ++duplicated_;
        inner_.metrics().count(dup_id_);
        if (extra > sim::Time::zero())
            forward_after(extra, src, dst, size_bytes, flow, payload, priority);
        else
            inner_.send(src, dst, size_bytes, flow, payload, priority);
    }

    if (extra > sim::Time::zero()) {
        ++delayed_;
        inner_.metrics().count(delayed_id_);
        forward_after(extra, src, dst, size_bytes, flow, std::move(payload),
                      priority);
        return true;
    }
    return inner_.send(src, dst, size_bytes, flow, std::move(payload), priority);
}

bool ChaosBackend::corrupt_in_flight(PairState& st, NodeId src, NodeId dst,
                                     std::size_t size_bytes, const FlowRef& flow,
                                     const Payload& payload, Priority priority) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size_bytes = size_bytes;
    p.sent_at = inner_.clock().now();
    p.flow = flow.name();
    p.payload = payload;
    auto frame = encode_frame(p, priority);
    if (!frame) {
        // No registered wire codec: nothing to flip, but on a real wire the
        // CRC would have rejected the mangled frame anyway — drop directly.
        ++corrupted_;
        inner_.metrics().count(corrupt_uncodable_id_);
        return true;
    }
    auto& bytes = *frame;
    const auto bit = static_cast<std::size_t>(
        st.rng.uniform_int(0, static_cast<std::int64_t>(bytes.size() * 8 - 1)));
    bytes[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
    if (auto decoded = decode_frame(bytes)) {
        // CRC-32 catches every single-bit flip; this branch would require a
        // multi-bit collision and cannot be reached by one flip. Deliver the
        // mangled packet if it ever were.
        Packet& mp = decoded->packet;
        inner_.send(mp.src, mp.dst, mp.size_bytes, mp.flow,
                    std::move(mp.payload), decoded->priority);
        return true;
    }
    ++corrupted_;
    inner_.metrics().count(corrupt_id_);
    return true;
}

void ChaosBackend::forward_after(sim::Time delay, NodeId src, NodeId dst,
                                 std::size_t size_bytes, FlowRef flow,
                                 Payload payload, Priority priority) {
    inner_.clock().schedule_after(
        delay, [this, src, dst, size_bytes, flow, payload = std::move(payload),
                priority]() mutable {
            inner_.send(src, dst, size_bytes, flow, std::move(payload), priority);
        });
}

// ------------------------------------------------------ Backend forwarding

NodeId ChaosBackend::add_node(std::string name, Region region) {
    return inner_.add_node(std::move(name), region);
}
void ChaosBackend::set_handler(NodeId node, PacketHandler handler) {
    inner_.set_handler(node, std::move(handler));
}
Region ChaosBackend::region_of(NodeId node) const { return inner_.region_of(node); }
const std::string& ChaosBackend::name_of(NodeId node) const {
    return inner_.name_of(node);
}
std::size_t ChaosBackend::node_count() const { return inner_.node_count(); }
NodeContext& ChaosBackend::context(NodeId node) { return inner_.context(node); }
const NodeContext& ChaosBackend::context(NodeId node) const {
    return std::as_const(inner_).context(node);
}
bool ChaosBackend::node_up(NodeId node) const { return inner_.node_up(node); }
void ChaosBackend::observe_node(NodeId node, NodeObserver observer) {
    inner_.observe_node(node, std::move(observer));
}
FlowRef ChaosBackend::flow(std::string_view name) { return inner_.flow(name); }
sim::Clock& ChaosBackend::clock() { return inner_.clock(); }
sim::MetricsRecorder& ChaosBackend::metrics() { return inner_.metrics(); }
const sim::MetricsRecorder& ChaosBackend::metrics() const {
    return std::as_const(inner_).metrics();
}
void ChaosBackend::set_tap(PacketTap* tap) { inner_.set_tap(tap); }
PacketTap* ChaosBackend::tap() const { return inner_.tap(); }

}  // namespace mvc::net
