#include "net/transport.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "net/wire_format.hpp"

namespace mvc::net {

// ---------------------------------------------------------------- PacketDemux

PacketDemux::PacketDemux(Backend& net, NodeId node)
    : net_(net), node_(node), unmatched_id_(net.metrics().counter_id("demux.unmatched")) {
    net_.set_handler(node_, [this](Packet&& p) {
        const auto it = handlers_.find(p.flow);
        if (it != handlers_.end()) {
            it->second(std::move(p));
        } else {
            net_.metrics().count(unmatched_id_);
        }
    });
}

void PacketDemux::on_flow(std::string flow, PacketHandler handler) {
    handlers_[std::move(flow)] = std::move(handler);
}

// ------------------------------------------------------------ ReliableChannel

ReliableChannel::ReliableChannel(Backend& net, PacketDemux& src_demux,
                                 PacketDemux& dst_demux, std::string flow,
                                 ReliableOptions options)
    : net_(net),
      src_(src_demux.node()),
      dst_(dst_demux.node()),
      flow_(std::move(flow)),
      flow_ref_(net.flow(flow_)),
      ack_ref_(net.flow(flow_ + ".ack")),
      retransmit_id_(net.metrics().counter_id("arq.retransmit", {{"flow", flow_}})),
      failed_id_(net.metrics().counter_id("arq.failed", {{"flow", flow_}})),
      peer_dead_id_(net.metrics().counter_id("arq.peer_dead", {{"flow", flow_}})),
      options_(options) {
    dst_demux.on_flow(flow_, [this](Packet&& p) { handle_data(std::move(p)); });
    src_demux.on_flow(flow_ + ".ack", [this](Packet&& p) { handle_ack(std::move(p)); });
}

void ReliableChannel::register_wire_codecs(WireCodecs& codecs, std::uint16_t data_tag) {
    codecs.register_codec<Wire>(
        data_tag,
        [](const Payload& p, std::vector<std::byte>& out) {
            const auto& w = p.get<Wire>();
            common::put_varint(out, w.seq);
            common::put_svarint(out, w.first_sent.nanos());
            common::put_varint(out, static_cast<std::uint32_t>(w.transmission));
            if (!encode_nested_payload(w.app_payload, out)) {
                // No codec for the application payload: ship the wrapper with
                // an empty nested payload rather than failing the whole
                // segment (the ACK machinery still needs the seq through).
                common::put_varint(out, kTagEmpty);
            }
        },
        [data_tag](std::span<const std::byte> body) -> std::optional<Payload> {
            common::Reader r{body};
            Wire w;
            w.seq = r.varint();
            w.first_sent = sim::Time::ns(r.svarint());
            w.transmission = static_cast<std::int32_t>(r.varint<std::uint32_t>());
            // A segment never carries a segment. Refusing one before decoding
            // it keeps a datagram from nesting segments thousands deep, each
            // a level of recursion.
            if (common::Reader{r}.varint<std::uint16_t>() == data_tag) return std::nullopt;
            std::optional<Payload> nested = decode_nested_payload(r);
            if (!nested || !r.ok() || !r.done()) return std::nullopt;
            w.app_payload = std::move(*nested);
            return Payload{std::move(w)};
        });
}

sim::Time ReliableChannel::current_rto() const {
    if (!srtt_.initialized()) return options_.rto_initial;
    const double rto_ms = srtt_.value() + 4.0 * rttvar_.value();
    return std::max(options_.rto_min, sim::Time::ms(rto_ms));
}

void ReliableChannel::send(std::size_t size_bytes, Payload payload) {
    const std::uint64_t seq = next_seq_++;
    Outstanding out;
    out.size_bytes = size_bytes;
    out.payload = std::move(payload);
    out.first_sent = net_.clock().now();
    outstanding_.emplace(seq, std::move(out));
    transmit(seq);
}

void ReliableChannel::transmit(std::uint64_t seq) {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;  // already acked
    Outstanding& out = it->second;
    if (options_.max_transmissions > 0 &&
        out.transmissions >= options_.max_transmissions) {
        give_up(seq);
        return;
    }
    ++out.transmissions;
    if (out.transmissions > 1) {
        ++retransmissions_;
        net_.metrics().count(retransmit_id_);
    }

    Wire w{seq, out.payload, out.first_sent, out.transmissions};
    net_.send(src_, dst_, out.size_bytes, flow_ref_, std::move(w));
    arm_timer(seq);
}

void ReliableChannel::give_up(std::uint64_t seq) {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    net_.clock().cancel(it->second.timer);
    Payload payload = std::move(it->second.payload);
    const sim::Time first_sent = it->second.first_sent;
    const int transmissions = it->second.transmissions;
    outstanding_.erase(it);
    ++failed_count_;
    net_.metrics().count(failed_id_);
    if (failed_cb_) failed_cb_(std::move(payload), first_sent, transmissions);
    ++consecutive_failures_;
    if (options_.dead_after_failures > 0 && !peer_dead_ &&
        consecutive_failures_ >= options_.dead_after_failures) {
        peer_dead_ = true;
        net_.metrics().count(peer_dead_id_);
        if (dead_peer_cb_) dead_peer_cb_(dst_, consecutive_failures_);
    }
}

void ReliableChannel::arm_timer(std::uint64_t seq) {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    // Exponential backoff on consecutive losses of the same segment, capped
    // so a long outage cannot push the next probe arbitrarily far out.
    const int backoff_exp = std::min(it->second.transmissions - 1, 6);
    const sim::Time rto =
        std::min(current_rto() * (std::int64_t{1} << backoff_exp), options_.rto_max);
    it->second.timer = net_.clock().schedule_after(rto, [this, seq] {
        if (outstanding_.contains(seq)) transmit(seq);
    });
}

void ReliableChannel::handle_data(Packet&& p) {
    auto w = p.payload.take<Wire>();
    // Ack every copy (the ack itself may be lost).
    net_.send(dst_, src_, options_.ack_bytes, ack_ref_, w.seq);

    if (w.seq < next_expected_ || reorder_.contains(w.seq)) return;  // duplicate
    reorder_.emplace(w.seq, std::move(w));
    deliver_ready();
}

void ReliableChannel::deliver_ready() {
    if (!options_.ordered) {
        // Deliver immediately; keep the seq in reorder_ as a tombstone (empty
        // payload) so duplicates are still recognised, and advance the
        // watermark over contiguous tombstones to bound memory.
        for (auto& [seq, w] : reorder_) {
            if (w.transmission < 0) continue;  // already-delivered tombstone
            ++delivered_count_;
            if (delivered_cb_)
                delivered_cb_(std::move(w.app_payload), w.first_sent, w.transmission);
            w.transmission = -1;
        }
        for (auto it = reorder_.begin();
             it != reorder_.end() && it->first == next_expected_ && it->second.transmission < 0;) {
            ++next_expected_;
            it = reorder_.erase(it);
        }
        return;
    }
    for (auto it = reorder_.begin();
         it != reorder_.end() && it->first == next_expected_;) {
        ++delivered_count_;
        ++next_expected_;
        if (delivered_cb_)
            delivered_cb_(std::move(it->second.app_payload), it->second.first_sent,
                          it->second.transmission);
        it = reorder_.erase(it);
    }
}

void ReliableChannel::handle_ack(Packet&& p) {
    const auto seq = p.payload.get<std::uint64_t>();
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;  // duplicate ack
    // Any ACK proves the peer is reachable again.
    consecutive_failures_ = 0;
    peer_dead_ = false;
    // Karn's rule: only first-transmission segments feed the RTT estimator.
    if (it->second.transmissions == 1) {
        observe_rtt((net_.clock().now() - it->second.first_sent).to_ms());
    }
    net_.clock().cancel(it->second.timer);
    outstanding_.erase(it);
}

void ReliableChannel::observe_rtt(double sample_ms) {
    // RFC 6298: the first sample seeds SRTT and RTTVAR = sample / 2; later
    // ones update RTTVAR from the old SRTT before SRTT moves.
    rttvar_.add(srtt_.initialized() ? std::abs(srtt_.value() - sample_ms) : sample_ms / 2.0);
    srtt_.add(sample_ms);
}

}  // namespace mvc::net
