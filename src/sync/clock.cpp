#include "sync/clock.hpp"

#include <algorithm>
#include <utility>

#include "common/bytes.hpp"
#include "net/wire_format.hpp"

namespace mvc::sync {

ClockSyncSession::ClockSyncSession(net::Backend& net, net::PacketDemux& client_demux,
                                   net::PacketDemux& server_demux, std::string flow,
                                   const DriftingClock& client_clock,
                                   const DriftingClock& server_clock,
                                   ClockSyncParams params)
    : net_(net),
      client_(client_demux.node()),
      server_(server_demux.node()),
      flow_(std::move(flow)),
      probe_tx_(net.open_channel({.src = client_,
                                  .dst = server_,
                                  .flow = flow_,
                                  .options = {.priority = net::Priority::Control}})),
      reply_tx_(net.open_channel({.src = server_,
                                  .dst = client_,
                                  .flow = flow_ + ".reply",
                                  .options = {.priority = net::Priority::Control}})),
      client_clock_(client_clock),
      server_clock_(server_clock),
      params_(params) {
    server_demux.on_flow(flow_, [this](net::Packet&& p) { handle_request(std::move(p)); });
    client_demux.on_flow(flow_ + ".reply",
                         [this](net::Packet&& p) { handle_reply(std::move(p)); });
}

void ClockSyncSession::register_wire_codecs(net::WireCodecs& codecs,
                                            std::uint16_t request_tag,
                                            std::uint16_t reply_tag) {
    codecs.register_codec<Request>(
        request_tag,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            common::put_svarint(out, p.get<Request>().t0_client.nanos());
        },
        [](std::span<const std::byte> body) -> std::optional<net::Payload> {
            common::Reader r{body};
            const Request req{sim::Time::ns(r.svarint())};
            if (!r.ok() || !r.done()) return std::nullopt;
            return net::Payload{req};
        });
    codecs.register_codec<Reply>(
        reply_tag,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            const Reply& reply = p.get<Reply>();
            common::put_svarint(out, reply.t0_client.nanos());
            common::put_svarint(out, reply.t_server.nanos());
        },
        [](std::span<const std::byte> body) -> std::optional<net::Payload> {
            common::Reader r{body};
            Reply reply;
            reply.t0_client = sim::Time::ns(r.svarint());
            reply.t_server = sim::Time::ns(r.svarint());
            if (!r.ok() || !r.done()) return std::nullopt;
            return net::Payload{reply};
        });
}

void ClockSyncSession::start() {
    if (running_) return;
    running_ = true;
    task_ = net_.clock().schedule_every(params_.probe_interval,
                                            sim::Time::zero() + sim::Time::us(100),
                                            [this] { send_probe(); });
}

void ClockSyncSession::stop() {
    if (!running_) return;
    running_ = false;
    net_.clock().cancel(task_);
}

void ClockSyncSession::send_probe() {
    const Request req{client_clock_.local_time(net_.clock().now())};
    probe_tx_.send(48, req);
}

void ClockSyncSession::handle_request(net::Packet&& p) {
    const auto req = p.payload.get<Request>();
    const Reply reply{req.t0_client, server_clock_.local_time(net_.clock().now())};
    reply_tx_.send(48, reply);
}

void ClockSyncSession::handle_reply(net::Packet&& p) {
    const auto reply = p.payload.get<Reply>();
    const sim::Time t3 = client_clock_.local_time(net_.clock().now());
    // Symmetric-delay assumption: offset = ((t1-t0) + (t2-t3))/2 with
    // t1 == t2 == the single server timestamp.
    const sim::Time offset =
        ((reply.t_server - reply.t0_client) + (reply.t_server - t3)) / 2;
    // offset here is server-minus-client; store client-minus-server.
    const sim::Time rtt = t3 - reply.t0_client;
    window_.push_back(Probe{sim::Time::zero() - offset, rtt});
    if (window_.size() > params_.window) window_.pop_front();
    ++probes_completed_;
}

sim::Time ClockSyncSession::estimated_offset() const {
    // Minimum-RTT probe gives the least queueing-skewed offset sample.
    sim::Time best_offset = sim::Time::zero();
    sim::Time best_rtt = sim::Time::max();
    for (const Probe& pr : window_) {
        if (pr.rtt < best_rtt) {
            best_rtt = pr.rtt;
            best_offset = pr.offset;
        }
    }
    return best_offset;
}

sim::Time ClockSyncSession::estimation_error() const {
    const sim::Time now = net_.clock().now();
    const sim::Time truth =
        client_clock_.true_offset(now) - server_clock_.true_offset(now);
    const sim::Time est = estimated_offset();
    return est > truth ? est - truth : truth - est;
}

sim::Time ClockSyncSession::to_server_time(sim::Time client_local) const {
    return client_local - estimated_offset();
}

}  // namespace mvc::sync
