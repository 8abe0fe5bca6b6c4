#include "net/real_udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/wire_format.hpp"

namespace mvc::net {

namespace {

/// Largest datagram we ever emit or accept. Loopback MTU is ~64 KiB; a
/// frame larger than this fails to encode rather than fragmenting badly.
constexpr std::size_t kMaxDatagram = 65000;

sockaddr_in make_sockaddr(std::uint32_t addr_be, std::uint16_t port) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = addr_be;
    sa.sin_port = htons(port);
    return sa;
}

}  // namespace

RealUdpBackend::RealUdpBackend() : RealUdpBackend(Options{}) {}

RealUdpBackend::RealUdpBackend(Options options)
    : options_(std::move(options)),
      wall_(options_.seed),
      no_route_(metrics_.counter_id("net.no_route")),
      send_error_(metrics_.counter_id("net.send_error")),
      unencodable_(metrics_.counter_id("net.wire_unencodable")),
      decode_error_(metrics_.counter_id("net.wire_decode_error")),
      dropped_no_handler_(metrics_.counter_id("net.dropped_no_handler")),
      test_drop_(metrics_.counter_id("net.test_drop")) {
    for (std::size_t i = 0; i < kFrameDefectCount; ++i)
        ingress_reject_ids_[i] = metrics_.counter_id(
            "net.ingress_rejected",
            {{"reason", frame_defect_name(static_cast<FrameDefect>(i))}});
}

RealUdpBackend::~RealUdpBackend() {
    for (NodeRec& rec : nodes_)
        if (rec.fd >= 0) ::close(rec.fd);
}

NodeId RealUdpBackend::add_entry(NodeRec rec) {
    nodes_.push_back(std::move(rec));
    // Ids are 1-based so that kInvalidNode (0) never aliases a real node
    // (same convention as the simulated Network).
    return static_cast<NodeId>(nodes_.size());
}

NodeId RealUdpBackend::add_node(std::string name, Region region) {
    NodeRec rec;
    rec.name = std::move(name);
    rec.region = region;

    in_addr addr{};
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr) != 1)
        throw std::invalid_argument("RealUdpBackend: bad bind address " +
                                    options_.bind_address);
    rec.addr_be = addr.s_addr;

    rec.fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (rec.fd < 0)
        throw std::runtime_error(std::string("RealUdpBackend: socket(): ") +
                                 std::strerror(errno));
    const int flags = ::fcntl(rec.fd, F_GETFL, 0);
    ::fcntl(rec.fd, F_SETFL, flags | O_NONBLOCK);

    const std::uint16_t want =
        options_.base_port == 0
            ? std::uint16_t{0}
            : static_cast<std::uint16_t>(options_.base_port + nodes_.size());
    sockaddr_in sa = make_sockaddr(rec.addr_be, want);
    if (::bind(rec.fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
        const int err = errno;
        ::close(rec.fd);
        throw std::runtime_error("RealUdpBackend: bind(" + rec.name +
                                 "): " + std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(rec.fd, reinterpret_cast<sockaddr*>(&bound), &len);
    rec.port = ntohs(bound.sin_port);
    return add_entry(std::move(rec));
}

NodeId RealUdpBackend::add_peer(std::string name, Region region,
                                const std::string& address, std::uint16_t port) {
    NodeRec rec;
    rec.name = std::move(name);
    rec.region = region;
    in_addr addr{};
    if (::inet_pton(AF_INET, address.c_str(), &addr) != 1)
        throw std::invalid_argument("RealUdpBackend: bad peer address " + address);
    rec.addr_be = addr.s_addr;
    rec.port = port;
    return add_entry(std::move(rec));
}

RealUdpBackend::NodeRec& RealUdpBackend::node_at(NodeId id) {
    if (id == kInvalidNode || id > nodes_.size())
        throw std::out_of_range("RealUdpBackend: unknown node id");
    return nodes_[id - 1];
}

const RealUdpBackend::NodeRec& RealUdpBackend::node_at(NodeId id) const {
    if (id == kInvalidNode || id > nodes_.size())
        throw std::out_of_range("RealUdpBackend: unknown node id");
    return nodes_[id - 1];
}

void RealUdpBackend::set_handler(NodeId node, PacketHandler handler) {
    node_at(node).handler = std::move(handler);
}

Region RealUdpBackend::region_of(NodeId node) const { return node_at(node).region; }

const std::string& RealUdpBackend::name_of(NodeId node) const {
    return node_at(node).name;
}

NodeContext& RealUdpBackend::context(NodeId node) { return node_at(node).context; }

const NodeContext& RealUdpBackend::context(NodeId node) const {
    return node_at(node).context;
}

void RealUdpBackend::observe_node(NodeId node, NodeObserver observer) {
    node_at(node);  // validate
    (void)observer;  // no fault injection on the real transport; never fires
}

std::uint16_t RealUdpBackend::port_of(NodeId node) const {
    const NodeRec& rec = node_at(node);
    if (rec.fd < 0)
        throw std::logic_error("RealUdpBackend: port_of() on a peer node");
    return rec.port;
}

bool RealUdpBackend::is_local(NodeId node) const { return node_at(node).fd >= 0; }

bool RealUdpBackend::do_send(NodeId src, NodeId dst, std::size_t size_bytes,
                             FlowRef flow, Payload payload, Priority priority) {
    const NodeRec& src_rec = node_at(src);
    const NodeRec& dst_rec = node_at(dst);
    if (src_rec.fd < 0) {
        // Sending "from" a peer stub means the node tables of the two
        // processes disagree; surface it as a routing failure.
        metrics_.count(no_route_);
        return false;
    }
    if (dst_rec.port == 0) {
        metrics_.count(no_route_);
        return false;
    }

    Packet p;
    p.id = next_packet_id_++;
    p.src = src;
    p.dst = dst;
    p.size_bytes = size_bytes;
    p.sent_at = wall_.now();
    p.flow = flow.name();
    p.payload = std::move(payload);

    const FlowMetrics& fm = flow.metric_ids();
    metrics_.count(fm.tx);

    const std::optional<std::vector<std::byte>> frame = encode_frame(p, priority);
    if (!frame || frame->size() > kMaxDatagram) {
        metrics_.count(unencodable_);
        return false;
    }
    const sockaddr_in to = make_sockaddr(dst_rec.addr_be, dst_rec.port);
    const ssize_t n = ::sendto(src_rec.fd, frame->data(), frame->size(), 0,
                               reinterpret_cast<const sockaddr*>(&to), sizeof(to));
    if (n != static_cast<ssize_t>(frame->size())) {
        metrics_.count(send_error_);
        return false;
    }
    ++datagrams_sent_;
    bytes_sent_ += frame->size();
    metrics_.count(fm.tx_bytes, frame->size());
    return true;
}

void RealUdpBackend::dispatch(Packet&& p, Priority priority) {
    if (ingress_drop_ && ingress_drop_(p)) {
        metrics_.count(test_drop_);
        return;
    }
    // The tap fires here, at ingress: on a real wire the receive order is
    // the ground truth a deterministic re-run must reproduce.
    if (tap_ != nullptr) tap_->on_send(p, priority);

    const FlowMetrics& fm = flows_.metrics_of(p.flow);
    metrics_.sample(fm.latency_ms, (wall_.now() - p.sent_at).to_ms());
    metrics_.count(fm.rx);

    if (p.dst == kInvalidNode || p.dst > nodes_.size()) {
        metrics_.count(decode_error_);
        return;
    }
    NodeRec& dst = nodes_[p.dst - 1];
    if (dst.handler) {
        dst.handler(std::move(p));
    } else {
        metrics_.count(dropped_no_handler_);
    }
}

void RealUdpBackend::drain_socket(NodeRec& rec) {
    std::array<std::byte, kMaxDatagram> buf;
    for (;;) {
        const ssize_t n = ::recv(rec.fd, buf.data(), buf.size(), 0);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            metrics_.count(send_error_);
            return;
        }
        ++datagrams_received_;
        FrameDefect defect = FrameDefect::None;
        std::optional<DecodedFrame> frame =
            decode_frame({buf.data(), static_cast<std::size_t>(n)}, defect);
        if (!frame) {
            ++decode_errors_;
            metrics_.count(decode_error_);
            const auto idx = static_cast<std::size_t>(defect);
            ++ingress_rejects_[idx];
            metrics_.count(ingress_reject_ids_[idx]);
            continue;
        }
        dispatch(std::move(frame->packet), frame->priority);
    }
}

std::size_t RealUdpBackend::poll_once(sim::Time timeout) {
    std::vector<pollfd> fds;
    fds.reserve(nodes_.size());
    for (const NodeRec& rec : nodes_)
        if (rec.fd >= 0) fds.push_back(pollfd{rec.fd, POLLIN, 0});

    // Wait no longer than the next timer deadline.
    sim::Time wait = timeout;
    if (const std::optional<sim::Time> deadline = wall_.next_deadline()) {
        const sim::Time until = *deadline - wall_.now();
        wait = std::clamp(until, sim::Time::zero(), timeout);
    }
    const int timeout_ms =
        static_cast<int>(std::max<std::int64_t>(0, wait.nanos() / 1'000'000));

    const std::uint64_t before = datagrams_received_;
    const int ready = fds.empty() ? 0 : ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready > 0) {
        std::size_t fd_idx = 0;
        for (NodeRec& rec : nodes_) {
            if (rec.fd < 0) continue;
            if ((fds[fd_idx].revents & POLLIN) != 0) drain_socket(rec);
            ++fd_idx;
        }
    }
    wall_.run_due();
    return static_cast<std::size_t>(datagrams_received_ - before);
}

void RealUdpBackend::run_for(sim::Time duration) {
    const sim::Time deadline = wall_.now() + duration;
    while (wall_.now() < deadline)
        poll_once(std::min(deadline - wall_.now(), sim::Time::ms(10)));
}

}  // namespace mvc::net
