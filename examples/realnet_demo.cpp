// Two-process loopback demo of the real-transport backend: the same
// RelayServer and VrClient classes every simulation example drives, now in
// separate OS processes talking UDP.
//
//   terminal 1:  ./realnet_demo --role edge             # relay + instructor
//   terminal 2:  ./realnet_demo --role client           # remote student
//
// Both processes build the SAME node table in the SAME order — NodeIds are
// positional on the wire — declaring their own nodes with add_node (binds a
// socket at base_port + id - 1) and the other side's with add_peer (address
// book only):
//
//   id 1  relay       hosted by --role edge
//   id 2  instructor  hosted by --role edge
//   id 3  student     hosted by --role client
//
// The student publishes avatar updates to the relay, which fans them out to
// the instructor, and vice versa; after --seconds of wall time each side
// prints what crossed the wire. Start the edge first (the client sends
// straight away; anything arriving before the edge binds is just loss, which
// the avatar stream absorbs by design).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "cloud/vr_layout.hpp"
#include "core/wire_codecs.hpp"
#include "net/real_udp.hpp"

using namespace mvc;

namespace {

struct Args {
    std::string role;
    std::uint16_t base_port{47600};
    double seconds{5.0};
};

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--role" && has_next) {
            a.role = argv[++i];
        } else if (arg == "--port" && has_next) {
            a.base_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
        } else if (arg == "--seconds" && has_next) {
            a.seconds = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: realnet_demo --role edge|client "
                         "[--port N] [--seconds S]\n");
            std::exit(2);
        }
    }
    if (a.role != "edge" && a.role != "client") {
        std::fprintf(stderr, "realnet_demo: --role must be 'edge' or 'client'\n");
        std::exit(2);
    }
    return a;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    core::register_wire_codecs();

    net::RealUdpBackend::Options opt;
    opt.base_port = args.base_port;
    net::RealUdpBackend net{opt};
    const bool is_edge = args.role == "edge";
    const std::string host = "127.0.0.1";

    // The shared node table. Order matters; see the header comment.
    const auto declare = [&](const char* name, bool local,
                             std::uint16_t port) -> net::NodeId {
        if (local) return net.add_node(name, net::Region::HongKong);
        return net.add_peer(name, net::Region::HongKong, host, port);
    };
    const net::NodeId relay_node = declare("relay", is_edge, args.base_port);
    const net::NodeId instructor_node =
        declare("instructor", is_edge, args.base_port + 1);
    const net::NodeId student_node =
        declare("student", !is_edge, args.base_port + 2);

    const ParticipantId instructor_id{1};
    const ParticipantId student_id{2};
    cloud::VrLayout layout;
    const math::Pose instructor_seat = layout.seat_pose(0);
    const math::Pose student_seat = layout.seat_pose(1);

    std::printf("[%s] nodes relay=%u instructor=%u student=%u, ports %u..%u\n",
                args.role.c_str(), relay_node, instructor_node, student_node,
                args.base_port, static_cast<unsigned>(args.base_port + 2));

    if (is_edge) {
        cloud::RelayServer relay{net, relay_node, cloud::RelayConfig{}};
        relay.attach_client(instructor_node, instructor_id, instructor_seat.position);
        relay.attach_client(student_node, student_id, student_seat.position);

        cloud::VrClientConfig vc;
        vc.name = "instructor";
        vc.room = ClassroomId{1};
        cloud::VrClient instructor{net, instructor_node, instructor_id, vc};
        instructor.join(relay_node, instructor_seat);

        net.run_for(sim::Time::seconds(args.seconds));

        std::printf("[edge] relay in/out %llu/%llu; instructor sent %llu, "
                    "received %llu (student visible: %s)\n",
                    static_cast<unsigned long long>(relay.messages_in()),
                    static_cast<unsigned long long>(relay.messages_out()),
                    static_cast<unsigned long long>(instructor.updates_sent()),
                    static_cast<unsigned long long>(instructor.updates_received()),
                    instructor.visible_peers() > 0 ? "yes" : "NO");
        std::printf("[edge] datagrams sent %llu received %llu, decode errors %llu\n",
                    static_cast<unsigned long long>(net.datagrams_sent()),
                    static_cast<unsigned long long>(net.datagrams_received()),
                    static_cast<unsigned long long>(net.decode_errors()));
        return instructor.updates_received() > 0 ? 0 : 1;
    }

    cloud::VrClientConfig vc;
    vc.name = "student";
    vc.room = ClassroomId{1};
    cloud::VrClient student{net, student_node, student_id, vc};
    student.join(relay_node, student_seat);

    net.run_for(sim::Time::seconds(args.seconds));

    std::printf("[client] student sent %llu, received %llu "
                "(instructor visible: %s)\n",
                static_cast<unsigned long long>(student.updates_sent()),
                static_cast<unsigned long long>(student.updates_received()),
                student.visible_peers() > 0 ? "yes" : "NO");
    std::printf("[client] datagrams sent %llu received %llu, decode errors %llu\n",
                static_cast<unsigned long long>(net.datagrams_sent()),
                static_cast<unsigned long long>(net.datagrams_received()),
                static_cast<unsigned long long>(net.decode_errors()));
    return student.updates_received() > 0 ? 0 : 1;
}
