#include "scenario/fuzz.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/bytes.hpp"
#include "core/wire_codecs.hpp"
#include "fault/heartbeat.hpp"
#include "net/wire_format.hpp"
#include "recovery/resync.hpp"
#include "replay/trace.hpp"
#include "scenario/runner.hpp"
#include "sim/rng.hpp"
#include "sync/wire.hpp"

namespace mvc::scenario {

namespace {

[[nodiscard]] sim::Time jitter(sim::Rng& rng, sim::Time t) {
    return sim::Time::ms(t.to_ms() * rng.uniform(0.8, 1.2));
}

constexpr std::size_t kCrcBytes = 4;

/// Recompute the trailing CRC over whatever precedes it.
std::vector<std::byte> reseal(std::vector<std::byte> frame) {
    if (frame.size() < kCrcBytes) return frame;
    frame.resize(frame.size() - kCrcBytes);
    common::put(frame, common::crc32(frame));
    return frame;
}

/// A payload of a type private to its module, built by its registered
/// decoder from a hand-written body.
net::Payload from_body(std::uint16_t tag, std::vector<std::byte> body) {
    const net::WireCodecs::Decode* decode = net::WireCodecs::instance().decoder(tag);
    std::optional<net::Payload> payload = (*decode)(body);
    return payload ? std::move(*payload) : net::Payload{};
}

}  // namespace

ScenarioSpec mutate_spec(const ScenarioSpec& base, std::uint64_t salt) {
    // The stream is keyed by (base seed, salt) only, so a failing salt
    // reproduces without the fuzz campaign's draw history.
    sim::Rng rng = sim::Rng{base.seed ^ (salt * 0x9e3779b97f4a7c15ULL)}.stream("fuzz");
    ScenarioSpec spec = base;
    spec.name = base.name + "-fuzz" + std::to_string(salt);
    spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));

    // Cohort resizes (small bounds keep mutants cheap to run).
    for (RemoteCohort& cohort : spec.classroom.remote) {
        if (rng.uniform() < 0.5)
            cohort.count = static_cast<std::size_t>(rng.uniform_int(0, 4));
        if (rng.uniform() < 0.3) cohort.join_at = jitter(rng, cohort.join_at);
    }
    for (ClientCohort& cohort : spec.relay.clients) {
        if (rng.uniform() < 0.5)
            cohort.count = static_cast<std::size_t>(rng.uniform_int(1, 6));
        if (rng.uniform() < 0.3) cohort.join_at = jitter(rng, cohort.join_at);
    }
    if (spec.world == WorldKind::Campus && rng.uniform() < 0.5)
        spec.campus.clients_per_region =
            static_cast<std::size_t>(rng.uniform_int(1, 8));

    // Fault-window skews: shift and stretch every timeline entry, nudge the
    // knob the entry actually uses. Mutants whose windows land outside the
    // run or collapse to zero are rejected by validate_spec — also a result.
    for (TimelineEntry& e : spec.timeline) {
        if (rng.uniform() < 0.7) e.at = jitter(rng, e.at);
        if (rng.uniform() < 0.7) e.duration = jitter(rng, e.duration);
        if (e.kind == TimelineKind::LossBurst && rng.uniform() < 0.5)
            e.loss = std::clamp(e.loss * rng.uniform(0.5, 1.5), 0.0, 1.0);
        if (e.kind == TimelineKind::LatencySpike && rng.uniform() < 0.5)
            e.extra_latency = jitter(rng, e.extra_latency);
        if (e.kind == TimelineKind::Random) {
            if (rng.uniform() < 0.5) e.from = jitter(rng, e.from);
            if (rng.uniform() < 0.5) e.until = jitter(rng, e.until);
        }
    }
    return spec;
}

std::vector<std::uint8_t> mutate_trace(std::vector<std::uint8_t> bytes,
                                       std::uint64_t salt) {
    sim::Rng rng = sim::Rng{salt * 0x9e3779b97f4a7c15ULL + 1}.stream("fuzz-trace");
    if (bytes.empty()) return bytes;
    switch (rng.uniform_int(0, 3)) {
        case 0: {  // bit flips
            const auto flips = static_cast<std::size_t>(rng.uniform_int(1, 8));
            for (std::size_t i = 0; i < flips; ++i) {
                const std::size_t at = rng.index(bytes.size());
                bytes[at] ^= static_cast<std::uint8_t>(1U << rng.index(8));
            }
            break;
        }
        case 1:  // truncate
            bytes.resize(rng.index(bytes.size()));
            break;
        case 2: {  // zero a span
            const std::size_t at = rng.index(bytes.size());
            const std::size_t len =
                std::min(bytes.size() - at,
                         static_cast<std::size_t>(rng.uniform_int(1, 64)));
            std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(at), len, 0);
            break;
        }
        case 3: {  // duplicate a span onto another offset (stale-chunk splice)
            const std::size_t src = rng.index(bytes.size());
            const std::size_t dst = rng.index(bytes.size());
            const std::size_t len =
                std::min({bytes.size() - src, bytes.size() - dst,
                          static_cast<std::size_t>(rng.uniform_int(1, 64))});
            std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(src), len,
                        bytes.begin() + static_cast<std::ptrdiff_t>(dst));
            break;
        }
        default: break;
    }
    return bytes;
}

FuzzReport fuzz_specs(const ScenarioSpec& base, const FuzzOptions& options) {
    FuzzReport report;
    report.iterations = options.iterations;
    for (std::size_t i = 0; i < options.iterations; ++i) {
        ScenarioSpec mutant = mutate_spec(base, options.seed + i);
        if (options.duration_cap > sim::Time::zero() &&
            mutant.duration > options.duration_cap)
            mutant.duration = options.duration_cap;
        try {
            validate_spec(mutant);
        } catch (const SpecError&) {
            ++report.rejected;  // the validator refusing a mutant is a pass
            continue;
        }
        try {
            // Round-trip through JSON first: serializing a valid mutant and
            // reparsing it must reproduce the spec exactly.
            const ScenarioSpec reparsed = scenario_from_json(spec_to_json(mutant));
            if (spec_to_json(reparsed) != spec_to_json(mutant)) {
                report.failures.push_back(
                    {options.seed + i, "spec round-trip diverged"});
                continue;
            }
            const ScenarioReport first = run_scenario(mutant);
            const ScenarioReport second = run_scenario(mutant);
            ++report.ran;
            if (first.hashes != second.hashes)
                report.failures.push_back(
                    {options.seed + i, "hash stream diverged between same-seed runs"});
            else if (first.metrics.dump(2) != second.metrics.dump(2))
                report.failures.push_back(
                    {options.seed + i, "metrics diverged between same-seed runs"});
        } catch (const SpecError& e) {
            // Build-time rejection (e.g. a timeline ref the smaller mutant
            // world no longer has) is acceptable; it must just be a SpecError.
            ++report.rejected;
            (void)e;
        } catch (const std::exception& e) {
            report.failures.push_back({options.seed + i, e.what()});
        }
    }
    return report;
}

FuzzReport fuzz_trace(const std::vector<std::uint8_t>& bytes,
                      const FuzzOptions& options) {
    FuzzReport report;
    report.iterations = options.iterations;
    for (std::size_t i = 0; i < options.iterations; ++i) {
        std::vector<std::uint8_t> mutant = mutate_trace(bytes, options.seed + i);
        try {
            const replay::TraceCheck check = replay::Trace::verify(mutant);
            try {
                replay::Trace trace = replay::Trace::parse(mutant);
                // Parsed clean: walking every record must not crash either.
                replay::Record record;
                auto cursor = trace.cursor();
                while (cursor.next(record)) {
                }
                ++report.ran;
            } catch (const replay::TraceError&) {
                if (check.ok) {
                    report.failures.push_back(
                        {options.seed + i,
                         "verify accepted bytes that parse rejects"});
                } else {
                    ++report.rejected;
                }
            }
        } catch (const std::exception& e) {
            report.failures.push_back({options.seed + i, e.what()});
        }
    }
    return report;
}

std::vector<std::vector<std::byte>> seed_frames() {
    core::register_wire_codecs();
    sync::AvatarWire wire;
    wire.participant = ParticipantId{9};
    wire.source_room = ClassroomId{3};
    wire.keyframe = true;
    wire.captured_at = sim::Time::ms(41);
    wire.bytes = {0xDE, 0xAD, 0xBE, 0xEF};
    wire.relay_to = {4, 5};
    wire.seq = 1009;
    sync::AvatarBatchWire batch;
    batch.updates = {wire, wire};
    batch.updates[1].participant = ParticipantId{300};
    batch.updates[1].captured_at = sim::Time::ms(40);
    batch.updates[1].relay_to.clear();
    recovery::ResyncSnapshot snap;
    snap.nonce = 5;
    snap.served_at = sim::Time::ms(7);
    snap.entries.push_back({ParticipantId{1}, ClassroomId{2}, sim::Time::ms(6), {9, 8, 7}});
    snap.entries.push_back({ParticipantId{3}, ClassroomId{2}, sim::Time::ms(5), {}});
    const auto body = [](std::initializer_list<std::uint8_t> b) {
        std::vector<std::byte> out;
        for (const std::uint8_t v : b) out.push_back(static_cast<std::byte>(v));
        return out;
    };
    const std::vector<net::Payload> payloads{
        net::Payload{},
        net::Payload{wire},
        net::Payload{batch},
        net::Payload{fault::HeartbeatWire{99}},
        from_body(core::kTagClockRequest, body({0x80, 0x89, 0x7a})),
        from_body(core::kTagClockReply, body({0x80, 0x89, 0x7a, 0xc0, 0x9a, 0x0c})),
        net::Payload{recovery::ResyncRequest{0x0102030405060708ULL, sim::Time::ms(3)}},
        net::Payload{snap},
        // ARQ segment (seq 3, 50 ms, transmission 2) around a heartbeat.
        from_body(core::kTagArqData, body({0x03, 0x80, 0xc2, 0xd7, 0x2f, 0x02, 0x03, 0x07})),
        net::Payload{std::uint64_t{123456}},
        net::Payload{std::string{"hello wire"}},
    };
    std::vector<std::vector<std::byte>> frames;
    for (const net::Payload& payload : payloads) {
        net::Packet p;
        p.id = 77;
        p.src = 1;
        p.dst = 2;
        p.size_bytes = 1234;
        p.sent_at = sim::Time::ms(250);
        p.flow = "golden";
        p.payload = payload;
        if (auto frame = net::encode_frame(p, net::Priority::Realtime))
            frames.push_back(std::move(*frame));
    }
    return frames;
}

std::vector<std::byte> mutate_frame(const std::vector<std::vector<std::byte>>& seeds,
                                    std::uint64_t salt) {
    sim::Rng rng = sim::Rng{salt * 0x9e3779b97f4a7c15ULL + 3}.stream("fuzz-frame");
    std::vector<std::byte> f = seeds[rng.index(seeds.size())];
    if (f.empty()) return f;
    const auto at = [&rng](std::size_t n) { return rng.index(std::max<std::size_t>(n, 1)); };
    switch (rng.uniform_int(0, 3)) {
        case 0: {  // bit flips
            const auto flips = static_cast<std::size_t>(rng.uniform_int(1, 4));
            for (std::size_t i = 0; i < flips; ++i)
                f[at(f.size())] ^= static_cast<std::byte>(1U << rng.index(8));
            break;
        }
        case 1:  // truncate
            f.resize(at(f.size()));
            break;
        case 2: {  // splice: a span of another frame replaces a span of this one
            const std::vector<std::byte>& other = seeds[rng.index(seeds.size())];
            const std::size_t from = at(other.size());
            const std::size_t len = std::min(other.size() - from,
                                             static_cast<std::size_t>(rng.uniform_int(1, 16)));
            const std::size_t to = at(f.size());
            const std::size_t cut =
                std::min(f.size() - to, static_cast<std::size_t>(rng.uniform_int(0, 16)));
            f.erase(f.begin() + static_cast<std::ptrdiff_t>(to),
                    f.begin() + static_cast<std::ptrdiff_t>(to + cut));
            f.insert(f.begin() + static_cast<std::ptrdiff_t>(to),
                     other.begin() + static_cast<std::ptrdiff_t>(from),
                     other.begin() + static_cast<std::ptrdiff_t>(from + len));
            break;
        }
        case 3: {  // varint bump past magic and version, before the CRC
            constexpr std::size_t kFirst = 5;
            if (f.size() <= kFirst + kCrcBytes) break;
            const std::size_t i = kFirst + at(f.size() - kFirst - kCrcBytes);
            const auto b = static_cast<std::uint8_t>(f[i]);
            switch (rng.uniform_int(0, 2)) {
                case 0: {  // a length, count or value off by a few
                    const std::int64_t by = rng.uniform_int(1, 3);
                    const std::int64_t d = rng.chance(0.5) ? by : -by;
                    f[i] = static_cast<std::byte>(static_cast<std::uint8_t>(b + d));
                    break;
                }
                case 1:  // a one-byte varint padded to a non-minimal two
                    if (b < 0x80) {
                        f[i] = static_cast<std::byte>(b | 0x80);
                        f.insert(f.begin() + static_cast<std::ptrdiff_t>(i + 1), std::byte{0});
                    }
                    break;
                default:  // a varint continued into the next field
                    f[i] = static_cast<std::byte>(b | 0x80);
                    break;
            }
            break;
        }
        default: break;
    }
    return f;
}

std::string check_frame(std::span<const std::byte> frame, bool& decoded) {
    decoded = false;
    try {
        net::FrameDefect defect = net::FrameDefect::None;
        const std::optional<net::DecodedFrame> d = net::decode_frame(frame, defect);
        if (!d) return defect == net::FrameDefect::None ? "rejected without a reason" : "";
        decoded = true;
        const auto again = net::encode_frame(d->packet, d->priority);
        if (!again) return "decoded frame does not re-encode";
        if (!std::ranges::equal(*again, frame)) return "decoded frame re-encodes to other bytes";
        return "";
    } catch (const std::exception& e) {
        return std::string{"threw: "} + e.what();
    }
}

FuzzReport fuzz_frames(const std::vector<std::vector<std::byte>>& seeds,
                       const FuzzOptions& options) {
    FuzzReport report;
    report.iterations = options.iterations;
    if (seeds.empty()) return report;
    for (std::size_t i = 0; i < options.iterations; ++i) {
        const std::vector<std::byte> mutant = mutate_frame(seeds, options.seed + i);
        for (const std::vector<std::byte>& frame : {mutant, reseal(mutant)}) {
            bool decoded = false;
            const std::string failure = check_frame(frame, decoded);
            if (!failure.empty()) report.failures.push_back({options.seed + i, failure});
            else if (decoded) ++report.ran;
            else ++report.rejected;
        }
    }
    return report;
}

}  // namespace mvc::scenario
