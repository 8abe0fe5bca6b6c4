// Tests for the blended classroom's per-sample avatar path: the inline
// expression channels, the jitter buffer's ordering and pruning over a long
// stream, the tethered headset's 32 expression channels and their WiFi
// charge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <stdexcept>

#include "common/fixed_vector.hpp"
#include "core/classroom.hpp"
#include "net/packet.hpp"
#include "sensing/headset.hpp"
#include "sync/jitter.hpp"

namespace mvc {
namespace {

// --------------------------------------------------------- inline channels

using Channels = common::FixedVector<double, 4>;

TEST(FixedVectorTest, VectorSubset) {
    Channels c;
    EXPECT_TRUE(c.empty());
    c.reserve(4);
    c.push_back(0.5);
    c.push_back(0.25);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1], 0.25);
    c.resize(4);
    EXPECT_EQ(c[2], 0.0);
    EXPECT_EQ(c[3], 0.0);
    c.resize(1);
    c.resize(3, 0.75);
    EXPECT_EQ(c, (Channels{0.5, 0.75, 0.75}));
    c.assign(2, 0.125);
    double sum = 0.0;
    for (const double v : c) sum += v;
    EXPECT_EQ(sum, 0.25);
    c = {1.0};
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0], 1.0);
    const double more[] = {0.1, 0.2, 0.3};
    c.assign(std::begin(more), std::end(more));
    EXPECT_EQ(c, (Channels{0.1, 0.2, 0.3}));
}

TEST(FixedVectorTest, CopiesAreIndependentValues) {
    Channels a{0.1, 0.2};
    Channels b = a;
    b[0] = 0.9;
    b.push_back(0.3);
    EXPECT_EQ(a, (Channels{0.1, 0.2}));
    EXPECT_EQ(b, (Channels{0.9, 0.2, 0.3}));
    a = b;
    EXPECT_EQ(a, b);
    a.resize(0);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(b.size(), 3u);
    static_assert(sizeof(Channels) <= 4 * sizeof(double) + 8, "values are stored inline");
}

TEST(FixedVectorTest, OverflowThrowsAndLeavesContents) {
    Channels c{0.1, 0.2, 0.3, 0.4};
    EXPECT_THROW(c.push_back(0.5), std::length_error);
    EXPECT_THROW(c.resize(5), std::length_error);
    EXPECT_THROW(c.assign(5, 0.0), std::length_error);
    EXPECT_THROW(c.reserve(5), std::length_error);
    EXPECT_THROW((c = {0.0, 0.0, 0.0, 0.0, 0.0}), std::length_error);
    EXPECT_EQ(c, (Channels{0.1, 0.2, 0.3, 0.4}));
}

// ------------------------------------------------------------ jitter buffer

/// A position that is not linear in capture time, so interpolating between
/// the wrong neighbours gives a visibly wrong value.
double wiggle(std::int64_t capture_ms) { return static_cast<double>((capture_ms * 7) % 23); }

avatar::AvatarState captured(std::int64_t capture_ms) {
    avatar::AvatarState s;
    s.participant = ParticipantId{1};
    s.captured_at = sim::Time::ms(static_cast<double>(capture_ms));
    s.root.pose.position = {wiggle(capture_ms), 0.0, 0.0};
    return s;
}

TEST(JitterBufferRingTest, ReorderedInsertsAndPruneAcrossWrapAndGrowth) {
    // Constant 50 ms transit keeps the jitter estimate at zero, so the
    // playout point is exactly now - 50 ms - min_delay.
    constexpr std::int64_t kTransitMs = 50;
    sync::JitterBufferParams params;
    params.min_delay = sim::Time::ms(30);
    params.max_delay = sim::Time::ms(30);
    params.history = sim::Time::ms(200);
    sync::JitterBuffer jb{params};
    std::multiset<std::int64_t> model;  // capture times the buffer should hold

    // Captures every `step` ms; each pair arrives newer-first. Phase 1 fills
    // the buffer, phase 2 cycles it many times over at that depth, phase 3
    // halves the spacing so the buffer must grow while its contents have
    // wrapped, and phase 4 returns to the slow rate so it drains.
    std::int64_t capture = 0;
    int checked = 0;
    const auto run = [&](std::int64_t step, int pairs) {
        for (int i = 0; i < pairs; ++i) {
            for (const std::int64_t c : {capture + step, capture}) {
                const std::int64_t arrival = c + kTransitMs;
                jb.push(captured(c), sim::Time::ms(static_cast<double>(arrival)));
                model.insert(c);
                std::erase_if(model, [&](std::int64_t held) {
                    return arrival - held > params.history.to_ms();
                });
                ASSERT_EQ(jb.depth(), model.size()) << "after capture " << c;
            }
            capture += 2 * step;

            const std::int64_t now = capture - step + kTransitMs;
            const std::int64_t target = now - kTransitMs - 30;
            const auto after = model.upper_bound(target);
            if (after == model.begin() || after == model.end()) continue;
            const std::int64_t before = *std::prev(after);
            const double t = static_cast<double>(target - before) /
                             static_cast<double>(*after - before);
            const auto out = jb.sample(sim::Time::ms(static_cast<double>(now)));
            ASSERT_TRUE(out.has_value());
            EXPECT_NEAR(out->root.pose.position.x,
                        wiggle(before) + t * (wiggle(*after) - wiggle(before)), 1e-9)
                << "at " << now << " ms";
            EXPECT_EQ(out->captured_at, sim::Time::ms(static_cast<double>(target)));
            ++checked;
        }
    };
    run(10, 12);
    run(10, 200);
    run(5, 100);
    run(10, 100);
    EXPECT_GT(checked, 400);
    // The newest arrival keeps 150 ms of captures (200 ms of history less
    // the 50 ms transit) at one per 10 ms.
    EXPECT_EQ(jb.depth(), 16u);
    EXPECT_EQ(jb.underruns(), 0u);
}

// ----------------------------------------------------------------- headset

TEST(TetheredHeadsetTest, SamplesThirtyTwoExpressionChannels) {
    sim::Simulator sim;
    sensing::HeadsetParams params = sensing::tethered_mr_params();
    ASSERT_EQ(params.expression_channels, 32u);
    params.dropout = 0.0;
    std::size_t samples = 0;
    sensing::Headset hs{sim, "tethered", ParticipantId{1}, params,
                        [] {
                            sensing::GroundTruth gt;
                            gt.expression.assign(avatar::kExpressionChannels, 0.5);
                            return gt;
                        },
                        [&](sensing::SensorSample&& s) {
                            ++samples;
                            ASSERT_EQ(s.expression.size(), 32u);
                            for (std::size_t i = 0; i < s.expression.size(); ++i) {
                                // Channels past the truth's 16 are noise about 0.
                                const double truth = i < avatar::kExpressionChannels ? 0.5 : 0.0;
                                EXPECT_NEAR(s.expression[i], truth, 0.1);
                            }
                        }};
    hs.start();
    sim.run_until(sim::Time::seconds(1));
    EXPECT_EQ(samples, 90u);
}

TEST(TetheredHeadsetTest, RejectsMoreChannelsThanASampleHolds) {
    sim::Simulator sim;
    sensing::HeadsetParams params = sensing::tethered_mr_params();
    const auto make = [&] {
        return sensing::Headset{sim, "h", ParticipantId{1}, params,
                                [] { return sensing::GroundTruth{}; },
                                [](sensing::SensorSample&&) {}};
    };
    params.expression_channels = sensing::kMaxExpressionChannels;
    EXPECT_NO_THROW(make());
    params.expression_channels = sensing::kMaxExpressionChannels + 1;
    EXPECT_THROW(make(), std::invalid_argument);
}

/// Fused expression channels the CWB edge holds for one student after a
/// second, when each station's WiFi queue holds `queue_bytes` of payload.
std::size_t fused_channels_with_wifi_queue(std::size_t queue_bytes) {
    core::ClassroomConfig config;
    config.seed = 11;
    core::PhysicalRoomConfig room = core::cwb_room_config();
    room.wifi.queue_bytes = queue_bytes + net::kHeaderBytes;
    config.rooms = {room, core::gz_room_config()};
    core::MetaverseClassroom classroom{config};
    const ParticipantId student = classroom.add_physical_student(0);
    classroom.start();
    classroom.run_for(sim::Time::seconds(1));
    const auto track = classroom.edge_server(0).fusion().estimate(
        student, classroom.simulator().now());
    // Room cameras keep the track alive either way; only headset samples
    // carry expression channels.
    EXPECT_TRUE(track.has_value());
    return track.has_value() ? track->expression.size() : 0;
}

TEST(TetheredHeadsetTest, SampleChargesOneHundredTwentyEightBytes) {
    // 64 B of pose plus 2 B per channel: a 128 B queue passes the samples,
    // a 127 B queue drops every one of them.
    EXPECT_EQ(fused_channels_with_wifi_queue(128), 32u);
    EXPECT_EQ(fused_channels_with_wifi_queue(127), 0u);
}

}  // namespace
}  // namespace mvc
