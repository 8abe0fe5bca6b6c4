// The QoE control loop (src/qoe): ABR hysteresis over the bitrate ladder,
// tiled/foveated budget allocation invariants, the QoE score function, and
// the closed server/client feedback loop over a throttled chaos link.

#include <gtest/gtest.h>

#include "fault/degradation.hpp"
#include "media/video.hpp"
#include "net/chaos.hpp"
#include "net/network.hpp"
#include "qoe/abr.hpp"
#include "qoe/budget.hpp"
#include "qoe/media_client.hpp"
#include "qoe/score.hpp"
#include "qoe/service.hpp"
#include "sim/simulator.hpp"

namespace mvc::qoe {
namespace {

// ------------------------------------------------------------------- ABR

// Default ladder bitrates: 0.3e6, 0.8e6, 2.5e6, 5.0e6 (lowest first).
TEST(AbrTest, StartsAtTopAndNeverSwitchesOnCleanLink) {
    AbrController abr{media::default_ladder()};
    EXPECT_EQ(abr.rung(), abr.top_rung());
    for (int s = 0; s < 30; ++s) {
        // Goodput on a clean link sits at the encode rate, well below the
        // raw link capacity — that must not read as congestion.
        EXPECT_FALSE(abr.update(0.0, 20.0, 5.2e6, sim::Time::seconds(s)));
    }
    EXPECT_EQ(abr.rung(), abr.top_rung());
    EXPECT_EQ(abr.switches(), 0u);
}

TEST(AbrTest, FastDownDropsStraightToBestFitAfterHold) {
    AbrController abr{media::default_ladder()};
    // Sustained loss with a 1.5 Mb/s capacity estimate. Usable budget is
    // 0.85 * 1.5e6 - 5e4 = 1.225e6 -> best fit is the 0.8e6 rung (index 1).
    EXPECT_FALSE(abr.update(0.2, 50.0, 1.5e6, sim::Time::ms(0)));
    EXPECT_FALSE(abr.update(0.2, 50.0, 1.5e6, sim::Time::ms(250)));
    EXPECT_EQ(abr.rung(), abr.top_rung());  // hold_down not yet elapsed
    EXPECT_TRUE(abr.update(0.2, 50.0, 1.5e6, sim::Time::ms(500)));
    EXPECT_EQ(abr.rung(), 1);  // one switch, two rungs down
    EXPECT_EQ(abr.switches(), 1u);
}

TEST(AbrTest, DownWithoutCapacityEstimateStepsOneRung) {
    AbrController abr{media::default_ladder()};
    EXPECT_FALSE(abr.update(0.2, 0.0, 0.0, sim::Time::ms(0)));
    EXPECT_TRUE(abr.update(0.2, 0.0, 0.0, sim::Time::ms(600)));
    EXPECT_EQ(abr.rung(), abr.top_rung() - 1);  // blind drop: one step only
}

TEST(AbrTest, SlowUpOneRungAfterClearHoldAndOnlyWhenNextFits) {
    AbrController abr{media::default_ladder()};
    abr.update(0.2, 50.0, 1.5e6, sim::Time::ms(0));
    abr.update(0.2, 50.0, 1.5e6, sim::Time::ms(500));
    ASSERT_EQ(abr.rung(), 1);

    // Clear signal but the next rung (2.5e6) does not fit 1.5e6 capacity:
    // no probe up, ever.
    for (int s = 1; s <= 10; ++s)
        EXPECT_FALSE(abr.update(0.0, 10.0, 1.5e6, sim::Time::seconds(s)));
    EXPECT_EQ(abr.rung(), 1);

    // Capacity recovers to 4 Mb/s (usable 3.35e6 >= 2.5e6): the up-switch
    // still waits out hold_up, then moves exactly one rung.
    EXPECT_FALSE(abr.update(0.0, 10.0, 4.0e6, sim::Time::seconds(11)));
    EXPECT_FALSE(abr.update(0.0, 10.0, 4.0e6, sim::Time::seconds(13)));
    EXPECT_TRUE(abr.update(0.0, 10.0, 4.0e6, sim::Time::seconds(14)));
    EXPECT_EQ(abr.rung(), 2);
    EXPECT_EQ(abr.switches(), 2u);
}

TEST(AbrTest, HysteresisDampsAnOscillatingSignal) {
    AbrController abr{media::default_ladder()};
    // Loss toggles every 2 s for a minute — the classic oscillation bait.
    // The loss here is synthetic (it ignores the rung), so the congested
    // phases legitimately walk the controller to the floor; the point is
    // the walk is short and then *parks*: no clear phase lasts the 3 s
    // hold_up, so sixty seconds of flapping input yields two switches, not
    // fifteen round trips.
    for (int tick = 0; tick < 240; ++tick) {
        const sim::Time now = sim::Time::ms(250 * tick);
        const bool congested_phase = (tick / 8) % 2 == 0;
        abr.update(congested_phase ? 0.2 : 0.0, 30.0, 1.5e6, now);
    }
    EXPECT_EQ(abr.rung(), 0);
    EXPECT_LE(abr.switches(), 3u);
    EXPECT_LE(abr.switches_per_minute(sim::Time::seconds(60)), 3.0);
}

TEST(AbrTest, DelayCriterionDisabledWhenDownRttZero) {
    AbrParams p;  // down_rtt_ms == 0: delay ignored
    AbrController abr{media::default_ladder(), p};
    for (int s = 0; s < 10; ++s)
        EXPECT_FALSE(abr.update(0.0, 5000.0, 5.2e6, sim::Time::seconds(s)));
    EXPECT_EQ(abr.rung(), abr.top_rung());

    AbrParams q;
    q.down_rtt_ms = 200.0;
    q.up_rtt_ms = 80.0;
    AbrController abr2{media::default_ladder(), q};
    abr2.update(0.0, 500.0, 5.2e6, sim::Time::ms(0));
    EXPECT_TRUE(abr2.update(0.0, 500.0, 5.2e6, sim::Time::ms(600)));
    EXPECT_LT(abr2.rung(), abr2.top_rung());
}

TEST(AbrTest, InvalidLadderThrows) {
    EXPECT_THROW(AbrController{std::vector<media::VideoProfile>{}},
                 std::invalid_argument);
    std::vector<media::VideoProfile> descending{media::profile_1080p(),
                                                media::profile_180p()};
    EXPECT_THROW(AbrController{descending}, std::invalid_argument);
}

TEST(AbrTest, LossBandWithoutGapThrows) {
    EXPECT_THROW((AbrController{media::default_ladder(), {.down_loss = 0.02, .up_loss = 0.08}}),
                 std::invalid_argument);
    EXPECT_THROW((AbrController{media::default_ladder(), {.down_loss = 0.05, .up_loss = 0.05}}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- budget

TEST(BudgetTest, NoEstimateAndAmpleCapacityAllocateFullRates) {
    const BudgetAllocator alloc;
    const LodAllocation blind = alloc.allocate(0.0, 5.0e6, 4);
    ASSERT_EQ(blind.foveal.size(), 4u);
    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_DOUBLE_EQ(blind.foveal[t], 1.0);
        EXPECT_DOUBLE_EQ(blind.peripheral[t], 1.0);
    }
    // 10 Mb/s link, 5 Mb/s video: residual dwarfs avatar_full_bps.
    const LodAllocation ample = alloc.allocate(10.0e6, 5.0e6, 4);
    EXPECT_DOUBLE_EQ(ample.pressure, 1.0);
    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_DOUBLE_EQ(ample.foveal[t], 1.0);
        EXPECT_DOUBLE_EQ(ample.peripheral[t], 1.0);
    }
}

TEST(BudgetTest, SqueezedLinkDegradesByAttentionAndDistance) {
    const BudgetAllocator alloc;
    // 1 Mb/s link, 0.8 Mb/s video: residual 50 kb/s against a 200 kb/s
    // full-rate budget -> pressure 0.25.
    const LodAllocation a = alloc.allocate(1.0e6, 0.8e6, 4);
    EXPECT_NEAR(a.pressure, 0.25, 1e-9);
    for (std::size_t t = 0; t < 4; ++t) {
        // Attention: gazed-at cells always at least as fresh as periphery.
        EXPECT_GE(a.foveal[t], a.peripheral[t]);
        // Bounds: floor <= scale <= 1, nothing silenced outright.
        EXPECT_GE(a.peripheral[t], alloc.params().floor_scale);
        EXPECT_LE(a.foveal[t], 1.0);
        if (t > 0) {
            // Distance: far tiers collapse before near ones.
            EXPECT_LE(a.peripheral[t], a.peripheral[t - 1]);
            EXPECT_LE(a.foveal[t], a.foveal[t - 1]);
        }
    }
    // Monotone in capacity: more link, fresher avatars.
    const LodAllocation b = alloc.allocate(1.2e6, 0.8e6, 4);
    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_GE(b.peripheral[t], a.peripheral[t]);
        EXPECT_GE(b.foveal[t], a.foveal[t]);
    }
}

TEST(BudgetTest, VideoOverrunPinsAvatarsToTheFloor) {
    const BudgetAllocator alloc;
    // Video spend exceeds the whole safe budget: residual clamps to zero
    // and every scale sits on the floor — but never below it.
    const LodAllocation a = alloc.allocate(1.0e6, 2.5e6, 3);
    EXPECT_DOUBLE_EQ(a.pressure, alloc.params().floor_scale);
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_GE(a.peripheral[t], alloc.params().floor_scale);
        EXPECT_GE(a.foveal[t], a.peripheral[t]);
    }
}

// ----------------------------------------------------------------- score

TEST(ScoreTest, PerfectSessionScores100AndComponentsCap) {
    QoeInputs in;
    in.session_seconds = 60.0;
    in.delivered_rung = 3;
    in.top_rung = 3;
    EXPECT_DOUBLE_EQ(qoe_score(in), 100.0);

    const ScoreParams p;
    // Stall at/above its cap costs exactly stall_weight, no more.
    QoeInputs stalled = in;
    stalled.stall_seconds = 60.0;  // way past cap (10% of session)
    EXPECT_DOUBLE_EQ(qoe_score(stalled), 100.0 - p.stall_weight);

    QoeInputs stale = in;
    stale.avatar_staleness_ms = 10 * p.staleness_cap_ms;
    EXPECT_DOUBLE_EQ(qoe_score(stale), 100.0 - p.staleness_weight);

    QoeInputs flapping = in;
    flapping.switches_per_minute = 100.0;
    EXPECT_DOUBLE_EQ(qoe_score(flapping), 100.0 - p.switch_weight);

    QoeInputs bottom = in;
    bottom.delivered_rung = 0;  // full ladder shortfall
    EXPECT_DOUBLE_EQ(qoe_score(bottom), 100.0 - p.tier_weight);

    // Every component pathological at once: clamped to zero, not negative.
    QoeInputs worst = stalled;
    worst.avatar_staleness_ms = 1e9;
    worst.switches_per_minute = 1e9;
    worst.delivered_rung = 0;
    EXPECT_EQ(qoe_score(worst), 0.0);
}

TEST(ScoreTest, PureFunctionIsDeterministic) {
    QoeInputs in;
    in.stall_seconds = 1.7;
    in.session_seconds = 42.0;
    in.avatar_staleness_ms = 333.0;
    in.switches_per_minute = 2.5;
    in.delivered_rung = 1;
    in.top_rung = 3;
    const double first = qoe_score(in);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(qoe_score(in), first);
    EXPECT_GT(first, 0.0);
    EXPECT_LT(first, 100.0);
}

// ------------------------------------------- closed loop (service+client)

class QoeLoopTest : public ::testing::Test {
protected:
    QoeLoopTest() : sim_(7), inner_(sim_), chaos_(inner_) {
        server_ = chaos_.add_node("server", net::Region::HongKong);
        client_ = chaos_.add_node("client", net::Region::HongKong);
        inner_.connect(server_, client_, net::LinkParams{.latency = sim::Time::ms(8)});
        server_demux_ = std::make_unique<net::PacketDemux>(chaos_, server_);
        client_demux_ = std::make_unique<net::PacketDemux>(chaos_, client_);
        service_ = std::make_unique<QoeService>(chaos_, *server_demux_);
    }

    MediaClientConfig client_config() {
        MediaClientConfig mc;
        mc.enabled = true;
        mc.feedback_interval = sim::Time::ms(250);
        return mc;
    }

    sim::Simulator sim_;
    net::Network inner_;
    net::ChaosBackend chaos_;
    net::NodeId server_{};
    net::NodeId client_{};
    std::unique_ptr<net::PacketDemux> server_demux_;
    std::unique_ptr<net::PacketDemux> client_demux_;
    std::unique_ptr<QoeService> service_;
    fault::PathHealth health_;
};

TEST_F(QoeLoopTest, CleanLinkStaysAtTopRungWithZeroStall) {
    service_->add_client(client_, net::Priority::Realtime);
    MediaClient media{chaos_, *client_demux_, ParticipantId{1}, health_,
                      client_config()};
    media.start(server_, [] { return math::Vec3{0.0, 0.0, -1.0}; });

    sim_.run_until(sim::Time::seconds(8));

    EXPECT_EQ(media.rung(), media.abr().top_rung());
    EXPECT_EQ(media.abr().switches(), 0u);
    EXPECT_DOUBLE_EQ(media.playback().freeze_seconds, 0.0);
    EXPECT_GT(media.feedback_sent(), 0u);
    EXPECT_GT(service_->feedback_received(), 0u);
    EXPECT_EQ(service_->client_rung(client_), media.abr().top_rung());
    EXPECT_GT(service_->frames_sent(), 0u);
    media.stop();
}

TEST_F(QoeLoopTest, ThrottledLinkConvergesToFitRungAndActuatesServer) {
    // 0.5 Mb/s throttle against a 5 Mb/s top rung: 10x oversubscription.
    net::ChaosProfile squeeze;
    squeeze.throttle_bps = 5.0e5;
    chaos_.set_profile(server_, client_, squeeze);

    service_->add_client(client_, net::Priority::Realtime);
    MediaClient media{chaos_, *client_demux_, ParticipantId{1}, health_,
                      client_config()};
    media.start(server_, [] { return math::Vec3{0.0, 0.0, -1.0}; });

    // The avatar stream shares the congested path; synthesize its loss
    // signal (every other wire sequence missing) into the shared estimator.
    std::uint32_t seq = 0;
    sim_.schedule_every(sim::Time::ms(50), [&] {
        seq += 2;
        health_.observe(99, seq, 40.0, sim_.now());
    });

    sim_.run_until(sim::Time::seconds(10));

    // Usable budget ~0.85 * 0.5e6 - 5e4 = 375 kb/s: only the 0.3e6 floor
    // rung fits, and the server's encoder must have followed the feedback.
    EXPECT_EQ(media.rung(), 0);
    EXPECT_EQ(service_->client_rung(client_), 0);
    EXPECT_GE(service_->rung_changes(), 1u);
    EXPECT_GT(media.capacity_bps(), 0.0);
    EXPECT_LT(media.capacity_bps(), 1.0e6);
    EXPECT_LE(media.abr().switches_per_minute(sim::Time::seconds(10)), 12.0);
    EXPECT_LT(media.last_score(), 100.0);
    media.stop();
}

}  // namespace
}  // namespace mvc::qoe
