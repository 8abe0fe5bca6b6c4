// Tests for the discrete-event engine: ordering, cancellation, periodic
// chains, determinism of the RNG streams, and the metrics recorder.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "sim/hysteresis.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace mvc::sim {
namespace {

TEST(TimeTest, ConversionsRoundTrip) {
    EXPECT_EQ(Time::ms(1.5).nanos(), 1'500'000);
    EXPECT_DOUBLE_EQ(Time::seconds(2.0).to_ms(), 2000.0);
    EXPECT_DOUBLE_EQ(Time::us(500).to_ms(), 0.5);
    EXPECT_EQ(Time::zero().nanos(), 0);
}

TEST(TimeTest, Arithmetic) {
    const Time a = Time::ms(10);
    const Time b = Time::ms(3);
    EXPECT_EQ((a + b).to_ms(), 13.0);
    EXPECT_EQ((a - b).to_ms(), 7.0);
    EXPECT_EQ((a * 3).to_ms(), 30.0);
    EXPECT_EQ((a / 2).to_ms(), 5.0);
    EXPECT_LT(b, a);
    EXPECT_LE(a, a);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(Time::ms(30), [&] { order.push_back(3); });
    sim.schedule_at(Time::ms(10), [&] { order.push_back(1); });
    sim.schedule_at(Time::ms(20), [&] { order.push_back(2); });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesAreFifo) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(Time::ms(5), [&order, i] { order.push_back(i); });
    }
    sim.run_all();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
    Simulator sim;
    Time seen;
    sim.schedule_at(Time::ms(42), [&] { seen = sim.now(); });
    sim.run_all();
    EXPECT_EQ(seen, Time::ms(42));
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(Time::ms(10), [&] { ++fired; });
    sim.schedule_at(Time::ms(50), [&] { ++fired; });
    const std::size_t n = sim.run_until(Time::ms(20));
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), Time::ms(20));
    sim.run_until(Time::ms(100));
    EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtHorizonRuns) {
    Simulator sim;
    bool fired = false;
    sim.schedule_at(Time::ms(20), [&] { fired = true; });
    sim.run_until(Time::ms(20));
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
    Simulator sim;
    Time fired_at;
    sim.schedule_at(Time::ms(10), [&] {
        sim.schedule_after(Time::ms(5), [&] { fired_at = sim.now(); });
    });
    sim.run_all();
    EXPECT_EQ(fired_at, Time::ms(15));
}

TEST(SimulatorTest, PastSchedulingThrows) {
    Simulator sim;
    sim.schedule_at(Time::ms(10), [] {});
    sim.run_all();
    EXPECT_THROW(sim.schedule_at(Time::ms(5), [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_after(Time::ms(-1), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, CancelPreventsExecution) {
    Simulator sim;
    bool fired = false;
    const EventHandle h = sim.schedule_at(Time::ms(10), [&] { fired = true; });
    sim.cancel(h);
    sim.run_all();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelInvalidHandleIsNoop) {
    Simulator sim;
    sim.cancel(EventHandle{});
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
    Simulator sim;
    int count = 0;
    sim.schedule_every(Time::ms(10), [&] { ++count; });
    sim.run_until(Time::ms(100));
    EXPECT_EQ(count, 10);  // fires at 10,20,...,100
}

TEST(SimulatorTest, PeriodicWithPhase) {
    Simulator sim;
    std::vector<double> times;
    sim.schedule_every(Time::ms(10), Time::ms(3), [&] { times.push_back(sim.now().to_ms()); });
    sim.run_until(Time::ms(35));
    ASSERT_EQ(times.size(), 4u);
    EXPECT_DOUBLE_EQ(times[0], 3.0);
    EXPECT_DOUBLE_EQ(times[3], 33.0);
}

TEST(SimulatorTest, PeriodicCancelStopsChain) {
    Simulator sim;
    int count = 0;
    const EventHandle h = sim.schedule_every(Time::ms(10), [&] { ++count; });
    sim.schedule_at(Time::ms(35), [&] { sim.cancel(h); });
    sim.run_until(Time::seconds(1));
    EXPECT_EQ(count, 3);
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtHorizonBehindCancelledHead) {
    Simulator sim;
    bool late_ran = false;
    const EventHandle early = sim.schedule_at(Time::ms(5), [] {});
    sim.schedule_at(Time::ms(50), [&] { late_ran = true; });
    sim.cancel(early);
    // Dropping the cancelled head must not run the next live event when
    // that event lies beyond the horizon.
    EXPECT_EQ(sim.run_until(Time::ms(10)), 0u);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(sim.now(), Time::ms(10));
    EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, InvalidPeriodThrows) {
    Simulator sim;
    EXPECT_THROW(sim.schedule_every(Time::zero(), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
    Simulator sim;
    EXPECT_FALSE(sim.step());
    sim.schedule_at(Time::ms(1), [] {});
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) sim.schedule_after(Time::ms(1), recurse);
    };
    sim.schedule_at(Time::ms(1), recurse);
    sim.run_all();
    EXPECT_EQ(depth, 5);
}

// ----------------------------------------------------------------------- rng

TEST(RngTest, SameSeedSameSequence) {
    Rng a{123};
    Rng b{123};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.raw(), b.raw());
}

TEST(RngTest, NamedStreamsAreIndependentAndStable) {
    const Rng root{42};
    Rng s1 = root.stream("link/a");
    Rng s1_again = root.stream("link/a");
    Rng s2 = root.stream("link/b");
    EXPECT_EQ(s1.raw(), s1_again.raw());
    EXPECT_NE(s1.raw(), s2.raw());  // overwhelmingly likely
}

TEST(RngTest, DeriveSeedIsDeterministicAcrossCalls) {
    EXPECT_EQ(derive_seed(7, "x"), derive_seed(7, "x"));
    EXPECT_NE(derive_seed(7, "x"), derive_seed(8, "x"));
    EXPECT_NE(derive_seed(7, "x"), derive_seed(7, "y"));
}

TEST(RngTest, DeriveSeedPinned) {
    // Every named stream's seed, and so every seeded artifact, rests on these.
    EXPECT_EQ(derive_seed(42, ""), 0x8657cfad81fcd2a4ULL);
    EXPECT_EQ(derive_seed(42, "a"), 0x9e42902f378c38bcULL);
    EXPECT_EQ(derive_seed(42, "headset/pin"), 0xa4ed46c5dfaa5900ULL);
}

TEST(RngTest, UniformInRange) {
    Rng r{5};
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const double v = r.uniform(-3.0, 9.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 9.0);
    }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
    Rng r{6};
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniform_int(1, 6);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 6);
        saw_lo |= v == 1;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMatchesMoments) {
    Rng r{7};
    math::RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(r.normal(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(RngTest, NormalZeroStddevIsMean) {
    Rng r{8};
    EXPECT_DOUBLE_EQ(r.normal(4.0, 0.0), 4.0);
    EXPECT_DOUBLE_EQ(r.normal(4.0, -1.0), 4.0);
}

TEST(RngTest, ExponentialMeanMatches) {
    Rng r{9};
    math::RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(r.exponential(5.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.2);
    EXPECT_DOUBLE_EQ(Rng{1}.exponential(0.0), 0.0);
}

TEST(RngTest, ChanceEdgesAndFrequency) {
    Rng r{10};
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i) hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ParetoBoundedBelowByScale) {
    Rng r{11};
    for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, IndexWithinBounds) {
    Rng r{12};
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.index(7), 7u);
}

// The normal sampler's first layer starts at r; beyond it the tail branch runs.
constexpr double kZigguratTail = 3.6541528853610088;

TEST(RngTest, NormalMatchesFourMomentsOverAMillionDraws) {
    Rng r{13};
    constexpr int kDraws = 1'000'000;
    double m1 = 0.0;
    double m2 = 0.0;
    double m3 = 0.0;
    double m4 = 0.0;
    for (int i = 0; i < kDraws; ++i) {
        const double z = r.normal(0.0, 1.0);
        m1 += z;
        m2 += z * z;
        m3 += z * z * z;
        m4 += z * z * z * z;
    }
    m1 /= kDraws;
    m2 /= kDraws;
    m3 /= kDraws;
    m4 /= kDraws;
    const double var = m2 - m1 * m1;
    const double skew = (m3 - 3 * m1 * m2 + 2 * m1 * m1 * m1) / std::pow(var, 1.5);
    const double kurt =
        (m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1 * m1 * m1 * m1) / (var * var);
    // Five standard errors at n = 1e6: sqrt(1/n), sqrt(2/n), sqrt(6/n), sqrt(24/n).
    EXPECT_NEAR(m1, 0.0, 0.005);
    EXPECT_NEAR(var, 1.0, 0.0071);
    EXPECT_NEAR(skew, 0.0, 0.0123);
    EXPECT_NEAR(kurt, 3.0, 0.0245);
}

TEST(RngTest, NormalMatchesCdfAtQuantiles) {
    Rng r{14};
    constexpr int kDraws = 1'000'000;
    const std::array<double, 7> at{-2.5, -1.0, -0.3, 0.0, 0.7, 1.5, 3.0};
    std::array<int, 7> below{};
    for (int i = 0; i < kDraws; ++i) {
        const double z = r.normal(0.0, 1.0);
        for (std::size_t k = 0; k < at.size(); ++k) below[k] += z < at[k] ? 1 : 0;
    }
    for (std::size_t k = 0; k < at.size(); ++k) {
        const double p = 0.5 * std::erfc(-at[k] / std::sqrt(2.0));
        const double bound = 5.0 * std::sqrt(p * (1 - p) / kDraws);
        EXPECT_NEAR(static_cast<double>(below[k]) / kDraws, p, bound) << "at z = " << at[k];
    }
}

TEST(RngTest, NormalTailBeyondZigguratBaseHasGaussianFrequency) {
    Rng r{15};
    constexpr int kDraws = 2'000'000;
    int tail = 0;
    int far = 0;
    for (int i = 0; i < kDraws; ++i) {
        const double a = std::abs(r.normal(0.0, 1.0));
        tail += a > kZigguratTail ? 1 : 0;
        far += a > 4.5 ? 1 : 0;
    }
    const double p = std::erfc(kZigguratTail / std::sqrt(2.0));  // 2(1 - Phi(r)) ~ 2.58e-4
    const double expected = p * kDraws;
    EXPECT_NEAR(tail, expected, 5.0 * std::sqrt(expected * (1 - p)));
    EXPECT_GT(far, 0);  // the tail reaches past the ziggurat's widest layer
}

TEST(RngTest, NormalSignsAreSymmetric) {
    Rng r{16};
    constexpr int kDraws = 1'000'000;
    int negative = 0;
    int above_two = 0;
    int below_minus_two = 0;
    for (int i = 0; i < kDraws; ++i) {
        const double z = r.normal(0.0, 1.0);
        negative += z < 0.0 ? 1 : 0;
        above_two += z > 2.0 ? 1 : 0;
        below_minus_two += z < -2.0 ? 1 : 0;
    }
    EXPECT_NEAR(negative, kDraws / 2, 5.0 * std::sqrt(kDraws * 0.25));
    // Equal rates on both sides: the difference of two counts near 22750.
    EXPECT_NEAR(above_two - below_minus_two, 0, 5.0 * std::sqrt(above_two + below_minus_two));
}

TEST(RngTest, NormalScalesOneStandardDraw) {
    Rng a{17};
    Rng b{17};
    for (int i = 0; i < 1000; ++i) {
        EXPECT_DOUBLE_EQ(a.normal(10.0, 3.0), 10.0 + 3.0 * b.normal(0.0, 1.0));
    }
}

TEST(RngTest, CopiedStreamContinuesIdentically) {
    Rng a = Rng{18}.stream("headset/cwb-0");
    for (int i = 0; i < 5000; ++i) (void)a.normal(0.0, 1.0);
    Rng b = a;
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
        EXPECT_EQ(a.uniform(), b.uniform());
    }
    EXPECT_EQ(a.raw(), b.raw());
}

TEST(RngTest, NormalFirstDrawsArePinned) {
    // A change to the normal sampler changes every seeded run that draws
    // noise; this pin makes that show up here first.
    Rng r = Rng{2022}.stream("headset/pin");
    const std::array<double, 8> pinned{
        -0.14637696617743767, 1.0657992339550761,  -1.4612720924419744, -0.69509256483417603,
        -1.1434790990911503,  -1.5776088007206226, 1.7965922397496135,  0.47951766194584394,
    };
    for (const double want : pinned) EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), want);
}

TEST(SimulatorTest, RngStreamsTiedToSeed) {
    Simulator a{99};
    Simulator b{99};
    Simulator c{100};
    EXPECT_EQ(a.rng_stream("m").raw(), b.rng_stream("m").raw());
    EXPECT_NE(a.rng_stream("m").raw(), c.rng_stream("m").raw());
}

// ------------------------------------------------------------------- metrics

TEST(MetricsTest, CountersAccumulate) {
    MetricsRecorder m;
    m.count("a");
    m.count("a", 4);
    EXPECT_EQ(m.counter("a"), 5u);
    EXPECT_EQ(m.counter("missing"), 0u);
}

TEST(MetricsTest, SeriesCollectSamples) {
    MetricsRecorder m;
    m.sample("lat", 1.0);
    m.sample("lat", 3.0);
    EXPECT_EQ(m.series("lat").count(), 2u);
    EXPECT_DOUBLE_EQ(m.series("lat").mean(), 2.0);
    EXPECT_TRUE(m.has_series("lat"));
    EXPECT_FALSE(m.has_series("other"));
    EXPECT_TRUE(m.series("other").empty());
}

TEST(MetricsTest, ResetClearsEverything) {
    MetricsRecorder m;
    m.count("a");
    m.sample("s", 1.0);
    m.reset();
    EXPECT_EQ(m.counter("a"), 0u);
    EXPECT_FALSE(m.has_series("s"));
}

TEST(MetricsTest, ToStringContainsNames) {
    MetricsRecorder m;
    m.count("packets", 3);
    m.sample("latency", 10.0);
    const std::string s = m.to_string();
    EXPECT_NE(s.find("packets"), std::string::npos);
    EXPECT_NE(s.find("latency"), std::string::npos);
}

TEST(MetricsTest, LabeledMetricsFlattenToCanonicalKeys) {
    MetricsRecorder m;
    m.count("drops", {{"flow", "avatar"}, {"reason", "down"}}, 2);
    m.count("drops", {{"flow", "avatar"}, {"reason", "down"}});
    m.sample("latency_ms", {{"room", "cwb"}}, 12.5);

    EXPECT_EQ(MetricsRecorder::keyed("drops", {{"flow", "avatar"}, {"reason", "down"}}),
              "drops{flow=avatar,reason=down}");
    EXPECT_EQ(m.counter("drops", {{"flow", "avatar"}, {"reason", "down"}}), 3u);
    EXPECT_EQ(m.counter("drops{flow=avatar,reason=down}"), 3u);
    EXPECT_EQ(m.series("latency_ms", {{"room", "cwb"}}).count(), 1u);
    // Different label values are distinct metrics.
    EXPECT_EQ(m.counter("drops", {{"flow", "hb"}, {"reason", "down"}}), 0u);
}

TEST(MetricsTest, KeyedCanonicalizesLabelOrder) {
    // Call sites may list labels in any order; the flattened key always
    // sorts by label key, so differently-written sites share one metric.
    const std::string canonical =
        MetricsRecorder::keyed("drops", {{"flow", "avatar"}, {"reason", "down"}});
    EXPECT_EQ(MetricsRecorder::keyed("drops", {{"reason", "down"}, {"flow", "avatar"}}),
              canonical);
    MetricsRecorder m;
    m.count("drops", {{"reason", "down"}, {"flow", "avatar"}}, 2);
    m.count("drops", {{"flow", "avatar"}, {"reason", "down"}}, 3);
    EXPECT_EQ(m.counter(canonical), 5u);
}

TEST(MetricsTest, MergeAddsCountersAndAppendsSeries) {
    MetricsRecorder a;
    a.count("pkts", 2);
    a.count("only_a", 1);
    a.sample("lat_ms", 10.0);
    MetricsRecorder b;
    b.count("pkts", 5);
    b.count("only_b", 7);
    b.sample("lat_ms", 30.0);
    b.sample("rtt_ms", 3.0);

    a.merge(b);
    EXPECT_EQ(a.counter("pkts"), 7u);
    EXPECT_EQ(a.counter("only_a"), 1u);
    EXPECT_EQ(a.counter("only_b"), 7u);
    EXPECT_EQ(a.series("lat_ms").count(), 2u);
    EXPECT_DOUBLE_EQ(a.series("lat_ms").mean(), 20.0);
    EXPECT_EQ(a.series("rtt_ms").count(), 1u);
    EXPECT_EQ(b.counter("pkts"), 5u);  // source unchanged
}

TEST(MetricsTest, ToJsonIsDeterministicAndComplete) {
    const auto build = [] {
        MetricsRecorder m;
        m.count("b.count", 2);
        m.count("a.count", 1);
        m.sample("lat_ms", 10.0);
        m.sample("lat_ms", 20.0);
        m.sample("lat_ms", 30.0);
        return m.to_json().dump(2);
    };
    const std::string json = build();
    EXPECT_EQ(json, build());  // byte-identical for identical metrics
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"mean\": 20"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
}

TEST(MetricsTest, HandleAndStringPathsAreInterchangeable) {
    MetricsRecorder m;
    const MetricId pkts = m.counter_id("pkts");
    const MetricId lat = m.series_id("lat_ms");
    m.count(pkts, 2);
    m.count("pkts", 3);  // same slot via the string path
    m.sample(lat, 10.0);
    m.sample("lat_ms", 30.0);
    EXPECT_EQ(m.counter("pkts"), 5u);
    EXPECT_EQ(m.series("lat_ms").count(), 2u);
    EXPECT_DOUBLE_EQ(m.series("lat_ms").mean(), 20.0);
}

TEST(MetricsTest, LabeledHandleResolvesCanonicalKey) {
    MetricsRecorder m;
    const MetricId id = m.counter_id("bytes", {{"flow", "avatar"}, {"priority", "rt"}});
    m.count(id, 7);
    // Call-site label order must not matter: same canonical slot.
    EXPECT_EQ(m.counter("bytes", {{"priority", "rt"}, {"flow", "avatar"}}), 7u);
    EXPECT_EQ(m.counter("bytes{flow=avatar,priority=rt}"), 7u);
}

TEST(MetricsTest, HandleAndStringPathsExportIdenticalJson) {
    // Record the same traffic once through handles, once through the labeled
    // string API; the serialized export must be byte-identical.
    MetricsRecorder via_handles;
    {
        const MetricId tx = via_handles.counter_id("net.tx", {{"flow", "avatar"}});
        const MetricId lat = via_handles.series_id("lat_ms", {{"flow", "avatar"}});
        for (int i = 0; i < 10; ++i) {
            via_handles.count(tx);
            via_handles.sample(lat, static_cast<double>(i));
        }
    }
    MetricsRecorder via_strings;
    for (int i = 0; i < 10; ++i) {
        via_strings.count("net.tx", {{"flow", "avatar"}});
        via_strings.sample("lat_ms", {{"flow", "avatar"}}, static_cast<double>(i));
    }
    EXPECT_EQ(via_handles.to_json().dump(2), via_strings.to_json().dump(2));
}

TEST(MetricsTest, MergedShardExportsIdenticalAcrossRecordingPaths) {
    // Two shard recorders folded into a root must serialize identically
    // whether each shard recorded through handles or strings — the invariant
    // the sharded-engine determinism check relies on.
    const auto merged = [](bool use_handles) {
        MetricsRecorder shard0;
        MetricsRecorder shard1;
        const auto record = [use_handles](MetricsRecorder& r, std::uint64_t n) {
            if (use_handles) {
                const MetricId tx = r.counter_id("net.tx", {{"flow", "avatar"}});
                const MetricId lat = r.series_id("lat_ms");
                r.count(tx, n);
                r.sample(lat, static_cast<double>(n));
            } else {
                r.count("net.tx", {{"flow", "avatar"}}, n);
                r.sample("lat_ms", static_cast<double>(n));
            }
        };
        record(shard0, 3);
        record(shard1, 9);
        MetricsRecorder root;
        root.merge(shard0);
        root.merge(shard1);
        return root.to_json().dump(2);
    };
    const std::string h = merged(true);
    EXPECT_EQ(h, merged(false));
    EXPECT_NE(h.find("\"net.tx{flow=avatar}\": 12"), std::string::npos);
}

TEST(MetricsTest, StaleHandleAfterResetIsInertNoOp) {
    MetricsRecorder m;
    const MetricId id = m.counter_id("a");
    m.count(id, 5);
    m.reset();
    m.count(id, 5);       // stale: slot no longer exists; must not crash
    m.sample(MetricId{}, 1.0);  // default handle is inert
    EXPECT_EQ(m.counter("a"), 0u);
    EXPECT_FALSE(m.has_series("a"));
}

TEST(SimulatorTest, EventPoolRecyclesOversizedCaptures) {
    Simulator sim{1};
    // Captures bigger than EventFn's inline buffer overflow into the pool;
    // after the first few events the free list must serve every allocation.
    struct Big {
        std::array<std::uint64_t, 12> payload{};
    };
    int fired = 0;
    for (int round = 0; round < 50; ++round) {
        Big big;
        big.payload[0] = static_cast<std::uint64_t>(round);
        sim.schedule_at(Time::ms(round + 1), [big, &fired] {
            fired += big.payload[0] < 50u ? 1 : 0;
        });
        sim.run_until(Time::ms(round + 1));
    }
    EXPECT_EQ(fired, 50);
    ASSERT_GT(sim.event_pool().fresh_blocks(), 0u);   // pool path exercised
    EXPECT_LE(sim.event_pool().fresh_blocks(), 2u);   // warmup only
    EXPECT_GE(sim.event_pool().reused_blocks(), 48u); // steady state recycles
}

TEST(SimulatorTest, MoveOnlyCapturesSchedule) {
    Simulator sim{1};
    auto owned = std::make_unique<int>(41);
    int got = 0;
    sim.schedule_at(Time::ms(1), [owned = std::move(owned), &got] { got = *owned + 1; });
    sim.run_until(Time::ms(1));
    EXPECT_EQ(got, 42);
}

TEST(SimulatorTest, CancelledBacklogDrainsWhenOneShotPops) {
    Simulator sim{1};
    std::vector<EventHandle> handles;
    for (int i = 0; i < 100; ++i) {
        handles.push_back(sim.schedule_at(Time::ms(1 + i), [] {}));
    }
    for (const auto& h : handles) sim.cancel(h);
    EXPECT_EQ(sim.cancelled_backlog(), 100u);
    sim.run_until(Time::ms(500));
    EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

TEST(SimulatorTest, CancelledPeriodicChainLeavesNoTombstone) {
    Simulator sim{1};
    // A periodic chain's id never pops off the queue (each tick re-arms under
    // the same id), so cancelling one must not leave a permanent tombstone.
    for (int i = 0; i < 50; ++i) {
        const EventHandle h = sim.schedule_every(Time::ms(10), [] {});
        sim.run_until(sim.now() + Time::ms(35));
        sim.cancel(h);
    }
    sim.run_until(sim.now() + Time::seconds(1.0));
    EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

TEST(SimulatorTest, CancelAfterFireIsNotRecorded) {
    Simulator sim{1};
    const EventHandle h = sim.schedule_at(Time::ms(1), [] {});
    sim.run_until(Time::ms(10));
    // The event already executed; cancelling its stale handle must be a
    // no-op, not a permanently-retained tombstone.
    sim.cancel(h);
    sim.cancel(h);
    EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

TEST(SimulatorTest, CancelledPeriodicBeforeFirstTickNeverFires) {
    Simulator sim{1};
    int fired = 0;
    const EventHandle h = sim.schedule_every(Time::ms(10), [&] { ++fired; });
    sim.cancel(h);
    sim.run_until(Time::ms(100));
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

TEST(SimulatorTest, StaleHandleDoesNotCancelTheSlotsNextTimer) {
    Simulator sim{1};
    const EventHandle fired = sim.schedule_at(Time::ms(1), [] {});
    sim.run_until(Time::ms(1));
    bool ran = false;
    sim.schedule_at(Time::ms(2), [&] { ran = true; });  // reuses the freed slot
    sim.cancel(fired);
    sim.run_until(Time::ms(2));
    EXPECT_TRUE(ran);
}

TEST(SimulatorTest, PeriodicBodyCancellingItselfMayArmTimers) {
    Simulator sim{1};
    int ticks = 0;
    int follow_ups = 0;
    EventHandle chain{};
    chain = sim.schedule_every(Time::ms(10), [&] {
        ++ticks;
        sim.cancel(chain);
        sim.schedule_after(Time::ms(1), [&] { ++follow_ups; });
    });
    sim.run_until(Time::ms(100));
    EXPECT_EQ(ticks, 1);
    EXPECT_EQ(follow_ups, 1);
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, PeriodicChainsHoldOneEntryEach) {
    Simulator sim{1};
    std::vector<EventHandle> chains;
    for (int i = 0; i < 64; ++i)
        chains.push_back(sim.schedule_every(Time::us(100), Time::us(i + 1), [] {}));
    sim.run_until(Time::ms(100));
    EXPECT_EQ(sim.executed_events(), 64u * 1000u);
    EXPECT_EQ(sim.pending_events(), 64u);
    for (const EventHandle& h : chains) sim.cancel(h);
    EXPECT_EQ(sim.cancelled_backlog(), 64u);
    sim.run_until(Time::ms(101));
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_EQ(sim.executed_events(), 64u * 1000u);
}

TEST(RngStreamTest, CreationOrderDoesNotPerturbSiblingStreams) {
    // The rng_stream contract (sim/rng.hpp, point 1): a stream is a pure
    // function of (seed, name). Creating the same streams in another order,
    // or creating extra streams and drawing from them, must never change a
    // sibling stream's draw sequence. This is what lets replay tooling (and
    // any new model) add its own streams without perturbing a recorded run.
    const Simulator a{42};
    const Simulator b{42};

    Rng a_net = a.rng_stream("net");
    Rng a_motion = a.rng_stream("motion");

    Rng b_motion = b.rng_stream("motion");        // opposite creation order
    Rng extra = b.rng_stream("extra");            // extra sibling...
    (void)extra.uniform();                        // ...that actually draws
    (void)b.rng_stream("net").raw();              // a drained re-derivation
    Rng b_net = b.rng_stream("net");              // must still start fresh

    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(a_net.raw(), b_net.raw());
        EXPECT_EQ(a_motion.raw(), b_motion.raw());
    }
}

TEST(RngStreamTest, DerivingChildrenConsumesNoParentRandomness) {
    // Point 1's other half: Rng::stream() keys the child off the parent's
    // base seed, so derivation never advances the parent's engine.
    Rng parent{7};
    Rng untouched{7};
    (void)parent.stream("child-a");
    (void)parent.stream("child-b").uniform();
    for (int i = 0; i < 16; ++i) EXPECT_EQ(parent.raw(), untouched.raw());
}

using Step = Hysteresis::Step;

TEST(HysteresisTest, NothingFiresBeforeTheHold) {
    Hysteresis h{Time::ms(100), Time::ms(300)};
    EXPECT_EQ(h.update(true, false, Time::ms(0)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(99)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(100)), Step::enter);
    // The exit side has its own, longer hold.
    EXPECT_EQ(h.update(false, true, Time::ms(200)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(499)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(500)), Step::exit);
}

TEST(HysteresisTest, BandResetsBothClocks) {
    Hysteresis h{Time::ms(100), Time::ms(100)};
    EXPECT_EQ(h.update(true, false, Time::ms(0)), Step::none);
    EXPECT_EQ(h.update(false, false, Time::ms(50)), Step::none);  // band
    // The enter clock re-arms at 60, not 0: 150 is only 90 ms in.
    EXPECT_EQ(h.update(true, false, Time::ms(60)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(150)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(160)), Step::enter);
    // Same for the exit side; an enter observation also stops its clock.
    EXPECT_EQ(h.update(false, true, Time::ms(200)), Step::none);
    EXPECT_EQ(h.update(false, false, Time::ms(250)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(260)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(300)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(310)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(400)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(410)), Step::exit);
}

TEST(HysteresisTest, RepeatStepNeedsAFullHoldFromTheStepInstant) {
    Hysteresis h{Time::ms(100), Time::ms(100)};
    EXPECT_EQ(h.update(true, false, Time::ms(0)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(100)), Step::enter);
    // The clock restarted at 100, not at the next observation (130).
    EXPECT_EQ(h.update(true, false, Time::ms(130)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(199)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(200)), Step::enter);
    EXPECT_EQ(h.update(true, false, Time::ms(250)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(300)), Step::enter);
}

TEST(HysteresisTest, ClockArmsDuringDwellButNothingFiresInsideIt) {
    Hysteresis h{Time::ms(100), Time::ms(100), Time::seconds(1.0)};
    EXPECT_EQ(h.update(true, false, Time::ms(0)), Step::none);
    EXPECT_EQ(h.update(true, false, Time::ms(100)), Step::enter);
    // The exit clock arms at 200; its hold is over by 300, but the dwell
    // since the step at 100 runs until 1100.
    EXPECT_EQ(h.update(false, true, Time::ms(200)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(300)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(1099)), Step::none);
    EXPECT_EQ(h.update(false, true, Time::ms(1100)), Step::exit);
}

}  // namespace
}  // namespace mvc::sim
