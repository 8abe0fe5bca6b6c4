// Campus-scale hot path (E22): the SoA AvatarPool's handle/packing
// contract and wire round-trip, the flat InterestGrid's incremental
// rebuild and allocation-free query overloads, cell-delta aggregated
// egress semantics, and CampusWorld's thread-count determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/avatar_pool.hpp"
#include "core/campus.hpp"
#include "math/vec3.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "sync/aggregator.hpp"
#include "sync/batcher.hpp"
#include "sync/interest.hpp"
#include "sync/wire.hpp"

namespace mvc::core {
namespace {

// ------------------------------------------------------------ AvatarPool

TEST(AvatarPoolTest, HandlesStayStableAcrossSwapRemove) {
    AvatarPool pool;
    const AvatarHandle a = pool.add(EntityId{10}, {1, 0, 0});
    const AvatarHandle b = pool.add(EntityId{20}, {2, 0, 0});
    const AvatarHandle c = pool.add(EntityId{30}, {3, 0, 0});
    ASSERT_EQ(pool.size(), 3u);

    // Removing the middle row swaps the last row into its place; a and c
    // must still resolve, and c's data must follow it to the new row.
    EXPECT_TRUE(pool.remove(b));
    ASSERT_EQ(pool.size(), 2u);
    EXPECT_TRUE(pool.alive(a));
    EXPECT_FALSE(pool.alive(b));
    EXPECT_TRUE(pool.alive(c));
    const std::uint32_t ci = pool.index_of(c);
    ASSERT_NE(ci, AvatarPool::kNoIndex);
    EXPECT_EQ(pool.ids()[ci], EntityId{30});
    EXPECT_DOUBLE_EQ(pool.positions()[ci].x, 3.0);
    EXPECT_EQ(pool.handle_at(ci), c);
}

TEST(AvatarPoolTest, FreeListReuseBumpsGeneration) {
    AvatarPool pool;
    const AvatarHandle first = pool.add(EntityId{1}, {0, 0, 0});
    ASSERT_TRUE(pool.remove(first));
    EXPECT_EQ(pool.free_slots(), 1u);

    const AvatarHandle second = pool.add(EntityId{2}, {0, 0, 0});
    EXPECT_EQ(pool.free_slots(), 0u);
    // Same slot, new generation: the stale handle must not alias the new
    // occupant.
    EXPECT_EQ(second.slot, first.slot);
    EXPECT_NE(second.generation, first.generation);
    EXPECT_FALSE(pool.alive(first));
    EXPECT_EQ(pool.index_of(first), AvatarPool::kNoIndex);
    EXPECT_FALSE(pool.remove(first));
    EXPECT_TRUE(pool.alive(second));
}

TEST(AvatarPoolTest, AddSetsDirtyAndClearDirtyResets) {
    AvatarPool pool;
    pool.add(EntityId{1}, {0, 0, 0});
    pool.add(EntityId{2}, {1, 0, 0});
    EXPECT_EQ(pool.dirty()[0], 1u);
    EXPECT_EQ(pool.dirty()[1], 1u);
    pool.clear_dirty();
    EXPECT_EQ(pool.dirty()[0], 0u);
    EXPECT_EQ(pool.dirty()[1], 0u);
}

TEST(AvatarPoolTest, RecordRoundTripsThroughWireBytes) {
    AvatarPool pool;
    const AvatarHandle h = pool.add(EntityId{77}, {1.5, -2.25, 3.125},
                                    {0.5, 0.0, -0.75});
    const std::uint32_t i = pool.index_of(h);
    pool.seqs()[i] = 9001;
    pool.lods()[i] = 3;

    std::vector<std::uint8_t> bytes;
    pool.encode_record(i, bytes);
    ASSERT_EQ(bytes.size(), AvatarPool::kRecordBytes);

    const AvatarPool::Record r = AvatarPool::decode_record(bytes.data());
    EXPECT_EQ(r.id, EntityId{77});
    EXPECT_EQ(r.seq, 9001u);
    EXPECT_EQ(r.lod, 3u);
    // Values chosen exactly representable in f32, so the round trip is exact.
    EXPECT_DOUBLE_EQ(r.position.x, 1.5);
    EXPECT_DOUBLE_EQ(r.position.y, -2.25);
    EXPECT_DOUBLE_EQ(r.position.z, 3.125);
    EXPECT_DOUBLE_EQ(r.velocity.x, 0.5);
    EXPECT_DOUBLE_EQ(r.velocity.z, -0.75);
}

// ---------------------------------------------------------- InterestGrid

TEST(FlatGridTest, IncrementalRebuildMatchesFromScratch) {
    sync::InterestGrid incremental{4.0};
    // Seed a population, commit, then move a small fraction across cells —
    // the incremental (sort movers + merge) path.
    for (std::uint32_t i = 1; i <= 300; ++i) {
        incremental.update(EntityId{i},
                           {static_cast<double>(i % 17), 0.0,
                            static_cast<double>(i % 23)});
    }
    incremental.rebuild();
    for (std::uint32_t i = 1; i <= 300; i += 25) {
        incremental.update(EntityId{i},
                           {static_cast<double>(i % 13) + 40.0, 0.0,
                            static_cast<double>(i % 7) - 40.0});
    }
    incremental.rebuild();
    EXPECT_GT(incremental.incremental_rebuilds(), 0u);

    // A grid fed the same final positions from scratch must answer every
    // query identically.
    sync::InterestGrid scratch{4.0};
    for (std::uint32_t i = 1; i <= 300; ++i) {
        const math::Vec3* p = incremental.position_of(EntityId{i});
        ASSERT_NE(p, nullptr);
        scratch.update(EntityId{i}, *p);
    }
    std::vector<EntityId> got;
    std::vector<EntityId> expected;
    for (const math::Vec3 center :
         {math::Vec3{0, 0, 0}, math::Vec3{8, 0, 8}, math::Vec3{42, 0, -38}}) {
        for (const double radius : {3.0, 9.0, 25.0}) {
            incremental.query_radius_into(center, radius, got);
            scratch.query_radius_into(center, radius, expected);
            EXPECT_EQ(got, expected);
        }
    }
}

TEST(FlatGridTest, QueryIntoOverloadsMatchAllocatingQueries) {
    sync::InterestGrid grid{3.0};
    for (std::uint32_t i = 1; i <= 120; ++i) {
        grid.update(EntityId{i}, {static_cast<double>(i % 11) * 2.0, 0.0,
                                  static_cast<double>(i % 9) * 2.0});
    }
    // A reused buffer answers exactly like a freshly allocated one.
    std::vector<EntityId> out;
    for (const double radius : {2.0, 7.0, 50.0}) {
        std::vector<EntityId> fresh_radius;
        std::vector<EntityId> fresh_nearest;
        grid.query_radius_into({5, 0, 5}, radius, out);
        grid.query_radius_into({5, 0, 5}, radius, fresh_radius);
        EXPECT_EQ(out, fresh_radius);
        grid.query_nearest_into({5, 0, 5}, radius, 10, out);
        grid.query_nearest_into({5, 0, 5}, radius, 10, fresh_nearest);
        EXPECT_EQ(out, fresh_nearest);
    }
    // The buffer is reused, not grown per call: results are cleared first.
    grid.query_radius_into({1000, 0, 1000}, 1.0, out);
    EXPECT_TRUE(out.empty());
}

TEST(FlatGridTest, RemoveAfterCommitForcesConsistentFullRebuild) {
    sync::InterestGrid grid{2.0};
    for (std::uint32_t i = 1; i <= 50; ++i)
        grid.update(EntityId{i}, {static_cast<double>(i), 0.0, 0.0});
    grid.rebuild();
    grid.remove(EntityId{25});
    std::vector<EntityId> out;
    grid.query_radius_into({25.0, 0, 0}, 0.5, out);
    EXPECT_TRUE(out.empty());
    grid.query_radius_into({24.0, 0, 0}, 0.5, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], EntityId{24});
}

// ------------------------------------------------------------ batch tap

/// One avatar batch as it left the sender: destination, charged size and
/// the (participant, seq) of every update in order.
struct SentBatch {
    net::NodeId dst{net::kInvalidNode};
    std::size_t size_bytes{0};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> updates;
    friend bool operator==(const SentBatch&, const SentBatch&) = default;
};

/// Records every avatar batch in send order, before any link delay.
class BatchTap final : public net::PacketTap {
public:
    void on_send(const net::Packet& p, net::Priority) override {
        if (p.flow != sync::kAvatarBatchFlow) return;
        SentBatch b{.dst = p.dst, .size_bytes = p.size_bytes, .updates = {}};
        for (const sync::AvatarWire& w : p.payload.get<sync::AvatarBatchWire>().updates)
            b.updates.emplace_back(w.participant.value(), w.seq);
        sent.push_back(std::move(b));
    }
    std::vector<SentBatch> sent;
};

// --------------------------------------------------- CellDeltaAggregator

class AggregatorTest : public ::testing::Test {
protected:
    AggregatorTest() : net_(sim_) {
        src_ = net_.add_node("gw", net::Region::HongKong);
        near_ = net_.add_node("near", net::Region::HongKong);
        far_ = net_.add_node("far", net::Region::HongKong);
        const net::LinkParams link{.latency = sim::Time::ms(1)};
        net_.connect(src_, near_, link);
        net_.connect(src_, far_, link);
    }

    sync::AvatarWire wire(std::uint32_t participant, std::uint32_t seq) {
        sync::AvatarWire w{ParticipantId{participant}, ClassroomId{1}, false,
                           std::vector<std::uint8_t>(16, 0xAB), sim_.now(), {}};
        w.seq = seq;
        return w;
    }

    sim::Simulator sim_;
    net::Network net_;
    net::NodeId src_{};
    net::NodeId near_{};
    net::NodeId far_{};
};

TEST_F(AggregatorTest, ShipsToInterestedViewerSuppressesOutOfRange) {
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{100}, {0, 0, 0});
    // Default policy's horizon is 80 m; park the far viewer well beyond it.
    agg.add_viewer(far_, ParticipantId{200}, {500, 0, 0});

    std::uint64_t near_updates = 0;
    std::uint64_t far_updates = 0;
    net::PacketDemux near_demux{net_, near_};
    net::PacketDemux far_demux{net_, far_};
    near_demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        near_updates += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });
    far_demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        far_updates += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });

    agg.enqueue({1, 0, 0}, wire(1, 1));
    agg.enqueue({2, 0, 0}, wire(2, 1));
    sim_.run_until(sim::Time::ms(50));

    EXPECT_EQ(near_updates, 2u);
    EXPECT_EQ(far_updates, 0u);
    EXPECT_EQ(agg.updates_enqueued(), 2u);
    EXPECT_EQ(agg.updates_shipped(), 2u);
    EXPECT_GT(agg.suppressed_by_aoi(), 0u);
}

TEST_F(AggregatorTest, ViewerOwnUpdateIsNotEchoed) {
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{1}, {0, 0, 0});

    std::uint64_t got = 0;
    net::PacketDemux demux{net_, near_};
    demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        got += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });

    agg.enqueue({1, 0, 0}, wire(1, 1));  // the viewer's own avatar
    agg.enqueue({1, 0, 0}, wire(2, 1));  // someone else in the same cell
    sim_.run_until(sim::Time::ms(50));
    EXPECT_EQ(got, 1u);
}

TEST_F(AggregatorTest, PerTierRateClockThrottlesRepeatFlushes) {
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    // One far-but-in-range viewer: the matching tier refreshes at 5 Hz,
    // far slower than the 100 Hz enqueue cadence.
    agg.add_viewer(near_, ParticipantId{100}, {60, 0, 0});

    for (int burst = 0; burst < 20; ++burst) {
        sim_.schedule_at(sim::Time::ms(10 * burst), [this, &agg, burst] {
            agg.enqueue({1, 0, 0}, wire(1, static_cast<std::uint32_t>(burst + 1)));
        });
    }
    sim_.run_until(sim::Time::ms(400));
    EXPECT_GT(agg.suppressed_by_rate(), 0u);
    EXPECT_LT(agg.updates_shipped(), 20u);
    EXPECT_GT(agg.updates_shipped(), 0u);
}

TEST_F(AggregatorTest, TierRadiusBoundaryIsInclusiveAndDeterministic) {
    // Two tiers with exact radii. Entity at {1,0,0} lands in cell [0,8)^3;
    // its AABB's nearest point to a viewer on the +x axis is (8,0,0). A
    // viewer at x=20 sits at distance 12.0 exactly — on the outer tier's
    // radius — and must be admitted (distance <= max_distance_m), not
    // dropped to a float-comparison coin toss.
    const sync::InterestPolicy policy{std::vector<sync::InterestTier>{
        {5.0, 20.0, avatar::LodLevel::High},
        {12.0, 5.0, avatar::LodLevel::Low},
    }};
    EXPECT_EQ(policy.tier_index_for(5.0), 0);   // inner boundary: inner tier
    EXPECT_EQ(policy.tier_index_for(12.0), 1);  // outer boundary: still in
    EXPECT_EQ(policy.tier_index_for(12.0 + 1e-9), -1);

    for (int run = 0; run < 2; ++run) {
        sim::Simulator sim;
        net::Network net{sim};
        const net::NodeId src = net.add_node("gw", net::Region::HongKong);
        const net::NodeId on_edge = net.add_node("edge", net::Region::HongKong);
        const net::NodeId beyond = net.add_node("beyond", net::Region::HongKong);
        const net::LinkParams link{.latency = sim::Time::ms(1)};
        net.connect(src, on_edge, link);
        net.connect(src, beyond, link);

        sync::CellDeltaAggregator agg{net, src, sim::Time::ms(10), 8.0, policy};
        agg.add_viewer(on_edge, ParticipantId{100}, {20.0, 0.0, 0.0});
        agg.add_viewer(beyond, ParticipantId{200}, {20.001, 0.0, 0.0});

        sync::AvatarWire w{ParticipantId{1}, ClassroomId{1}, false,
                           std::vector<std::uint8_t>(16, 0xAB), sim.now(), {}};
        w.seq = 1;
        agg.enqueue({1.0, 0.0, 0.0}, std::move(w));
        sim.run_until(sim::Time::ms(50));

        EXPECT_EQ(agg.updates_shipped(), 1u) << "run " << run;
        EXPECT_EQ(agg.suppressed_by_aoi(), 1u) << "run " << run;
    }
}

TEST_F(AggregatorTest, ViewerOnCellCornerGetsNearestTier) {
    // The viewer stands exactly on the corner shared by the entity's cell:
    // the nearest-AABB-point distance is 0.0, which must resolve to tier 0
    // (the hottest rate clock), not fall between tiers.
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{100}, {8.0, 0.0, 8.0});

    std::uint64_t got = 0;
    net::PacketDemux demux{net_, near_};
    demux.on_flow(std::string{sync::kAvatarBatchFlow}, [&](net::Packet&& p) {
        got += p.payload.take<sync::AvatarBatchWire>().updates.size();
    });

    agg.enqueue({1.0, 0.0, 1.0}, wire(1, 1));  // cell [0,8)^3, corner (8,0,8)
    sim_.run_until(sim::Time::ms(50));
    EXPECT_EQ(got, 1u);
    EXPECT_EQ(agg.updates_shipped(), 1u);
    EXPECT_EQ(agg.suppressed_by_aoi(), 0u);
}

TEST_F(AggregatorTest, BatchesFollowCellParticipantSeqOrder) {
    // Cells are 8 m: {-10,0,3} -> (-2,0,0), {-3,0,-5} -> (-1,0,-1),
    // {1,0,1} -> (0,0,0), {9,0,-2} -> (1,0,-1). Deltas arrive shuffled
    // across cells; cell (0,0,0) gets its participants in descending order
    // and participant 5 three seqs out of order, plus a fourth seq after it
    // crossed into cell (1,0,-1).
    struct Delta {
        math::Vec3 position;
        std::uint32_t participant, seq;
    };
    const std::vector<Delta> deltas = {
        {{1, 0, 1}, 9, 1},   {{9, 0, -2}, 5, 4},  {{-3, 0, -5}, 12, 7},
        {{1, 0, 1}, 8, 1},   {{-10, 0, 3}, 3, 2}, {{1, 0, 1}, 5, 3},
        {{1, 0, 1}, 7, 1},   {{-3, 0, -5}, 2, 9}, {{1, 0, 1}, 5, 1},
        {{-10, 0, 3}, 1, 6}, {{1, 0, 1}, 5, 2},   {{9, 0, -2}, 4, 1},
    };
    // Viewer 8 is the near viewer's own avatar: never echoed back.
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected = {
        {1, 6}, {3, 2},                  // cell (-2,0,0)
        {2, 9}, {12, 7},                 // cell (-1,0,-1)
        {5, 1}, {5, 2}, {5, 3}, {7, 1},  // cell (0,0,0), 8 skipped
        {9, 1},                          //
        {4, 1}, {5, 4},                  // cell (1,0,-1)
    };

    BatchTap tap;
    net_.set_tap(&tap);
    sync::CellDeltaAggregator agg{net_, src_, sim::Time::ms(10), 8.0};
    agg.add_viewer(near_, ParticipantId{8}, {0, 0, 0});
    agg.add_viewer(far_, ParticipantId{200}, {500, 0, 0});
    for (const Delta& d : deltas) agg.enqueue(d.position, wire(d.participant, d.seq));
    sim_.run_until(sim::Time::ms(11));

    ASSERT_EQ(tap.sent.size(), 1u);
    EXPECT_EQ(tap.sent[0].dst, near_);
    EXPECT_EQ(tap.sent[0].updates, expected);
    EXPECT_EQ(agg.updates_enqueued(), deltas.size());
    EXPECT_EQ(agg.updates_shipped(), expected.size());
    EXPECT_EQ(agg.cells_flushed(), 4u);
    EXPECT_EQ(agg.suppressed_by_aoi(), deltas.size());  // the far viewer
    EXPECT_EQ(agg.suppressed_by_rate(), 0u);
    EXPECT_EQ(agg.suppressed_by_budget(), 0u);
    EXPECT_EQ(agg.batcher().batches_sent(), 1u);
    EXPECT_EQ(agg.batcher().updates_batched(), expected.size());

    // A second round inside the near viewer's tier clocks (60 Hz for cells
    // (-1,0,-1) and (0,0,0), 30 Hz for the two 8 m away) ships nothing.
    sim_.schedule_at(sim::Time::ms(12), [&] {
        agg.enqueue({1, 0, 1}, wire(9, 2));
        agg.enqueue({-10, 0, 3}, wire(3, 3));
        agg.enqueue({1, 0, 1}, wire(7, 2));
    });
    sim_.run_until(sim::Time::ms(40));
    net_.set_tap(nullptr);
    EXPECT_EQ(tap.sent.size(), 1u);
    EXPECT_EQ(agg.updates_shipped(), expected.size());
    EXPECT_EQ(agg.cells_flushed(), 6u);
    EXPECT_EQ(agg.suppressed_by_rate(), 3u);
    EXPECT_EQ(agg.suppressed_by_aoi(), deltas.size() + 3u);
}

// ------------------------------------------------------------ WireBatcher

class BatcherTest : public ::testing::Test {
protected:
    BatcherTest() : net_(sim_) {
        src_ = net_.add_node("src", net::Region::HongKong);
        for (net::NodeId& d : dst_) {
            d = net_.add_node("dst", net::Region::HongKong);
            net_.connect(src_, d, net::LinkParams{.latency = sim::Time::ms(1)});
        }
        net_.set_tap(&tap_);
    }
    ~BatcherTest() override { net_.set_tap(nullptr); }

    static sync::AvatarWire wire(std::uint32_t participant, std::uint32_t seq,
                                 std::size_t bytes = 16) {
        sync::AvatarWire w{ParticipantId{participant}, ClassroomId{1}, false,
                           std::vector<std::uint8_t>(bytes, 0xCD), sim::Time{}, {}};
        w.seq = seq;
        return w;
    }

    sim::Simulator sim_;
    net::Network net_;
    BatchTap tap_;
    net::NodeId src_{};
    std::array<net::NodeId, 3> dst_{};
};

TEST_F(BatcherTest, FlushesDestinationsInNodeIdOrderOneBatchEach) {
    sync::WireBatcher batcher{net_, src_, sim::Time::ms(20)};
    // Enqueue order interleaves destinations, highest node id first.
    batcher.enqueue(dst_[2], wire(1, 1));
    batcher.enqueue(dst_[0], wire(2, 1));
    batcher.enqueue(dst_[2], wire(3, 1));
    batcher.enqueue(dst_[1], wire(4, 1));
    batcher.enqueue(dst_[0], wire(5, 1));
    batcher.flush();

    ASSERT_EQ(tap_.sent.size(), 3u);
    EXPECT_EQ(tap_.sent[0].dst, dst_[0]);
    EXPECT_EQ(tap_.sent[1].dst, dst_[1]);
    EXPECT_EQ(tap_.sent[2].dst, dst_[2]);
    using Updates = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
    EXPECT_EQ(tap_.sent[0].updates, (Updates{{2, 1}, {5, 1}}));
    EXPECT_EQ(tap_.sent[1].updates, (Updates{{4, 1}}));
    EXPECT_EQ(tap_.sent[2].updates, (Updates{{1, 1}, {3, 1}}));
}

TEST_F(BatcherTest, CountersMatchWhatWasSent) {
    sync::WireBatcher batcher{net_, src_, sim::Time::ms(20)};
    batcher.enqueue(dst_[0], wire(1, 1, 10));
    batcher.enqueue(dst_[0], wire(2, 1, 30));
    batcher.enqueue(dst_[1], wire(3, 1, 50));
    EXPECT_EQ(batcher.updates_batched(), 3u);
    EXPECT_EQ(batcher.batches_sent(), 0u);
    batcher.flush();

    // Each batch: 2-byte count + (bytes + 8) per update.
    EXPECT_EQ(batcher.batches_sent(), 2u);
    EXPECT_EQ(batcher.updates_batched(), 3u);
    EXPECT_EQ(batcher.bytes_sent(), (2u + 18u + 38u) + (2u + 58u));
    ASSERT_EQ(tap_.sent.size(), 2u);
    EXPECT_EQ(tap_.sent[0].size_bytes, 2u + 18u + 38u);
    EXPECT_EQ(tap_.sent[1].size_bytes, 2u + 58u);
}

TEST_F(BatcherTest, IdleDestinationSendsNothingAndEnqueueAfterFlushRearms) {
    sync::WireBatcher batcher{net_, src_, sim::Time::ms(20)};
    batcher.enqueue(dst_[0], wire(1, 1));
    batcher.enqueue(dst_[1], wire(2, 1));
    sim_.run_until(sim::Time::ms(25));  // timer flush at 20 ms
    ASSERT_EQ(tap_.sent.size(), 2u);

    // Only dst_[0] has traffic in the next interval; dst_[1] stays silent.
    sim_.schedule_at(sim::Time::ms(30), [&] { batcher.enqueue(dst_[0], wire(1, 2)); });
    sim_.run_until(sim::Time::ms(60));  // re-armed timer flush at 50 ms
    ASSERT_EQ(tap_.sent.size(), 3u);
    EXPECT_EQ(tap_.sent[2].dst, dst_[0]);
    EXPECT_EQ(tap_.sent[2].updates.size(), 1u);
    EXPECT_EQ(tap_.sent[2].updates[0].second, 2u);

    // A flush with nothing queued anywhere sends nothing.
    batcher.flush();
    EXPECT_EQ(tap_.sent.size(), 3u);
    EXPECT_EQ(batcher.batches_sent(), 3u);
    EXPECT_EQ(batcher.updates_batched(), 3u);
}

TEST_F(BatcherTest, ReserveNeverChangesWhatIsSent) {
    const auto traffic = [this](sync::WireBatcher& b, bool reserve) {
        if (reserve) {
            b.reserve(dst_[0], 5);  // more than arrives
            b.reserve(dst_[1], 4);  // nothing arrives at all
            b.reserve(dst_[2], 1);  // fewer than arrive
        }
        b.enqueue(dst_[2], wire(1, 1));
        b.enqueue(dst_[0], wire(2, 1, 60));  // past the inline bytes
        if (reserve) b.reserve(dst_[2], 2);  // on a batch already started
        b.enqueue(dst_[2], wire(3, 1));
        b.enqueue(dst_[2], wire(4, 1));
        b.enqueue(dst_[0], wire(5, 1));
        b.flush();
        if (reserve) b.reserve(dst_[1], 1);
        b.enqueue(dst_[1], wire(6, 1));
        b.flush();
    };
    sync::WireBatcher plain{net_, src_, sim::Time::ms(20)};
    traffic(plain, false);
    const std::vector<SentBatch> expected = std::move(tap_.sent);
    tap_.sent.clear();

    sync::WireBatcher reserved{net_, src_, sim::Time::ms(20)};
    traffic(reserved, true);
    ASSERT_EQ(expected.size(), 3u);
    EXPECT_EQ(tap_.sent, expected);
    EXPECT_EQ(reserved.batches_sent(), plain.batches_sent());
    EXPECT_EQ(reserved.updates_batched(), plain.updates_batched());
    EXPECT_EQ(reserved.bytes_sent(), plain.bytes_sent());
}

// ------------------------------------------------------------ CampusWorld

CampusConfig small_campus() {
    CampusConfig c;
    c.buildings = 2;
    c.classrooms_per_building = 4;
    c.avatars_per_classroom = 12;
    c.viewers_per_building = 3;
    c.mirror_stride = 8;
    return c;
}

TEST(CampusWorldTest, AggregatedEgressIsByteIdenticalAcrossThreadCounts) {
    std::string baseline;
    for (const std::size_t threads : {1u, 2u, 4u}) {
        CampusWorld world{small_campus()};
        world.run_until(sim::Time::seconds(0.5), threads);
        const std::string json = world.metrics_json();
        if (baseline.empty()) {
            baseline = json;
        } else {
            EXPECT_EQ(json, baseline) << "thread count " << threads << " diverged";
        }
    }
    EXPECT_FALSE(baseline.empty());
}

TEST(CampusWorldTest, AggregationShipsFewerBytesThanFanout) {
    // The small campus, and E22's quick size (2 x 10 x 50 avatars).
    CampusConfig e22_quick;
    e22_quick.buildings = 2;
    e22_quick.classrooms_per_building = 10;
    e22_quick.avatars_per_classroom = 50;
    for (const CampusConfig& aggregated : {small_campus(), e22_quick}) {
        SCOPED_TRACE(aggregated.buildings * aggregated.classrooms_per_building *
                     aggregated.avatars_per_classroom);
        CampusConfig fanout = aggregated;
        fanout.aggregate = false;

        CampusWorld agg_world{aggregated};
        agg_world.run_until(sim::Time::seconds(0.5));
        CampusWorld fan_world{fanout};
        fan_world.run_until(sim::Time::seconds(0.5));

        EXPECT_GT(fan_world.egress_bytes(), 0u);
        EXPECT_GT(agg_world.egress_bytes(), 0u);
        EXPECT_LT(agg_world.egress_bytes(), fan_world.egress_bytes());
        // Both modes deliver the same avatars to the same viewers.
        EXPECT_GT(agg_world.viewer_updates(), 0u);
        EXPECT_GT(fan_world.viewer_updates(), 0u);
    }
}

// Pins the campus egress counters for both egress modes. The constants were
// taken from a run of the code before the campus egress moved onto the
// servers' shared pipeline.
struct CampusEgressPin {
    std::uint64_t egress_bytes, updates_shipped, suppressed_aoi, suppressed_rate, digest;
};

CampusEgressPin campus_egress(bool aggregate) {
    CampusConfig c = small_campus();
    c.aggregate = aggregate;
    CampusWorld world{c};
    world.run_until(sim::Time::seconds(0.5));
    return {world.egress_bytes(), world.updates_shipped(), world.suppressed_by_aoi(),
            world.suppressed_by_rate(), world.state_digest()};
}

TEST(CampusEgressGoldenTest, AggregatedEgressCountersPinned) {
    const CampusEgressPin p = campus_egress(true);
    EXPECT_EQ(p.egress_bytes, 44330u);
    EXPECT_EQ(p.updates_shipped, 1030u);
    EXPECT_EQ(p.suppressed_aoi, 0u);
    EXPECT_EQ(p.suppressed_rate, 35u);
    EXPECT_EQ(p.digest, 10981447912311198797ULL);
}

TEST(CampusEgressGoldenTest, FanoutEgressCountersPinned) {
    const CampusEgressPin p = campus_egress(false);
    EXPECT_EQ(p.egress_bytes, 94041u);
    EXPECT_EQ(p.updates_shipped, 1161u);
    EXPECT_EQ(p.suppressed_aoi, 0u);
    EXPECT_EQ(p.suppressed_rate, 6u);
    EXPECT_EQ(p.digest, 4775173913121082228ULL);
}

TEST(CampusWorldTest, MirrorReachesOriginAcrossShards) {
    CampusWorld world{small_campus()};
    world.run_until(sim::Time::seconds(0.5));
    EXPECT_GT(world.mirror_updates(), 0u);
    EXPECT_NE(world.state_digest(), 0u);
    EXPECT_EQ(world.lookahead_violations(), 0u);
    EXPECT_EQ(world.avatar_count(), 2u * 4u * 12u);
}

}  // namespace
}  // namespace mvc::core
