#pragma once
// Interest-grid-driven delta aggregation at egress. Per-client fan-out asks
// "who should see this update?" once per update per viewer — O(updates x
// viewers) tier checks and one enqueue per pair. The aggregator inverts the
// loop: dirty deltas accumulate for one aggregation interval, are grouped by
// interest-grid cell once, and each viewer's packet is assembled from the
// cells its interest tiers select — the tier test runs per (cell, viewer),
// not per (update, viewer), and the per-viewer rate clock collapses from
// per-entity to per-tier. Shipped batches ride the existing WireBatcher, so
// every destination still receives one coalesced AvatarBatchWire per flush.
//
// Egress cost is linear in the deltas shipped. Wires stay where enqueue
// put them; a flat cell table numbers each flush's distinct cells, a
// counting scatter lays out one 16-byte key per delta in ascending cell
// order, and each cell's short run is insertion-sorted by (participant,
// seq). Selection is viewer-major: one pass over the cell runs decides
// tier, QoE bank and admission and counts the viewer's updates, then its
// batch is reserved at exactly that size and filled (DESIGN §14.3).
//
// Determinism: each viewer's batch is in (cell, participant, seq) order,
// viewers are kept sorted by node id, and the batcher flushes destinations
// in NodeId order — aggregated egress is byte-identical for any thread
// count, same as the rest of the sharded engine.

#include <cstdint>
#include <vector>

#include "net/channel.hpp"
#include "sync/batcher.hpp"
#include "sync/interest.hpp"
#include "sync/wire.hpp"

namespace mvc::sync {

class CellDeltaAggregator {
public:
    /// Deltas enqueued on this aggregator are grouped by `cell_size` cells
    /// and shipped from `src` every `interval` to the viewers whose `policy`
    /// tiers select their cell.
    CellDeltaAggregator(net::Backend& net, net::NodeId src, sim::Time interval,
                        double cell_size, InterestPolicy policy = {},
                        net::Priority priority = net::Priority::Realtime);

    CellDeltaAggregator(const CellDeltaAggregator&) = delete;
    CellDeltaAggregator& operator=(const CellDeltaAggregator&) = delete;

    /// Register / re-position / drop a receiving viewer. `self` suppresses
    /// echoing a viewer's own avatar back to it.
    void add_viewer(net::NodeId node, ParticipantId self, const math::Vec3& position);
    void update_viewer(net::NodeId node, const math::Vec3& position);
    void remove_viewer(net::NodeId node);
    [[nodiscard]] std::size_t viewer_count() const { return viewers_.size(); }

    /// Attach QoE-driven attention state to a viewer (see qoe::BudgetAllocator):
    /// `gaze` is the world-space view direction (zero = no gaze signal, the
    /// whole view is peripheral), `fovea_cos` the gaze-cone threshold, and the
    /// two banks are per-tier rate scales multiplied into this viewer's tier
    /// clocks — foveal for cells inside the cone, peripheral outside — so
    /// avatar update rates degrade by attention rather than uniformly.
    /// Viewers without QoE state take the exact legacy path (byte-identical).
    void set_viewer_qoe(net::NodeId node, const math::Vec3& gaze, double fovea_cos,
                        std::vector<double> foveal, std::vector<double> peripheral);
    void clear_viewer_qoe(net::NodeId node);

    /// Queue one dirty delta; `position` decides its cell. Arms the flush
    /// timer if idle.
    void enqueue(const math::Vec3& position, AvatarWire wire);

    /// Group pending deltas by cell, select each viewer's cells by tier
    /// distance (nearest point of the cell's AABB) and per-tier rate clock,
    /// and ship one batch per destination now.
    void flush();

    [[nodiscard]] sim::Time interval() const { return interval_; }
    [[nodiscard]] const WireBatcher& batcher() const { return batcher_; }
    [[nodiscard]] std::uint64_t updates_enqueued() const { return updates_enqueued_; }
    [[nodiscard]] std::uint64_t updates_shipped() const { return updates_shipped_; }
    [[nodiscard]] std::uint64_t cells_flushed() const { return cells_flushed_; }
    [[nodiscard]] std::uint64_t suppressed_by_aoi() const { return suppressed_aoi_; }
    [[nodiscard]] std::uint64_t suppressed_by_rate() const { return suppressed_rate_; }
    /// Runs suppressed because a QoE rate scale was zero for the tier.
    [[nodiscard]] std::uint64_t suppressed_by_budget() const { return suppressed_budget_; }

private:
    /// A delta's sort key, participant << 32 | seq, and an index: the
    /// delta's cell slot in `keys_`, its position in `wires_` in `order_`.
    struct Keyed {
        std::uint64_t key;
        std::uint32_t index;
    };
    /// One cell's contiguous run of `order_`; `slot` is its table number.
    struct CellRun {
        InterestGrid::Cell cell;
        std::uint32_t slot, begin, end;
    };
    /// Open-addressed cell table entry; `slot` is the cell's number this
    /// flush plus one (0 = empty).
    struct TableEntry {
        InterestGrid::Cell cell;
        std::uint32_t slot;
    };
    struct ViewerState {
        net::NodeId node{net::kInvalidNode};
        ParticipantId self;
        math::Vec3 position;
        /// Per-tier rate clocks + per-flush admission/shipped scratch. For a
        /// QoE viewer these arrays are the *peripheral* bank (scales applied);
        /// without QoE state they run at the tiers' native rates, unchanged.
        std::vector<sim::Time> next_due;
        std::vector<std::uint8_t> admitted;
        std::vector<std::uint8_t> shipped;
        /// QoE attention state (set_viewer_qoe): gaze cone + per-tier scale
        /// banks, with a second clock bank for cells inside the cone.
        bool qoe{false};
        math::Vec3 gaze;
        double fovea_cos{0.866};
        std::vector<double> foveal_scale;
        std::vector<double> peripheral_scale;
        std::vector<sim::Time> next_due_fov;
        std::vector<std::uint8_t> admitted_fov;
        std::vector<std::uint8_t> shipped_fov;
    };

    net::Backend& net_;
    InterestPolicy policy_;
    double cell_size_;
    sim::Time interval_;
    WireBatcher batcher_;
    std::vector<ViewerState> viewers_;  // sorted by node id
    // Pending deltas, in enqueue order.
    std::vector<AvatarWire> wires_;
    std::vector<Keyed> keys_;
    // Cell table, kept across flushes and emptied after each: power-of-two
    // sized, `used_` holds the table index of each slot, `counts_` its
    // deltas (the scatter cursor while grouping).
    std::vector<TableEntry> table_;
    std::vector<std::uint32_t> used_;
    std::vector<std::uint32_t> counts_;
    // Flush scratch: runs in ascending cell order, delta keys in (cell,
    // participant, seq) order, and the current viewer's selected runs.
    std::vector<CellRun> runs_;
    std::vector<Keyed> order_;
    std::vector<std::uint8_t> selected_;
    bool armed_{false};
    std::uint64_t updates_enqueued_{0};
    std::uint64_t updates_shipped_{0};
    std::uint64_t cells_flushed_{0};
    std::uint64_t suppressed_aoi_{0};
    std::uint64_t suppressed_rate_{0};
    std::uint64_t suppressed_budget_{0};

    [[nodiscard]] std::vector<ViewerState>::iterator find_viewer(net::NodeId node);
    /// This flush's number for `cell`, counting one more delta in it.
    [[nodiscard]] std::uint32_t cell_slot(const InterestGrid::Cell& cell);
    void grow_table();
    /// Lay out `runs_` and `order_` from the pending deltas.
    void group();
    /// Select `v`'s cells, then queue its whole batch at its exact size.
    void ship_to(ViewerState& v, sim::Time now);
    /// Deltas of participant `self` in `run` (a contiguous key range).
    [[nodiscard]] std::size_t own_deltas(const CellRun& run, std::uint32_t self) const;
};

}  // namespace mvc::sync
