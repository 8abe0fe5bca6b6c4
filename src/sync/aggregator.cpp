#include "sync/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mvc::sync {

CellDeltaAggregator::CellDeltaAggregator(net::Backend& net, net::NodeId src,
                                         sim::Time interval, double cell_size,
                                         InterestPolicy policy, net::Priority priority)
    : net_(net),
      policy_(std::move(policy)),
      cell_size_(cell_size),
      interval_(interval),
      batcher_(net, src, interval, priority) {
    if (cell_size <= 0.0)
        throw std::invalid_argument("CellDeltaAggregator: cell size > 0");
}

std::vector<CellDeltaAggregator::ViewerState>::iterator
CellDeltaAggregator::find_viewer(net::NodeId node) {
    return std::lower_bound(
        viewers_.begin(), viewers_.end(), node,
        [](const ViewerState& v, net::NodeId n) { return v.node < n; });
}

void CellDeltaAggregator::add_viewer(net::NodeId node, ParticipantId self,
                                     const math::Vec3& position) {
    auto it = find_viewer(node);
    if (it != viewers_.end() && it->node == node) {
        it->self = self;
        it->position = position;
        return;
    }
    ViewerState v;
    v.node = node;
    v.self = self;
    v.position = position;
    v.next_due.assign(policy_.tiers().size(), sim::Time{});
    v.admitted.assign(policy_.tiers().size(), 0);
    v.shipped.assign(policy_.tiers().size(), 0);
    viewers_.insert(it, std::move(v));
}

void CellDeltaAggregator::set_viewer_qoe(net::NodeId node, const math::Vec3& gaze,
                                         double fovea_cos, std::vector<double> foveal,
                                         std::vector<double> peripheral) {
    auto it = find_viewer(node);
    if (it == viewers_.end() || it->node != node) return;
    ViewerState& v = *it;
    const std::size_t tiers = policy_.tiers().size();
    v.gaze = gaze.normalized();
    v.fovea_cos = fovea_cos;
    v.foveal_scale = std::move(foveal);
    v.peripheral_scale = std::move(peripheral);
    v.foveal_scale.resize(tiers, 1.0);
    v.peripheral_scale.resize(tiers, 1.0);
    if (!v.qoe) {
        // The foveal bank starts due now, like a freshly added viewer's.
        v.qoe = true;
        v.next_due_fov.assign(tiers, sim::Time{});
        v.admitted_fov.assign(tiers, 0);
        v.shipped_fov.assign(tiers, 0);
    }
}

void CellDeltaAggregator::clear_viewer_qoe(net::NodeId node) {
    auto it = find_viewer(node);
    if (it == viewers_.end() || it->node != node) return;
    it->qoe = false;
    it->foveal_scale.clear();
    it->peripheral_scale.clear();
    it->next_due_fov.clear();
    it->admitted_fov.clear();
    it->shipped_fov.clear();
}

void CellDeltaAggregator::remove_viewer(net::NodeId node) {
    auto it = find_viewer(node);
    if (it != viewers_.end() && it->node == node) viewers_.erase(it);
}

void CellDeltaAggregator::enqueue(const math::Vec3& position, AvatarWire wire) {
    const std::uint64_t key =
        (std::uint64_t{wire.participant.value()} << 32) | wire.seq;
    keys_.push_back(Keyed{key, cell_slot(InterestGrid::cell_of(position, cell_size_))});
    wires_.push_back(std::move(wire));
    ++updates_enqueued_;
    if (armed_) return;
    armed_ = true;
    net_.clock().schedule_after(interval_, [this] {
        armed_ = false;
        flush();
    });
}

std::uint32_t CellDeltaAggregator::cell_slot(const InterestGrid::Cell& cell) {
    if (2 * (used_.size() + 1) > table_.size()) grow_table();
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = InterestGrid::cell_hash(cell.x, cell.y, cell.z) & mask;;
         i = (i + 1) & mask) {
        TableEntry& e = table_[i];
        if (e.slot == 0) {  // the cell's first delta this flush
            e = TableEntry{cell, static_cast<std::uint32_t>(used_.size() + 1)};
            used_.push_back(static_cast<std::uint32_t>(i));
            counts_.push_back(0);
        } else if (e.cell != cell) {
            continue;  // linear probing
        }
        ++counts_[e.slot - 1];
        return e.slot - 1;
    }
}

void CellDeltaAggregator::grow_table() {
    std::vector<TableEntry> old(std::max<std::size_t>(64, 2 * table_.size()));
    old.swap(table_);
    const std::size_t mask = table_.size() - 1;
    for (std::uint32_t& at : used_) {
        const TableEntry& e = old[at];
        std::size_t i = InterestGrid::cell_hash(e.cell.x, e.cell.y, e.cell.z) & mask;
        while (table_[i].slot != 0) i = (i + 1) & mask;
        table_[i] = e;
        at = static_cast<std::uint32_t>(i);
    }
}

void CellDeltaAggregator::group() {
    runs_.clear();
    for (std::uint32_t slot = 0; slot < used_.size(); ++slot)
        runs_.push_back(CellRun{table_[used_[slot]].cell, slot, 0, 0});
    std::sort(runs_.begin(), runs_.end(),
              [](const CellRun& a, const CellRun& b) { return a.cell < b.cell; });
    // Counting scatter: each run's count becomes its write cursor.
    std::uint32_t offset = 0;
    for (CellRun& run : runs_) {
        run.begin = offset;
        offset += counts_[run.slot];
        run.end = offset;
        counts_[run.slot] = run.begin;
    }
    order_.resize(keys_.size());
    for (std::uint32_t d = 0; d < keys_.size(); ++d)
        order_[counts_[keys_[d].index]++] = Keyed{keys_[d].key, d};
    // Runs arrive nearly sorted (a tick sweeps its pool in id order), so
    // insertion sort is linear in practice; it is also stable.
    for (const CellRun& run : runs_) {
        for (std::uint32_t k = run.begin + 1; k < run.end; ++k) {
            const Keyed x = order_[k];
            std::uint32_t j = k;
            for (; j > run.begin && x.key < order_[j - 1].key; --j) order_[j] = order_[j - 1];
            order_[j] = x;
        }
    }
}

std::size_t CellDeltaAggregator::own_deltas(const CellRun& run, std::uint32_t self) const {
    const std::uint64_t lo = std::uint64_t{self} << 32;
    const std::uint64_t hi = lo | 0xFFFFFFFFu;
    const auto first = order_.begin() + run.begin;
    const auto last = order_.begin() + run.end;
    if (first->key > hi || (last - 1)->key < lo) return 0;
    const auto below = [](const Keyed& k, std::uint64_t v) { return k.key < v; };
    const auto above = [](std::uint64_t v, const Keyed& k) { return v < k.key; };
    return static_cast<std::size_t>(std::upper_bound(first, last, hi, above) -
                                    std::lower_bound(first, last, lo, below));
}

void CellDeltaAggregator::flush() {
    if (wires_.empty()) return;
    group();
    const sim::Time now = net_.clock().now();
    for (ViewerState& v : viewers_) ship_to(v, now);
    cells_flushed_ += runs_.size();
    // Every occupied table entry is one of this flush's cells: emptying
    // them empties the table.
    for (const std::uint32_t at : used_) table_[at].slot = 0;
    used_.clear();
    counts_.clear();
    keys_.clear();
    wires_.clear();
    batcher_.flush();
}

void CellDeltaAggregator::ship_to(ViewerState& v, sim::Time now) {
    const auto tiers = policy_.tiers();
    // Admission is decided once per tier per flush: a tier whose clock is
    // due drains every cell it selects this flush, then re-arms.
    for (std::size_t t = 0; t < tiers.size(); ++t) {
        v.admitted[t] = now >= v.next_due[t] ? 1 : 0;
        v.shipped[t] = 0;
    }
    if (v.qoe) {
        for (std::size_t t = 0; t < tiers.size(); ++t) {
            v.admitted_fov[t] = now >= v.next_due_fov[t] ? 1 : 0;
            v.shipped_fov[t] = 0;
        }
    }
    const std::uint32_t self = v.self.value();
    std::size_t count = 0;
    selected_.assign(runs_.size(), 0);
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        const CellRun& run = runs_[r];
        const std::uint64_t len = run.end - run.begin;
        const math::Vec3 lo{run.cell.x * cell_size_, run.cell.y * cell_size_,
                            run.cell.z * cell_size_};
        const math::Vec3 hi{lo.x + cell_size_, lo.y + cell_size_, lo.z + cell_size_};
        // Distance from the viewer to the nearest point of the cell's AABB:
        // conservative, so a cell is never dropped for a viewer one of its
        // entities is actually in range of.
        const double dx = std::max({lo.x - v.position.x, 0.0, v.position.x - hi.x});
        const double dy = std::max({lo.y - v.position.y, 0.0, v.position.y - hi.y});
        const double dz = std::max({lo.z - v.position.z, 0.0, v.position.z - hi.z});
        const int t = policy_.tier_index_for(std::sqrt(dx * dx + dy * dy + dz * dz));
        if (t < 0) {
            suppressed_aoi_ += len;
            continue;
        }
        const auto ti = static_cast<std::size_t>(t);
        // QoE viewers pick a clock bank by attention: the cell is foveal
        // when its centre lies inside the viewer's gaze cone (a viewer
        // standing inside the cell is always foveal — the cell surrounds
        // them). Each bank's rate is the tier's native rate times the
        // bank's scale for this tier.
        bool foveal = false;
        if (v.qoe) {
            const math::Vec3 centre = lerp(lo, hi, 0.5);
            const math::Vec3 dir = centre - v.position;
            const double n = dir.norm();
            foveal = v.gaze != math::Vec3::zero() &&
                     (n <= 0.0 || dir.dot(v.gaze) >= v.fovea_cos * n);
            const double scale = foveal ? v.foveal_scale[ti] : v.peripheral_scale[ti];
            if (scale <= 0.0) {
                suppressed_budget_ += len;
                continue;
            }
        }
        if (!(foveal ? v.admitted_fov : v.admitted)[ti]) {
            suppressed_rate_ += len;
            continue;
        }
        (foveal ? v.shipped_fov : v.shipped)[ti] = 1;
        selected_[r] = 1;
        count += len - own_deltas(run, self);
    }
    updates_shipped_ += count;
    if (count > 0) {
        batcher_.reserve(v.node, count);
        for (std::size_t r = 0; r < runs_.size(); ++r) {
            if (!selected_[r]) continue;
            for (std::uint32_t k = runs_[r].begin; k < runs_[r].end; ++k) {
                if (order_[k].key >> 32 == self) continue;
                batcher_.enqueue(v.node, wires_[order_[k].index]);
            }
        }
    }
    for (std::size_t t = 0; t < tiers.size(); ++t) {
        if (v.shipped[t]) {
            const double scale = v.qoe ? v.peripheral_scale[t] : 1.0;
            v.next_due[t] = now + sim::Time::seconds(1.0 / (tiers[t].update_rate_hz * scale));
        }
        if (v.qoe && v.shipped_fov[t]) {
            v.next_due_fov[t] =
                now + sim::Time::seconds(1.0 / (tiers[t].update_rate_hz * v.foveal_scale[t]));
        }
    }
}

}  // namespace mvc::sync
