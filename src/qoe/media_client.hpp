#pragma once
// Client half of the QoE control loop. Owns the video receiver, the ABR
// controller, and the budget allocator for one VR client, and closes the
// loop on a fixed feedback tick:
//
//   PathHealth (shared with the client's degradation ladder — one congestion
//   estimator, two actuators) supplies loss + smoothed delay; delivered
//   bytes (video packets + avatar updates) over the tick window feed an
//   EWMA capacity estimate; AbrController turns both into a ladder rung;
//   BudgetAllocator splits the residual capacity into per-tier avatar rate
//   scales; and one QoeFeedbackWire ships rung + gaze + scales upstream.
//
// Each tick also scores the session (qoe_score) and exports the per-class
// labeled series/counters the scenario SLO gates read:
//   qoe.score{class=}, qoe.score{class=,client=}, qoe.staleness_ms{class=},
//   qoe.rung{class=} (series); qoe.stall_ms{class=}, qoe.switches{class=}
//   (counters).
//
// The receiver is deliberately not finish()ed at stop(): frames still in
// flight at teardown are not stalls, and a clean run must report zero.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fault/degradation.hpp"
#include "math/stats.hpp"
#include "media/video.hpp"
#include "net/channel.hpp"
#include "qoe/abr.hpp"
#include "qoe/budget.hpp"
#include "qoe/feedback.hpp"
#include "qoe/score.hpp"
#include "sync/interest.hpp"

namespace mvc::qoe {

struct MediaClientConfig {
    bool enabled{false};
    /// Bitrate ladder shared with the server; empty = media::default_ladder().
    std::vector<media::VideoProfile> ladder;
    AbrParams abr{};
    BudgetParams budget{};
    ScoreParams score{};
    /// Interest tiers the scale banks are sized for (must match the egress
    /// aggregator's policy).
    sync::InterestPolicy interest{};
    sim::Time feedback_interval{sim::Time::ms(250)};
    sim::Time playout_delay{sim::Time::ms(200)};
    /// Priority-class label stamped on this client's QoE metrics ("high" or
    /// "low" in the shipped scenarios).
    std::string klass{"high"};
    /// EWMA weight of each new goodput sample in the capacity estimate.
    double capacity_alpha{0.3};
};

class MediaClient {
public:
    /// World-space gaze direction provider (the head's forward vector).
    using GazeFn = std::function<math::Vec3()>;

    /// `health` is the client's existing PathHealth — shared, not copied:
    /// the same estimator feeds the degradation ladder and this controller.
    MediaClient(net::Backend& net, net::PacketDemux& demux, ParticipantId who,
                fault::PathHealth& health, MediaClientConfig config);

    MediaClient(const MediaClient&) = delete;
    MediaClient& operator=(const MediaClient&) = delete;

    /// Begin the feedback loop against `server` (the node streaming video
    /// to us). Call after the server's QoeService::add_client.
    void start(net::NodeId server, GazeFn gaze);
    void stop();

    /// Hook from the avatar ingest path: every delivered avatar update
    /// refreshes staleness and counts toward the goodput window.
    void note_avatar(sim::Time now, std::size_t bytes);

    [[nodiscard]] int rung() const { return abr_.rung(); }
    [[nodiscard]] const AbrController& abr() const { return abr_; }
    [[nodiscard]] const media::PlaybackStats& playback() const {
        return receiver_->stats();
    }
    [[nodiscard]] double capacity_bps() const { return capacity_.value(); }
    /// Most recent per-tick QoE score (100 before the first tick).
    [[nodiscard]] double last_score() const { return last_score_; }
    [[nodiscard]] std::uint64_t feedback_sent() const { return feedback_seq_; }

private:
    net::Backend& net_;
    ParticipantId who_;
    MediaClientConfig config_;
    fault::PathHealth& health_;
    AbrController abr_;
    BudgetAllocator allocator_;
    net::Channel feedback_tx_;
    std::unique_ptr<media::VideoReceiver> receiver_;
    GazeFn gaze_;
    net::NodeId server_{net::kInvalidNode};
    sim::EventHandle tick_task_;
    bool running_{false};
    sim::Time started_{};
    sim::Time last_tick_{};
    sim::Time last_avatar_rx_{};
    std::size_t window_bytes_{0};
    math::Ewma capacity_;
    double last_score_{100.0};
    std::uint32_t feedback_seq_{0};
    std::uint64_t stall_ms_reported_{0};
    std::uint64_t switches_reported_{0};
    /// Backing storage for the client= label (ids must outlive interning).
    std::string client_label_;
    sim::MetricId score_id_;
    sim::MetricId score_client_id_;
    sim::MetricId staleness_id_;
    sim::MetricId rung_id_;
    sim::MetricId stall_id_;
    sim::MetricId switches_id_;

    void handle_video(net::Packet&& p);
    void tick();
};

}  // namespace mvc::qoe
