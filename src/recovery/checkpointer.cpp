#include "recovery/checkpointer.hpp"

#include <utility>

namespace mvc::recovery {

Checkpointer::Checkpointer(sim::Clock& clock, sim::MetricsRecorder& metrics,
                           RecoveryParams params, std::string owner, CaptureFn capture)
    : sim_(clock),
      metrics_(metrics),
      params_(params),
      owner_(std::move(owner)),
      checkpoint_bytes_id_(
          metrics.series_id("recovery.checkpoint_bytes", {{"owner", owner_}})),
      checkpoint_id_(metrics.counter_id("recovery.checkpoint", {{"owner", owner_}})),
      capture_(std::move(capture)) {}

Checkpointer::~Checkpointer() { pause(); }

void Checkpointer::start() {
    if (running_ || !params_.enabled || params_.store == nullptr) return;
    running_ = true;
    task_ = sim_.schedule_every(params_.checkpoint_interval, [this] { checkpoint_now(); });
}

void Checkpointer::pause() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(task_);
    task_ = {};
}

void Checkpointer::resume() { start(); }

void Checkpointer::checkpoint_now() {
    if (!params_.enabled || params_.store == nullptr) return;
    ClassroomCheckpoint cp;
    cp.node = owner_;
    cp.sequence = next_sequence_++;
    cp.taken_at_ns = sim_.now().nanos();
    capture_(cp);
    std::vector<std::uint8_t> bytes = encode_checkpoint(cp);
    metrics_.sample(checkpoint_bytes_id_, static_cast<double>(bytes.size()));
    metrics_.count(checkpoint_id_);
    params_.store->put(owner_, std::move(bytes));
    ++taken_;
}

Restorer::Restorer(sim::Clock& clock, sim::MetricsRecorder& metrics,
                   const std::string& server)
    : clock_(clock),
      metrics_(metrics),
      gap_ms_id_(metrics.series_id("recovery.gap_ms", {{"server", server}})),
      restore_id_(metrics.counter_id("recovery.restore", {{"server", server}})),
      cold_start_id_(metrics.counter_id("recovery.cold_start", {{"server", server}})) {}

void Restorer::restart(const Checkpointer* source, const ApplyFn& apply) {
    std::optional<std::vector<std::uint8_t>> bytes;
    if (source != nullptr) bytes = source->params().store->latest(source->owner());
    if (bytes) {
        try {
            ClassroomCheckpoint cp = decode_checkpoint(*bytes);
            const double gap_ms = (clock_.now() - cp.taken_at()).to_ms();
            apply(std::move(cp));
            last_gap_ms_ = gap_ms;
            ++restores_;
            metrics_.sample(gap_ms_id_, last_gap_ms_);
            metrics_.count(restore_id_);
            return;
        } catch (const CheckpointError&) {
            // Corrupt checkpoint: fall through to a cold start.
        }
    }
    ++cold_starts_;
    metrics_.count(cold_start_id_);
}

}  // namespace mvc::recovery
