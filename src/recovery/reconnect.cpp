#include "recovery/reconnect.hpp"

#include <stdexcept>

namespace mvc::recovery {

Reconnector::Reconnector(sim::Clock& clock, ReconnectParams params, std::string name)
    : clock_(clock),
      params_(params),
      name_(std::move(name)),
      backoff_(params_.backoff, clock.rng_stream("reconnect/" + name_)) {
    if (params_.check_interval <= sim::Time::zero())
        throw std::invalid_argument("Reconnector: check_interval must be positive");
    if (params_.probe_timeout <= sim::Time::zero())
        throw std::invalid_argument("Reconnector: probe_timeout must be positive");
}

Reconnector::~Reconnector() { stop(); }

void Reconnector::start() {
    if (running_) return;
    running_ = true;
    state_ = LinkState::Connected;
    last_seen_ = clock_.now();
    backoff_.reset();
    attempts_ = 0;
    ++epoch_;
    if (params_.liveness_timeout > sim::Time::zero())
        check_task_ =
            clock_.schedule_every(params_.check_interval, [this] { check_liveness(); });
}

void Reconnector::stop() {
    if (!running_) return;
    running_ = false;
    ++epoch_;  // orphan any scheduled probe/timeout closures
    clock_.cancel(check_task_);
}

void Reconnector::touch() {
    last_seen_ = clock_.now();
}

void Reconnector::suspect() {
    if (!running_ || state_ != LinkState::Connected) return;
    begin_outage();
}

void Reconnector::probe_succeeded() {
    if (!running_ || state_ != LinkState::Probing) return;
    ++epoch_;  // cancel the pending probe timeout
    ++reconnects_;
    last_outage_ = clock_.now() - outage_started_;
    last_seen_ = clock_.now();
    backoff_.reset();
    const int attempt = attempts_;
    attempts_ = 0;
    const LinkState from = state_;
    state_ = LinkState::Connected;
    if (state_cb_) state_cb_(from, state_, attempt);
}

void Reconnector::probe_failed() {
    if (!running_ || state_ != LinkState::Probing) return;
    ++epoch_;
    transition(LinkState::BackingOff);
    schedule_probe();
}

void Reconnector::transition(LinkState to) {
    const LinkState from = state_;
    if (from == to) return;
    state_ = to;
    if (state_cb_) state_cb_(from, to, attempts_);
}

void Reconnector::begin_outage() {
    ++outages_;
    outage_started_ = clock_.now();
    attempts_ = 0;
    transition(LinkState::BackingOff);
    schedule_probe();
}

void Reconnector::schedule_probe() {
    const std::uint64_t epoch = epoch_;
    clock_.schedule_after(backoff_.next(), [this, epoch] {
        if (!running_ || epoch != epoch_ || state_ != LinkState::BackingOff) return;
        ++attempts_;
        transition(LinkState::Probing);
        // Arm the silent-failure timeout before probing: the probe callback
        // may itself deliver a synchronous verdict.
        clock_.schedule_after(params_.probe_timeout, [this, epoch] {
            if (!running_ || epoch != epoch_ || state_ != LinkState::Probing) return;
            probe_failed();
        });
        if (probe_cb_) probe_cb_();
    });
}

void Reconnector::check_liveness() {
    if (!running_ || state_ != LinkState::Connected) return;
    if (params_.liveness_timeout <= sim::Time::zero()) return;
    if (clock_.now() - last_seen_ >= params_.liveness_timeout) begin_outage();
}

}  // namespace mvc::recovery
