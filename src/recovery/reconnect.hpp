#pragma once
// Session-level reconnect state machine. One Reconnector watches one peer
// link: while Connected it expects periodic evidence of life (touch() per
// received packet or ack); when the link goes quiet past the liveness
// timeout — or the owner reports an explicit dead signal (ARQ give-up,
// heartbeat down) via suspect() — it enters an outage loop:
//
//     Connected --silence/suspect--> BackingOff --delay--> Probing
//         ^                              ^                    |
//         |                              +---- probe fails ---+
//         +-------------- probe succeeds --------------------+
//
// Probe spacing is the shared net::Backoff (exponential with decorrelated
// jitter, drawn from a named simulator RNG stream, so same-seed runs retry
// at identical times). The Reconnector never talks to the network itself:
// the owner supplies the probe action (typically a ResyncClient round trip)
// through on_probe and reports its outcome, which keeps the machine
// transport-agnostic and unit-testable.

#include <cstdint>
#include <functional>
#include <string>

#include "net/backoff.hpp"
#include "sim/clock.hpp"

namespace mvc::recovery {

enum class LinkState : std::uint8_t {
    Connected,   ///< recent evidence of life
    BackingOff,  ///< outage declared; waiting out the current backoff delay
    Probing,     ///< probe in flight; outcome decides the next state
};

struct ReconnectParams {
    /// Silence past this while Connected declares the peer dead. Zero
    /// disables the timer — only explicit suspect() calls start an outage.
    sim::Time liveness_timeout{sim::Time::seconds(2.0)};
    /// How often the liveness timer is evaluated while Connected.
    sim::Time check_interval{sim::Time::ms(250)};
    /// A probe with no verdict after this long counts as failed (covers
    /// probe transports that abandon silently).
    sim::Time probe_timeout{sim::Time::seconds(2.0)};
    /// Probe spacing.
    net::BackoffParams backoff{};
};

class Reconnector {
public:
    /// State-transition callback: old state, new state, and the number of
    /// probes attempted in the current outage (0 outside outages).
    using StateFn = std::function<void(LinkState from, LinkState to, int attempt)>;
    /// Fired on entry to Probing; the owner performs the actual probe and
    /// later calls probe_succeeded() or probe_failed().
    using ProbeFn = std::function<void()>;

    /// `name` scopes the backoff jitter RNG stream ("reconnect/<name>").
    Reconnector(sim::Clock& clock, ReconnectParams params, std::string name);
    ~Reconnector();

    Reconnector(const Reconnector&) = delete;
    Reconnector& operator=(const Reconnector&) = delete;

    void on_state(StateFn fn) { state_cb_ = std::move(fn); }
    void on_probe(ProbeFn fn) { probe_cb_ = std::move(fn); }

    /// Begin watching (starts Connected with the liveness clock at now).
    void start();
    void stop();

    /// Evidence of life from the peer. While Connected this feeds the
    /// liveness timer; during an outage it is ignored (stray packets do not
    /// end an outage — only a successful probe proves the path works and
    /// re-synchronises state).
    void touch();
    /// Explicit dead signal; immediately starts an outage when Connected.
    void suspect();
    /// Probe verdicts, reported by the owner's prober.
    void probe_succeeded();
    void probe_failed();

    [[nodiscard]] LinkState state() const { return state_; }
    [[nodiscard]] bool connected() const { return state_ == LinkState::Connected; }
    /// Probes attempted in the current outage.
    [[nodiscard]] int attempts() const { return attempts_; }
    /// Completed outage -> Connected recoveries.
    [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
    /// Outages declared (suspect or liveness expiry while Connected).
    [[nodiscard]] std::uint64_t outages() const { return outages_; }
    /// Duration of the most recently completed outage.
    [[nodiscard]] sim::Time last_outage() const { return last_outage_; }

private:
    sim::Clock& clock_;
    ReconnectParams params_;
    std::string name_;
    net::Backoff backoff_;
    StateFn state_cb_;
    ProbeFn probe_cb_;
    LinkState state_{LinkState::Connected};
    bool running_{false};
    sim::Time last_seen_{};
    sim::Time outage_started_{};
    sim::Time last_outage_{};
    int attempts_{0};
    std::uint64_t reconnects_{0};
    std::uint64_t outages_{0};
    std::uint64_t epoch_{0};  ///< invalidates in-flight timer closures
    sim::EventHandle check_task_;

    void transition(LinkState to);
    void begin_outage();
    void schedule_probe();
    void check_liveness();
};

}  // namespace mvc::recovery
