// E20 — chaos soak: the classroom model under a scripted adversity timeline
// (net::ChaosBackend driven by a FaultPlan) with the reconnect hardening on.
//
// The whole deployment — relay + N reconnect-hardened VrClients on the chaos
// backend, the control ARQ pair, the lossy windows and the partition — is
// declared in scenarios/chaos_soak.scenario.json; this bench loads the spec,
// attaches the client0 staleness/recovery probes, and evaluates the gates.
// Timeline (sim time):
//
//   [ 0s,  5s)  clean      — baseline staleness
//   [ 5s, 10s)  lossy      — Gilbert–Elliott burst loss (~21% avg), jitter,
//                            duplication, reordering, and in-flight
//                            corruption on every client<->relay direction;
//                            the self-adaptation ladder sheds fidelity
//   [10s, 14s)  partition  — client0 fully blackholed from the relay; its
//                            reconnector detects the outage, pauses
//                            publishing, and probes with backed-off resyncs
//   [14s, 22s)  heal       — first probe through the healed path lands a
//                            snapshot; client0 resumes and staleness
//                            converges; the ladder steps back to full
//
// Gates (exit code drives tools/ci.sh --chaos):
//   - control ARQ stream delivers >= 99% exactly-once despite the lossy
//     window (it is never partitioned);
//   - client0 declares the outage, then recovers within the budget after
//     the heal (resync applied, reconnector Connected);
//   - post-heal staleness converges back to the clean baseline's ballpark;
//   - the ladder engages during the lossy window and ends at level 0;
//   - two same-seed runs produce byte-identical per-epoch avatar state-hash
//     streams (the chaos draws are part of the deterministic event order).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "net/chaos.hpp"
#include "scenario/runner.hpp"

using namespace mvc;

namespace {

constexpr double kLossyStartS = 5.0;
constexpr double kPartitionStartS = 10.0;
constexpr double kHealS = 14.0;
constexpr double kRecoveryBudgetS = 3.0;  // heal -> client0 back in session

struct SoakResult {
    std::vector<std::uint64_t> hashes;  // per-epoch avatar state hashes
    std::uint64_t ctrl_sent{0};
    std::uint64_t ctrl_delivered{0};
    std::uint64_t outages{0};
    std::uint64_t reconnects{0};
    std::uint64_t resyncs{0};
    double detect_s{-1.0};    // partition declared down (abs sim s)
    double recovered_s{-1.0};  // post-heal: connected again (abs sim s)
    int max_degradation{0};
    int final_degradation{0};
    math::SampleSeries clean_staleness_ms;
    math::SampleSeries heal_staleness_ms;
    std::uint64_t chaos_dropped{0};
    std::uint64_t chaos_duplicated{0};
    std::uint64_t chaos_corrupted{0};
    std::uint64_t chaos_blackholed{0};
    std::uint64_t relay_served{0};
};

SoakResult run_soak(const scenario::ScenarioSpec& spec) {
    SoakResult r;
    const std::unique_ptr<scenario::ScenarioWorld> world = scenario::build(spec);

    // ------------------------------------------------------------- probes
    cloud::VrClient& c0 = world->client(0);
    sim::Simulator& sim = world->simulator();
    std::uint64_t last_rx = 0;
    sim::Time last_update = sim::Time::zero();
    sim.schedule_every(sim::Time::ms(20), [&] {
        const sim::Time now = sim.now();
        const double now_s = now.to_seconds();
        if (c0.updates_received() != last_rx) {
            last_rx = c0.updates_received();
            last_update = now;
        }
        const double staleness_ms = (now - last_update).to_ms();
        if (now_s >= 1.0 && now_s < kLossyStartS) {
            r.clean_staleness_ms.add(staleness_ms);
        } else if (now_s >= kHealS + kRecoveryBudgetS) {
            r.heal_staleness_ms.add(staleness_ms);
        }
        if (now_s >= kPartitionStartS && now_s < kHealS && r.detect_s < 0.0 &&
            c0.reconnector() != nullptr && !c0.reconnector()->connected()) {
            r.detect_s = now_s;
        }
        if (now_s >= kHealS && r.recovered_s < 0.0 && c0.reconnector() != nullptr &&
            c0.reconnector()->connected() && c0.resyncs_applied() > 0) {
            r.recovered_s = now_s;
        }
        for (std::size_t i = 0; i < world->client_count(); ++i)
            r.max_degradation =
                std::max(r.max_degradation, world->client(i).degradation_level());
    });

    world->run();

    for (std::size_t i = 0; i < world->client_count(); ++i) {
        const cloud::VrClient& c = world->client(i);
        if (const recovery::Reconnector* rec = c.reconnector()) {
            r.outages += rec->outages();
            r.reconnects += rec->reconnects();
        }
        r.resyncs += c.resyncs_applied();
        r.final_degradation = std::max(r.final_degradation, c.degradation_level());
    }
    r.hashes = world->hashes();
    r.ctrl_sent = world->ctrl_sent();
    r.ctrl_delivered = world->ctrl_delivered();
    const net::ChaosBackend& chaos = *world->chaos();
    r.chaos_dropped = chaos.dropped();
    r.chaos_duplicated = chaos.duplicated();
    r.chaos_corrupted = chaos.corrupted();
    r.chaos_blackholed = chaos.blackholed();
    if (const recovery::ResyncResponder* rr = world->relay().resync_responder())
        r.relay_served = rr->served();
    world->stop();
    return r;
}

}  // namespace

int main() {
    bench::Session session{"e20"};

    scenario::ScenarioSpec spec = scenario::load_spec_file(
        std::string{METACLASS_SCENARIO_DIR} + "/chaos_soak.scenario.json");
    session.set_seed(spec.seed);

    const bool quick = std::getenv("E20_QUICK") != nullptr;
    if (quick) {
        spec.relay.clients.at(0).count = 4;
        scenario::validate_spec(spec);
    }
    const std::size_t clients_n = spec.relay.clients.at(0).count;

    std::printf("\nchaos soak: relay + %zu reconnect-hardened clients, "
                "clean -> lossy -> partition -> heal (%.0f s sim)\n",
                clients_n, spec.duration.to_seconds());
    const SoakResult a = run_soak(spec);
    const SoakResult b = run_soak(spec);  // same seed: must be identical

    const double delivery = a.ctrl_sent == 0
                                ? 0.0
                                : static_cast<double>(a.ctrl_delivered) /
                                      static_cast<double>(a.ctrl_sent);
    const double detect_ms = (a.detect_s - kPartitionStartS) * 1e3;
    const double recovery_ms = (a.recovered_s - kHealS) * 1e3;
    const double clean_p95 = a.clean_staleness_ms.p95();
    const double heal_p95 = a.heal_staleness_ms.p95();

    std::printf("\ninjected adversity: dropped=%llu duplicated=%llu "
                "corrupted=%llu blackholed=%llu\n",
                static_cast<unsigned long long>(a.chaos_dropped),
                static_cast<unsigned long long>(a.chaos_duplicated),
                static_cast<unsigned long long>(a.chaos_corrupted),
                static_cast<unsigned long long>(a.chaos_blackholed));
    std::printf("control ARQ: %llu sent, %llu delivered (%.4f)\n",
                static_cast<unsigned long long>(a.ctrl_sent),
                static_cast<unsigned long long>(a.ctrl_delivered), delivery);
    std::printf("client0 reconnect: detect %+.0f ms into partition, recovered "
                "%+.0f ms after heal (outages=%llu reconnects=%llu resyncs=%llu "
                "relay served=%llu)\n",
                detect_ms, recovery_ms,
                static_cast<unsigned long long>(a.outages),
                static_cast<unsigned long long>(a.reconnects),
                static_cast<unsigned long long>(a.resyncs),
                static_cast<unsigned long long>(a.relay_served));
    std::printf("staleness p95: clean %.1f ms, post-heal %.1f ms\n", clean_p95,
                heal_p95);
    std::printf("self-adaptation: max level %d during lossy window, final %d\n",
                a.max_degradation, a.final_degradation);

    session.record("ctrl_delivery_ratio", delivery);
    session.record("detect_ms", detect_ms);
    session.record("recovery_ms", recovery_ms);
    session.record("clean_staleness_p95_ms", clean_p95);
    session.record("heal_staleness_p95_ms", heal_p95);
    session.record("degradation_max_level", a.max_degradation);
    session.record("degradation_final_level", a.final_degradation);
    session.count("chaos_dropped", a.chaos_dropped);
    session.count("chaos_duplicated", a.chaos_duplicated);
    session.count("chaos_corrupted", a.chaos_corrupted);
    session.count("chaos_blackholed", a.chaos_blackholed);
    session.count("resyncs_applied", a.resyncs);
    session.count("hash_epochs", a.hashes.size());

    // ------------------------------------------------------------------ gates
    const bool chaos_ok = a.chaos_dropped > 0 && a.chaos_duplicated > 0 &&
                          a.chaos_corrupted > 0 && a.chaos_blackholed > 0;
    const bool delivery_ok = delivery >= 0.99;
    const bool outage_ok = a.detect_s > 0.0 && a.outages >= 1;
    const bool recovery_ok = a.recovered_s > 0.0 &&
                             a.recovered_s - kHealS <= kRecoveryBudgetS &&
                             a.resyncs >= 1 && a.relay_served >= 1;
    const bool staleness_ok =
        heal_p95 <= std::max(clean_p95, 1.0) * 3.0 + 50.0;
    const bool degrade_ok = a.max_degradation >= 1 && a.final_degradation == 0;
    const bool deterministic =
        !a.hashes.empty() && a.hashes == b.hashes &&
        a.ctrl_delivered == b.ctrl_delivered && a.chaos_dropped == b.chaos_dropped;

    session.count("gate / chaos_injected", chaos_ok ? 1 : 0);
    session.count("gate / ctrl_delivery_ok", delivery_ok ? 1 : 0);
    session.count("gate / outage_detected", outage_ok ? 1 : 0);
    session.count("gate / recovery_ok", recovery_ok ? 1 : 0);
    session.count("gate / staleness_converged", staleness_ok ? 1 : 0);
    session.count("gate / degradation_recovered", degrade_ok ? 1 : 0);
    session.count("gate / deterministic", deterministic ? 1 : 0);

    std::printf("\nexpected shape: every chaos mode actually fired -> %s\n",
                chaos_ok ? "PASS" : "FAIL");
    std::printf("expected shape: control ARQ delivery >= 0.99 through the lossy "
                "window -> %s (%.4f)\n",
                delivery_ok ? "PASS" : "FAIL", delivery);
    std::printf("expected shape: partition detected as an outage -> %s "
                "(%+.0f ms)\n",
                outage_ok ? "PASS" : "FAIL", detect_ms);
    std::printf("expected shape: resync-led recovery within %.1f s of heal -> %s "
                "(%+.0f ms)\n",
                kRecoveryBudgetS, recovery_ok ? "PASS" : "FAIL", recovery_ms);
    std::printf("expected shape: post-heal staleness back near baseline -> %s "
                "(p95 %.1f ms vs clean %.1f ms)\n",
                staleness_ok ? "PASS" : "FAIL", heal_p95, clean_p95);
    std::printf("expected shape: ladder sheds under loss and fully recovers -> "
                "%s (max %d, final %d)\n",
                degrade_ok ? "PASS" : "FAIL", a.max_degradation,
                a.final_degradation);
    std::printf("expected shape: same seed -> byte-identical hash stream -> %s "
                "(%zu epochs)\n",
                deterministic ? "PASS" : "FAIL", a.hashes.size());

    return chaos_ok && delivery_ok && outage_ok && recovery_ok &&
                   staleness_ok && degrade_ok && deterministic
               ? 0
               : 1;
}
