// E12 (ablation) — content democratization under privacy screening (§3.3):
// "class participants ... are expected to contribute learning content";
// "we have to consider the appropriateness of content overlays under the
// privacy-preserving perspective".
//
// A breakout-heavy class generates contributions at the per-activity rates;
// we compare an unfiltered ledger against the privacy-screened one: what
// fraction of content gets blocked, what the screening costs in time, and
// how credits distribute across the class (the NFT/economics incentive).

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "session/session.hpp"
#include "sim/rng.hpp"

using namespace mvc;
using namespace mvc::session;

namespace {

ContentItem random_item(sim::Rng& rng, ParticipantId creator, bool risky_population) {
    static constexpr ContentKind kinds[] = {ContentKind::Slide, ContentKind::Annotation,
                                            ContentKind::Model3d, ContentKind::Recording,
                                            ContentKind::LabResult};
    ContentItem item;
    item.creator = creator;
    item.kind = kinds[rng.index(std::size(kinds))];
    item.scope = rng.chance(0.2) ? AudienceScope::Team : AudienceScope::Class;
    item.size_bytes = static_cast<std::size_t>(rng.uniform(1'000.0, 500'000.0));
    if (risky_population) {
        // A realistic share of overlays is anchored to people; only some of
        // those anchors consented.
        item.anchored_to_person = rng.chance(0.25);
        item.anchor_consent = rng.chance(0.5);
    }
    return item;
}

}  // namespace

int main() {
    bench::Session session{"e12"};
    session.set_seed(61);

    sim::Rng rng{61};
    constexpr std::size_t kStudents = 40;
    constexpr int kContributions = 20'000;

    // (a) screened session.
    ClassSession screened{"COMP4971"};
    std::vector<ParticipantId> roster;
    for (std::size_t i = 0; i < kStudents; ++i) roster.push_back(screened.enroll({}));
    int admitted = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kContributions; ++i) {
        const ParticipantId who = roster[rng.index(roster.size())];
        if (screened.contribute(random_item(rng, who, true)).has_value()) ++admitted;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double screened_us_per_item =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kContributions;

    // (b) unscreened baseline (permissive policy).
    sim::Rng rng2{61};
    ClassSession open{"COMP4971-open"};
    PrivacyPolicy lax;
    lax.person_anchors_need_consent = false;
    lax.recordings_need_approval = false;
    open.privacy() = PrivacyFilter{lax};
    std::vector<ParticipantId> roster2;
    for (std::size_t i = 0; i < kStudents; ++i) roster2.push_back(open.enroll({}));
    int admitted_open = 0;
    const auto t2 = std::chrono::steady_clock::now();
    for (int i = 0; i < kContributions; ++i) {
        const ParticipantId who = roster2[rng2.index(roster2.size())];
        if (open.contribute(random_item(rng2, who, true)).has_value()) ++admitted_open;
    }
    const auto t3 = std::chrono::steady_clock::now();
    const double open_us_per_item =
        std::chrono::duration<double, std::micro>(t3 - t2).count() / kContributions;

    session.record("screened / admitted_pct", 100.0 * admitted / kContributions);
    session.record("screened / blocked_ratio",
                   1.0 - static_cast<double>(admitted) / kContributions);
    session.record("permissive / admitted_pct", 100.0 * admitted_open / kContributions);
    session.count("permissive / blocked",
                  static_cast<std::uint64_t>(kContributions - admitted_open));
    session.timing("screened / us_per_item", screened_us_per_item);

    std::printf("\n%d contributions from %zu students:\n", kContributions, kStudents);
    std::printf("%-24s %10s %10s %14s\n", "policy", "admitted", "blocked", "us/item");
    std::printf("%-24s %9.1f%% %9.1f%% %14.3f\n", "privacy-screened",
                100.0 * admitted / kContributions,
                100.0 * (kContributions - admitted) / kContributions,
                screened_us_per_item);
    std::printf("%-24s %9.1f%% %9.1f%% %14.3f\n", "permissive",
                100.0 * admitted_open / kContributions,
                100.0 * (kContributions - admitted_open) / kContributions,
                open_us_per_item);

    std::printf("\ntop-5 contributors by credit (screened session):\n");
    const auto board = screened.ledger().leaderboard();
    for (std::size_t i = 0; i < std::min<std::size_t>(5, board.size()); ++i) {
        std::printf("  participant %-4u %8.1f credits\n", board[i].first.value(),
                    board[i].second);
    }

    // Screening blocks the unconsented/unapproved share (5-30%).
    session.gate({"screened / blocked_ratio.mean", 0.05, 0.30});
    // The permissive policy admits everything.
    session.gate({"permissive / blocked", {}, 0.0});
    // Screening costs under 2 us per item.
    session.gate({"screened / us_per_item.max", {}, 2.0});
    return session.finish();
}
