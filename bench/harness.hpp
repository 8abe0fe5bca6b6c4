#pragma once
// Builder that turns a registry id into a ready-to-use Session. The banner
// title and claim come from tools/experiment_registry.hpp — the same table
// behind `metaclass_scenario experiments` — so a bench's main() declares only
// what actually varies (the id and the scenario seed) and the registry stays
// the single source of truth for what each experiment demonstrates.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench/bench_util.hpp"
#include "tools/experiment_registry.hpp"

namespace mvc::bench {

/// Registry entry for `id`; throws for ids the registry does not know, so a
/// bench can never ship under an undocumented name.
[[nodiscard]] inline const tools::Experiment& experiment_info(std::string_view id) {
    for (const tools::Experiment& e : tools::kExperiments) {
        if (id == e.id) return e;
    }
    throw std::invalid_argument("bench::Harness: unknown experiment id: " +
                                std::string{id});
}

class Harness {
public:
    explicit Harness(std::string_view id) : info_(experiment_info(id)) {}

    Harness(const Harness&) = delete;
    Harness& operator=(const Harness&) = delete;

    /// Stamp the scenario seed (kept if called before or after session()).
    Harness& seed(std::uint64_t s) {
        seed_ = s;
        if (session_) session_->set_seed(s);
        return *this;
    }

    /// The Session for this experiment; banner prints on first call.
    [[nodiscard]] Session& session() {
        if (!session_) {
            session_.emplace(info_.id, info_.title, info_.claim);
            if (seed_) session_->set_seed(*seed_);
        }
        return *session_;
    }

    [[nodiscard]] const tools::Experiment& info() const { return info_; }

private:
    const tools::Experiment& info_;
    std::optional<std::uint64_t> seed_;
    std::optional<Session> session_;
};

}  // namespace mvc::bench
