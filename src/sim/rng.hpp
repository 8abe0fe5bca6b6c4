#pragma once
// Deterministic random-number streams. Every stochastic model in the
// simulation draws from a named stream derived from the run seed, so two
// runs with the same seed are bit-identical regardless of how many other
// models exist or in which order they are constructed.
//
// Determinism contract (what record/replay relies on):
//  1. Stream *creation* is a pure function of (root seed, stream name):
//     derive_seed hashes the name and mixes it with the seed, consuming no
//     randomness from any parent stream. Creating streams in a different
//     order — or creating extra streams — can never perturb a sibling's
//     draw sequence. (Regression-tested in sim_test.)
//  2. Draws *within* one stream are order-sensitive: a stream is a single
//     MT19937-64 engine, so reproducing a run requires each named stream's draw
//     sequence to be issued in the same order. In practice this falls out
//     of the event loop's total order — models only draw from event
//     callbacks, and the (time, seq) order is deterministic.
//  3. A draw may consume a variable number of engine outputs: `normal`'s
//     ziggurat takes one about 99% of the time and more in its wedges and
//     tail, and `uniform_int` may reject. The count, like the value, is a
//     pure function of the stream's history, so a copied stream continues
//     identically.
//  4. Corollary: never share one stream between two models whose relative
//     execution order is not fixed by the event loop; give each model its
//     own name instead. Names are cheap and collision-resistant.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mvc::sim {

/// MT19937-64 (Matsumoto & Nishimura) with the reference seeding and
/// tempering, so it yields exactly std::mt19937_64's sequence. Its twist
/// picks the matrix term with a mask where libstdc++ branches on the low
/// bit of each word, a coin flip the branch predictor loses half the time.
class Mt19937_64 {
public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kWords = 312;

    explicit Mt19937_64(result_type seed);

    [[nodiscard]] static constexpr result_type min() { return 0; }
    [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() {
        if (next_ == kWords) twist();
        result_type y = state_[next_++];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
        y ^= (y << 37) & 0xFFF7EEE000000000ULL;
        return y ^ (y >> 43);
    }

private:
    void twist();

    std::array<result_type, kWords> state_;
    std::size_t next_{kWords};
};

/// One random stream. Thin wrapper over an MT19937-64 engine with the
/// distributions the models need; constructed via Rng::stream() in normal use.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed), base_seed_(seed) {}

    /// Derive an independent child stream from this one, keyed by name.
    /// Uses splitmix-style mixing of the name hash so sibling streams do
    /// not correlate.
    [[nodiscard]] Rng stream(std::string_view name) const;

    /// Uniform in [0, 1).
    [[nodiscard]] double uniform();
    /// Uniform in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);
    /// Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
    /// Normal with the given mean and standard deviation; stddev <= 0
    /// returns the mean. Sampled with a 256-layer ziggurat on the engine.
    [[nodiscard]] double normal(double mean, double stddev);
    /// Exponential with the given mean (= 1/rate); mean <= 0 returns 0.
    [[nodiscard]] double exponential(double mean);
    /// Bernoulli trial with probability p (clamped to [0,1]).
    [[nodiscard]] bool chance(double p);
    /// Pareto-distributed value with scale xm > 0 and shape alpha > 0
    /// (heavy tail used for WAN jitter spikes and think-time bursts).
    [[nodiscard]] double pareto(double xm, double alpha);

    /// Pick a uniformly random index in [0, n); n must be > 0.
    [[nodiscard]] std::size_t index(std::size_t n);

    [[nodiscard]] std::uint64_t raw() { return engine_(); }

private:
    Mt19937_64 engine_;
    std::uint64_t base_seed_{0};
};

/// Mixes a seed and a label into a child seed (splitmix64 finalizer).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view label);

}  // namespace mvc::sim
