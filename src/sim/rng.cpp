#include "sim/rng.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "common/hash.hpp"

namespace mvc::sim {

namespace {

// 256-layer ziggurat for the standard normal (Marsaglia & Tsang, "The
// Ziggurat Method for Generating Random Variables", JSS 2000). With
// f(x) = exp(-x^2/2), layer 0 is the rectangle [0, r] x [0, f(r)] plus the
// tail beyond r, and layer i >= 1 is [0, x[i]] x [f(x[i]), f(x[i+1])]; all
// 256 have the same area v. x[1] = r, x[i+1] = sqrt(-2 ln(v / x[i] + f(x[i]))),
// x[256] = 0, and x[0] = v / f(r) is layer 0's width as if it were a
// rectangle. r is the value for which the recurrence closes at the top.
constexpr double kTailStart = 3.6541528853610088;  // r
constexpr std::size_t kLayers = 256;

double density(double x) { return std::exp(-0.5 * x * x); }

struct Ziggurat {
    /// 2^53 * x[i+1] / x[i]: a 53-bit uniform below it lands under the curve.
    std::array<std::uint64_t, kLayers> inner;
    /// x[i] / 2^53: scales a 53-bit uniform onto the layer's width.
    std::array<double, kLayers> width;
    /// f(x[i]), with f(x[256]) = f(0) = 1 closing the top layer.
    std::array<double, kLayers + 1> height;
};

const Ziggurat& ziggurat() {
    static const Ziggurat z = [] {
        const double r = kTailStart;
        const double area =
            r * density(r) + std::sqrt(std::numbers::pi / 2.0) * std::erfc(r / std::sqrt(2.0));
        std::array<double, kLayers + 1> x{};
        x[0] = area / density(r);
        x[1] = r;
        for (std::size_t i = 1; i + 1 < kLayers; ++i)
            x[i + 1] = std::sqrt(-2.0 * std::log(area / x[i] + density(x[i])));
        x[kLayers] = 0.0;
        Ziggurat t{};
        for (std::size_t i = 0; i < kLayers; ++i) {
            t.inner[i] = static_cast<std::uint64_t>(x[i + 1] / x[i] * 0x1p53);
            t.width[i] = x[i] * 0x1p-53;
            t.height[i] = density(x[i]);
        }
        t.height[kLayers] = 1.0;
        return t;
    }();
    return z;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::string_view label) {
    // FNV-1a digest of the label, mixed with the seed. Stable across
    // platforms (no std::hash, whose value is unspecified).
    return common::mix64(seed ^ common::Hash64{}.bytes(label.data(), label.size()).digest());
}

Rng Rng::stream(std::string_view name) const { return Rng{derive_seed(base_seed_, name)}; }

double Rng::uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
}

double Rng::uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
}

double Rng::normal(double mean, double stddev) {
    if (stddev <= 0.0) return mean;
    const Ziggurat& z = ziggurat();
    for (;;) {
        // One output: layer in bits 0-7, sign in bit 8, uniform in bits 11-63.
        const std::uint64_t bits = engine_();
        const std::size_t layer = bits & (kLayers - 1);
        const bool negative = ((bits >> 8) & 1U) != 0;
        const std::uint64_t u = bits >> 11;
        double x = static_cast<double>(u) * z.width[layer];
        if (u >= z.inner[layer]) {
            if (layer == 0) {
                // Tail beyond r (Marsaglia 1964); log1p(-u) = log(1 - u)
                // keeps the log off 0.
                double a = 0.0;
                double b = 0.0;
                do {
                    a = -std::log1p(-uniform()) / kTailStart;
                    b = -std::log1p(-uniform());
                } while (b + b < a * a);
                x = kTailStart + a;
            } else if (z.height[layer] +
                           uniform() * (z.height[layer + 1] - z.height[layer]) >=
                       density(x)) {
                continue;  // above the curve in the wedge: redraw
            }
        }
        return mean + stddev * (negative ? -x : x);
    }
}

double Rng::exponential(double mean) {
    if (mean <= 0.0) return 0.0;
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
}

bool Rng::chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

double Rng::pareto(double xm, double alpha) {
    // Inverse-CDF sampling; guard the log singularity at u == 0.
    const double u = std::max(uniform(), 1e-12);
    return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::index(std::size_t n) {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace mvc::sim
