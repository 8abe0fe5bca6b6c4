#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "math/pose.hpp"
#include "math/quat.hpp"
#include "math/stats.hpp"
#include "math/vec3.hpp"

namespace mvc::math {

std::ostream& operator<<(std::ostream& os, const Vec3& v) {
    return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

std::ostream& operator<<(std::ostream& os, const Quat& q) {
    return os << '[' << q.w << "; " << q.x << ", " << q.y << ", " << q.z << ']';
}

std::ostream& operator<<(std::ostream& os, const Pose& p) {
    return os << "{pos=" << p.position << " rot=" << p.orientation << '}';
}

Quat slerp(const Quat& a_in, const Quat& b_in, double t) {
    Quat a = a_in.normalized();
    Quat b = b_in.normalized();
    double cos_omega = a.dot(b);
    // Take the shortest arc: q and -q are the same rotation.
    if (cos_omega < 0.0) {
        b = {-b.w, -b.x, -b.y, -b.z};
        cos_omega = -cos_omega;
    }
    // Nearly parallel: fall back to nlerp to avoid division by sin(~0).
    if (cos_omega > 0.9995) {
        const Quat r{a.w + (b.w - a.w) * t, a.x + (b.x - a.x) * t,
                     a.y + (b.y - a.y) * t, a.z + (b.z - a.z) * t};
        return r.normalized();
    }
    const double omega = std::acos(std::clamp(cos_omega, -1.0, 1.0));
    const double sin_omega = std::sin(omega);
    const double ka = std::sin((1.0 - t) * omega) / sin_omega;
    const double kb = std::sin(t * omega) / sin_omega;
    return Quat{ka * a.w + kb * b.w, ka * a.x + kb * b.x, ka * a.y + kb * b.y,
                ka * a.z + kb * b.z}
        .normalized();
}

Pose interpolate(const Pose& a, const Pose& b, double t) {
    return {lerp(a.position, b.position, t), slerp(a.orientation, b.orientation, t)};
}

double pose_error(const Pose& a, const Pose& b, double angle_weight) {
    return a.position.distance_to(b.position) +
           angle_weight * angular_distance(a.orientation, b.orientation);
}

KinematicState KinematicState::extrapolate(double dt) const {
    KinematicState out = *this;
    out.pose.position = pose.position + linear_velocity * dt;
    const double w = angular_velocity.norm();
    if (w > 1e-12) {
        const Quat spin = Quat::from_axis_angle(angular_velocity / w, w * dt);
        out.pose.orientation = (spin * pose.orientation).normalized();
    }
    return out;
}

// ---------------------------------------------------------------- RunningStats

void RunningStats::add(double x) {
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

// ---------------------------------------------------------------- SampleSeries

void SampleSeries::ensure_sorted() const {
    if (sorted_valid_ && sorted_.size() == samples_.size()) return;
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
}

double SampleSeries::mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
}

double SampleSeries::min() const {
    ensure_sorted();
    return sorted_.empty() ? 0.0 : sorted_.front();
}

double SampleSeries::max() const {
    ensure_sorted();
    return sorted_.empty() ? 0.0 : sorted_.back();
}

double SampleSeries::quantile(double q) const {
    ensure_sorted();
    return quantile_of(sorted_, q);
}

double quantile_of(std::span<const double> xs, double q) {
    if (xs.empty()) return 0.0;
    if (xs.size() == 1) return xs[0];
    q = std::clamp(q, 0.0, 1.0);
    // Assumes xs sorted when called from SampleSeries; sort a copy otherwise.
    std::vector<double> tmp;
    const double* data = xs.data();
    if (!std::is_sorted(xs.begin(), xs.end())) {
        tmp.assign(xs.begin(), xs.end());
        std::sort(tmp.begin(), tmp.end());
        data = tmp.data();
    }
    const double idx = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return data[lo] + (data[hi] - data[lo]) * frac;
}

// ------------------------------------------------------------------------ Ewma

Ewma::Ewma(double alpha) : alpha_(alpha) {
    if (alpha <= 0.0 || alpha > 1.0) throw std::invalid_argument("Ewma: alpha in (0,1]");
}

void Ewma::add(double x) {
    if (!initialized_) {
        value_ = x;
        initialized_ = true;
    } else {
        value_ += alpha_ * (x - value_);
    }
}

void Ewma::reset() {
    value_ = 0.0;
    initialized_ = false;
}

}  // namespace mvc::math
