#include "media/video.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace mvc::media {

VideoProfile profile_180p() { return {320, 180, 15.0, 0.3e6, 30, 6.0}; }
VideoProfile profile_360p() { return {640, 360, 30.0, 0.8e6, 60, 6.0}; }
VideoProfile profile_720p() { return {1280, 720, 30.0, 2.5e6, 60, 6.0}; }
VideoProfile profile_1080p() { return {1920, 1080, 30.0, 5.0e6, 60, 6.0}; }
VideoProfile profile_slides() { return {1920, 1080, 5.0, 1.0e6, 25, 3.0}; }

std::vector<VideoProfile> default_ladder() {
    return {profile_180p(), profile_360p(), profile_720p(), profile_1080p()};
}

double encode_psnr_db(const VideoProfile& p) {
    // Log rate-distortion: quality grows with bits-per-pixel-per-frame.
    const double pixels_per_second =
        static_cast<double>(p.width) * static_cast<double>(p.height) * p.fps;
    const double bpp = p.bitrate_bps / pixels_per_second;
    const double psnr = 38.0 + 6.5 * std::log2(bpp / 0.1);
    return std::clamp(psnr, 20.0, 50.0);
}

VideoSource::VideoSource(sim::Clock& clock, std::string name, VideoProfile profile,
                         FrameFn emit)
    : sim_(clock),
      name_(std::move(name)),
      profile_(profile),
      emit_(std::move(emit)),
      rng_(clock.rng_stream("video/" + name_)) {
    if (profile_.fps <= 0.0) throw std::invalid_argument("VideoSource: fps must be positive");
    if (!emit_) throw std::invalid_argument("VideoSource: null sink");
}

void VideoSource::start() {
    if (running_) return;
    running_ = true;
    task_ = sim_.schedule_every(sim::Time::seconds(1.0 / profile_.fps),
                                [this] { produce(); });
}

void VideoSource::stop() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(task_);
}

void VideoSource::set_profile(VideoProfile profile) {
    if (profile.fps <= 0.0)
        throw std::invalid_argument("VideoSource: fps must be positive");
    const bool fps_changed = profile.fps != profile_.fps;
    profile_ = profile;
    force_keyframe_ = true;
    if (running_ && fps_changed) {
        sim_.cancel(task_);
        task_ = sim_.schedule_every(sim::Time::seconds(1.0 / profile_.fps),
                                    [this] { produce(); });
    }
}

void VideoSource::produce() {
    VideoFrame f;
    f.index = next_index_++;
    f.keyframe = force_keyframe_ || (profile_.keyframe_interval > 0 &&
                                     f.index % profile_.keyframe_interval == 0);
    force_keyframe_ = false;
    f.captured_at = sim_.now();

    // Budget per GOP: keyframe takes `boost` shares, the rest one share each.
    const double gop = static_cast<double>(std::max(1u, profile_.keyframe_interval));
    const double shares = profile_.keyframe_boost + (gop - 1.0);
    const double gop_bytes = profile_.bitrate_bps / 8.0 * gop / profile_.fps;
    const double mean_bytes =
        gop_bytes * (f.keyframe ? profile_.keyframe_boost : 1.0) / shares;
    // Content-dependent dispersion: lognormal around the mean (sigma 0.25).
    const double dispersion = std::exp(rng_.normal(0.0, 0.25));
    f.size_bytes = static_cast<std::size_t>(std::max(64.0, mean_bytes * dispersion));

    emit_(std::move(f));
}

std::vector<VideoPacket> packetize(const VideoFrame& frame) {
    const auto pieces = static_cast<std::uint32_t>(
        (frame.size_bytes + kVideoMtu - 1) / kVideoMtu);
    std::vector<VideoPacket> out;
    out.reserve(pieces);
    std::size_t remaining = frame.size_bytes;
    for (std::uint32_t i = 0; i < pieces; ++i) {
        VideoPacket p;
        p.frame_index = frame.index;
        p.piece = i;
        p.piece_count = pieces;
        p.keyframe = frame.keyframe;
        p.size_bytes = std::min(remaining, kVideoMtu);
        p.captured_at = frame.captured_at;
        remaining -= p.size_bytes;
        out.push_back(p);
    }
    return out;
}

double PlaybackStats::delivered_quality_db(const VideoProfile& p,
                                           double stream_seconds) const {
    const double total = static_cast<double>(frames_complete + frames_missed);
    if (total == 0.0) return 0.0;
    const double complete_ratio = static_cast<double>(frames_complete) / total;
    const double freeze_ratio =
        stream_seconds > 0.0 ? std::min(1.0, freeze_seconds / stream_seconds) : 0.0;
    // Full quality at 100% completion; missed frames and freeze time both
    // drag the effective PSNR down toward the 20 dB floor.
    const double base = encode_psnr_db(p);
    return 20.0 + (base - 20.0) * complete_ratio * (1.0 - 0.5 * freeze_ratio);
}

VideoReceiver::VideoReceiver(sim::Clock& clock, VideoProfile profile,
                             sim::Time playout_delay)
    : sim_(clock), profile_(profile), playout_delay_(playout_delay) {}

void VideoReceiver::ingest(const VideoPacket& packet) {
    auto [it, inserted] = pending_.try_emplace(packet.frame_index);
    Pending& f = it->second;
    if (inserted) {
        f.piece_count = packet.piece_count;
        f.seen.assign(packet.piece_count, false);
        f.captured_at = packet.captured_at;
        f.keyframe = packet.keyframe;
        const std::uint64_t idx = packet.frame_index;
        const sim::Time deadline = packet.captured_at + playout_delay_;
        f.deadline = sim_.schedule_at(std::max(deadline, sim_.now()),
                                      [this, idx] { expire(idx); });
    }
    if (f.done || packet.piece >= f.seen.size() || f.seen[packet.piece]) return;
    f.seen[packet.piece] = true;
    ++f.pieces_seen;
    if (f.pieces_seen == f.piece_count) {
        f.done = true;
        sim_.cancel(f.deadline);
        ++stats_.frames_complete;
        stats_.frame_delay_ms.add((sim_.now() - f.captured_at).to_ms());
        highest_complete_ = std::max(highest_complete_, packet.frame_index);
    }
}

void VideoReceiver::expire(std::uint64_t frame_index) {
    const auto it = pending_.find(frame_index);
    if (it == pending_.end() || it->second.done) return;
    it->second.done = true;
    ++stats_.frames_missed;
    stats_.freeze_seconds += 1.0 / profile_.fps;
}

void VideoReceiver::finish() {
    for (auto& [idx, f] : pending_) {
        if (!f.done) {
            f.done = true;
            sim_.cancel(f.deadline);
            ++stats_.frames_missed;
            stats_.freeze_seconds += 1.0 / profile_.fps;
        }
    }
}

}  // namespace mvc::media
