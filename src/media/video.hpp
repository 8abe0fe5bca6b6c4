#pragma once
// Synthetic video pipeline for classroom streams (instructor camera, slides,
// whiteboard). Substitutes a real codec with a rate-distortion model:
// frame sizes follow the configured bitrate ladder (keyframes boosted,
// P-frames log-normally dispersed), and delivered quality is estimated from
// encoded bitrate via a log R-D curve minus freeze penalties for frames that
// missed their deadline. This keeps E2 (traffic) and E7 (FEC-vs-ARQ)
// faithful to what matters: sizes, timing, and loss sensitivity.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "math/stats.hpp"
#include "sim/rng.hpp"
#include "sim/clock.hpp"

namespace mvc::media {

struct VideoProfile {
    std::uint32_t width{1280};
    std::uint32_t height{720};
    double fps{30.0};
    double bitrate_bps{2.5e6};
    /// One keyframe every N frames.
    std::uint32_t keyframe_interval{60};
    /// Keyframes are this many times larger than the average frame.
    double keyframe_boost{6.0};
};

/// Thumbnail rung for heavily throttled links (the ABR floor).
[[nodiscard]] VideoProfile profile_180p();
[[nodiscard]] VideoProfile profile_360p();
[[nodiscard]] VideoProfile profile_720p();
[[nodiscard]] VideoProfile profile_1080p();
/// Slides/whiteboard: low fps, high resolution, keyframe-heavy.
[[nodiscard]] VideoProfile profile_slides();

/// The bitrate ladder adaptive streaming picks rungs on, lowest first
/// (180p -> 360p -> 720p -> 1080p).
[[nodiscard]] std::vector<VideoProfile> default_ladder();

/// Estimated encode quality in PSNR dB from the rate-distortion log model
/// (clamped to a plausible 20-50 dB band).
[[nodiscard]] double encode_psnr_db(const VideoProfile& p);

struct VideoFrame {
    std::uint64_t index{0};
    bool keyframe{false};
    std::size_t size_bytes{0};
    sim::Time captured_at{};
};

/// Produces the frame sequence at the profile's rate.
class VideoSource {
public:
    using FrameFn = std::function<void(VideoFrame&&)>;

    VideoSource(sim::Clock& clock, std::string name, VideoProfile profile, FrameFn emit);

    void start();
    void stop();

    /// Switch the encode profile in place (ABR rung change): the frame index
    /// keeps counting, the producer tick re-arms at the new fps, and the next
    /// frame is forced to be a keyframe (codec restart semantics).
    void set_profile(VideoProfile profile);

    [[nodiscard]] const VideoProfile& profile() const { return profile_; }
    [[nodiscard]] std::uint64_t frames_produced() const { return next_index_; }

private:
    sim::Clock& sim_;
    std::string name_;
    VideoProfile profile_;
    FrameFn emit_;
    sim::Rng rng_;
    sim::EventHandle task_;
    bool running_{false};
    bool force_keyframe_{false};
    std::uint64_t next_index_{0};

    void produce();
};

/// Slice of a frame sized to the wire MTU.
struct VideoPacket {
    std::uint64_t frame_index{0};
    std::uint32_t piece{0};
    std::uint32_t piece_count{0};
    bool keyframe{false};
    std::size_t size_bytes{0};
    sim::Time captured_at{};
};

inline constexpr std::size_t kVideoMtu = 1200;

/// Split a frame into MTU-sized packets.
[[nodiscard]] std::vector<VideoPacket> packetize(const VideoFrame& frame);

struct PlaybackStats {
    std::uint64_t frames_complete{0};
    std::uint64_t frames_missed{0};  // deadline passed incomplete
    math::SampleSeries frame_delay_ms;
    double freeze_seconds{0.0};
    /// Delivered quality: encode PSNR scaled by the completed-frame ratio and
    /// penalised for freezes (simple but monotone in the right things).
    [[nodiscard]] double delivered_quality_db(const VideoProfile& p,
                                              double stream_seconds) const;
};

/// Receiver-side reassembly and deadline accounting. Frames are played at
/// capture time + `playout_delay`; a frame not fully received by then counts
/// as missed and freezes playback until the next complete frame.
class VideoReceiver {
public:
    VideoReceiver(sim::Clock& clock, VideoProfile profile, sim::Time playout_delay);

    /// Ingest a (possibly reordered/duplicated) packet that just arrived.
    void ingest(const VideoPacket& packet);
    /// Close accounting at end of run (expires frames still pending).
    void finish();

    [[nodiscard]] const PlaybackStats& stats() const { return stats_; }
    [[nodiscard]] sim::Time playout_delay() const { return playout_delay_; }

private:
    struct Pending {
        std::uint32_t pieces_seen{0};
        std::uint32_t piece_count{0};
        std::vector<bool> seen;
        sim::Time captured_at{};
        bool keyframe{false};
        bool done{false};
        sim::EventHandle deadline;
    };

    sim::Clock& sim_;
    VideoProfile profile_;
    sim::Time playout_delay_;
    std::map<std::uint64_t, Pending> pending_;
    PlaybackStats stats_;
    std::uint64_t highest_complete_{0};

    void expire(std::uint64_t frame_index);
};

}  // namespace mvc::media
