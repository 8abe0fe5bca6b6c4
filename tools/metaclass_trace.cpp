// metaclass_trace — session-trace toolbox for the record/replay subsystem.
//
//   metaclass_trace record <out.mvtr> [--seed N] [--duration S] [--hash-ms M]
//                                     [--no-payloads]
//       run the built-in blended lecture with recording on, write the trace
//   metaclass_trace stat <trace>      header, chunk and record-kind summary
//   metaclass_trace dump <trace> [--limit N]
//                                     print records human-readably
//   metaclass_trace verify <trace>    tolerant integrity check (salvage report)
//   metaclass_trace truncate <in> <out> <keep_s>
//       keep definitions plus records with t <= keep_s, re-chunk, write
//   metaclass_trace replay <trace> [--speed X] [--seek S]
//       reconstruct the lecture offline, print playback stats
//   metaclass_trace check <trace>     re-run the recorded scenario from the
//       trace's seed/stamp and diff per-epoch state hashes (exit 1 on
//       divergence) — the deterministic-replay debugging gate
//
// `check` only knows how to rebuild traces whose stamp starts with
// "builtin-lecture" (i.e. ones produced by `record` here, tools/ci.sh, or
// the E18 bench); traces recorded by custom harnesses carry their own stamp
// and are checked by those harnesses.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/classroom.hpp"
#include "replay/divergence.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "replay/trace.hpp"

using namespace mvc;

namespace {

int usage() {
    std::fprintf(
        stderr,
        "usage: metaclass_trace record <out.mvtr> [--seed N] [--duration S]\n"
        "                              [--hash-ms M] [--no-payloads]\n"
        "       metaclass_trace stat <trace>\n"
        "       metaclass_trace dump <trace> [--limit N]\n"
        "       metaclass_trace verify <trace>\n"
        "       metaclass_trace truncate <in> <out> <keep_s>\n"
        "       metaclass_trace replay <trace> [--speed X] [--seek S]\n"
        "       metaclass_trace check <trace>\n");
    return 2;
}

std::string builtin_stamp(double duration_s, double hash_ms) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "builtin-lecture v1 dur_s=%g hash_ms=%g",
                  duration_s, hash_ms);
    return buf;
}

/// Pull "key=<double>" out of a stamp; nan when absent.
double stamp_field(const std::string& stamp, const char* key) {
    const std::size_t at = stamp.find(std::string{key} + "=");
    if (at == std::string::npos) return std::nan("");
    return std::atof(stamp.c_str() + at + std::strlen(key) + 1);
}

/// The scenario `record`/`check` agree on: a two-campus blended lecture
/// with remote attendees and periodic recovery checkpoints (the trace's
/// seek keyframes). Everything that shapes the event stream is derived
/// from (seed, duration, hash interval), all of which ride in the header.
void run_builtin(std::uint64_t seed, double duration_s, double hash_ms,
                 bool capture_payloads, std::int64_t started_ns,
                 replay::TraceSink& sink) {
    core::ClassroomConfig config;
    config.seed = seed;
    config.course = "builtin-lecture";
    config.recovery.enabled = true;
    config.recovery.checkpoint_interval = sim::Time::seconds(2.0);

    core::MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    for (int i = 0; i < 4; ++i) classroom.add_physical_student(0);
    for (int i = 0; i < 3; ++i) classroom.add_physical_student(1);
    classroom.add_remote_student(net::Region::Seoul);
    classroom.add_remote_student(net::Region::London);

    replay::RecorderOptions opts;
    opts.capture_payloads = capture_payloads;
    replay::Recorder rec{sink, seed, builtin_stamp(duration_s, hash_ms),
                         started_ns, opts};
    classroom.enable_recording(rec, sim::Time::ms(hash_ms));
    classroom.start();
    classroom.run_for(sim::Time::seconds(duration_s));
    classroom.stop();
    rec.finish();
    if (!rec.error().empty())
        throw std::runtime_error("recording failed: " + rec.error());
    std::fprintf(stderr,
                 "recorded %llu wire records (%llu avatar updates), %llu "
                 "hashes, %llu checkpoints, %llu chunks, %llu bytes\n",
                 static_cast<unsigned long long>(rec.wire_records()),
                 static_cast<unsigned long long>(rec.avatar_updates()),
                 static_cast<unsigned long long>(rec.hashes()),
                 static_cast<unsigned long long>(rec.checkpoints()),
                 static_cast<unsigned long long>(rec.chunks_written()),
                 static_cast<unsigned long long>(rec.bytes_written()));
}

std::vector<std::uint8_t> read_file(const char* path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error(std::string{"cannot open '"} + path + "'");
    return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>()};
}

void write_file(const char* path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    if (!out) throw std::runtime_error(std::string{"cannot open '"} + path + "'");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error(std::string{"short write to '"} + path + "'");
}

int cmd_stat(const replay::Trace& t) {
    std::uint64_t kinds[8] = {};
    replay::Trace::Cursor c = t.cursor();
    replay::Record rec;
    while (c.next(rec)) ++kinds[rec.index()];
    std::printf("version:      %u\n", t.version());
    std::printf("seed:         %llu\n", static_cast<unsigned long long>(t.seed()));
    std::printf("stamp:        %s\n", t.stamp().c_str());
    std::printf("duration:     %.3f s\n", sim::Time::ns(t.last_t_ns()).to_seconds());
    std::printf("chunks:       %zu\n", t.chunks().size());
    std::printf("records:      %llu\n",
                static_cast<unsigned long long>(t.record_count()));
    std::printf("  flow defs:    %llu\n", static_cast<unsigned long long>(kinds[0]));
    std::printf("  node defs:    %llu\n", static_cast<unsigned long long>(kinds[1]));
    std::printf("  subject defs: %llu\n", static_cast<unsigned long long>(kinds[2]));
    std::printf("  wire:         %llu\n", static_cast<unsigned long long>(kinds[3]));
    std::printf("  state hashes: %llu\n", static_cast<unsigned long long>(kinds[4]));
    std::printf("  checkpoints:  %llu\n", static_cast<unsigned long long>(kinds[5]));
    std::printf("seek index:   %zu keyframes\n", t.checkpoint_index().size());
    std::printf("bytes:        %zu\n", t.bytes().size());
    return 0;
}

int cmd_dump(const replay::Trace& t, std::uint64_t limit) {
    replay::Trace::Cursor c = t.cursor();
    replay::Record rec;
    std::uint64_t printed = 0;
    while (c.next(rec) && (limit == 0 || printed < limit)) {
        ++printed;
        if (const auto* f = std::get_if<replay::FlowDef>(&rec)) {
            std::printf("flowdef     id=%u name=%s\n", f->id, f->name.c_str());
        } else if (const auto* n = std::get_if<replay::NodeDef>(&rec)) {
            std::printf("nodedef     shard=%u node=%u name=%s\n", n->shard, n->node,
                        n->name.c_str());
        } else if (const auto* s = std::get_if<replay::SubjectDef>(&rec)) {
            std::printf("subjectdef  id=%u name=%s\n", s->id, s->name.c_str());
        } else if (const auto* w = std::get_if<replay::WireRecord>(&rec)) {
            const std::string_view prio =
                net::priority_name(static_cast<net::Priority>(w->priority));
            std::printf("wire  %12.6f s shard=%u %s -> %s flow=%s %llu B prio=%.*s",
                        sim::Time::ns(w->t_ns).to_seconds(), w->shard,
                        t.node_name(w->shard, w->src).c_str(),
                        t.node_name(w->shard, w->dst).c_str(),
                        t.flow_name(w->flow).c_str(),
                        static_cast<unsigned long long>(w->size_bytes),
                        static_cast<int>(prio.size()), prio.data());
            if (!w->avatars.empty())
                std::printf(" avatars=%zu%s", w->avatars.size(),
                            w->avatars.front().keyframe ? " [key]" : "");
            std::printf("\n");
        } else if (const auto* h = std::get_if<replay::HashRecord>(&rec)) {
            std::printf("hash  %12.6f s epoch=%llu subject=%s hash=%016llx\n",
                        sim::Time::ns(h->t_ns).to_seconds(),
                        static_cast<unsigned long long>(h->epoch),
                        t.subject_name(h->subject).c_str(),
                        static_cast<unsigned long long>(h->hash));
        } else if (const auto* k = std::get_if<replay::CheckpointRecord>(&rec)) {
            std::printf("ckpt  %12.6f s owner=%s %zu B\n",
                        sim::Time::ns(k->t_ns).to_seconds(), k->owner.c_str(),
                        k->bytes.size());
        }
    }
    return 0;
}

int cmd_verify(const std::vector<std::uint8_t>& bytes) {
    const replay::TraceCheck check = replay::Trace::verify(bytes);
    std::printf("ok:          %s\n", check.ok ? "yes" : "NO");
    if (!check.ok) std::printf("error:       %s\n", check.error.c_str());
    std::printf("chunks:      %zu\n", check.chunks);
    std::printf("records:     %llu\n", static_cast<unsigned long long>(check.records));
    std::printf("valid bytes: %zu of %zu\n", check.valid_bytes, bytes.size());
    std::printf("last record: %.3f s\n", sim::Time::ns(check.last_t_ns).to_seconds());
    return check.ok ? 0 : 1;
}

int cmd_replay(const replay::Trace& t, double speed, double seek_s) {
    replay::Replayer player{t};
    if (seek_s >= 0.0) {
        const sim::Time at = player.seek(sim::Time::seconds(seek_s));
        std::printf("seeked to %.3f s (target %.3f s)\n", at.to_seconds(), seek_s);
    }
    player.play_all(speed);
    const replay::PlaybackStats& s = player.stats();
    std::printf("played to:          %.3f s of %.3f s\n",
                player.position().to_seconds(), player.end().to_seconds());
    std::printf("records:            %llu\n",
                static_cast<unsigned long long>(s.records));
    std::printf("wire packets:       %llu (%llu B)\n",
                static_cast<unsigned long long>(s.wire_packets),
                static_cast<unsigned long long>(s.wire_bytes));
    std::printf("avatar updates:     %llu (%llu keyframes, %llu stale skipped)\n",
                static_cast<unsigned long long>(s.avatar_updates),
                static_cast<unsigned long long>(s.keyframes),
                static_cast<unsigned long long>(s.stale_skipped));
    std::printf("checkpoints applied: %llu over %llu seek(s)\n",
                static_cast<unsigned long long>(s.checkpoints_applied),
                static_cast<unsigned long long>(s.seeks));
    if (speed > 0.0)
        std::printf("pacing slept:       %.2f wall-s (speed %gx)\n",
                    s.paced_wall_seconds, speed);
    std::printf("participants:       %zu reconstructed\n", player.participants().size());
    return 0;
}

int cmd_check(const replay::Trace& recorded) {
    if (recorded.stamp().rfind("builtin-lecture", 0) != 0) {
        std::fprintf(stderr,
                     "check: stamp \"%s\" is not a builtin-lecture trace; re-run "
                     "its own harness to regenerate hashes\n",
                     recorded.stamp().c_str());
        return 2;
    }
    const double dur_s = stamp_field(recorded.stamp(), "dur_s");
    const double hash_ms = stamp_field(recorded.stamp(), "hash_ms");
    if (!(dur_s > 0.0) || !(hash_ms > 0.0)) {
        std::fprintf(stderr, "check: stamp \"%s\" is missing dur_s/hash_ms\n",
                     recorded.stamp().c_str());
        return 2;
    }
    // Re-run without payload capture: state hashes do not depend on it (the
    // tap never feeds back into the simulation) and the rerun stays lean.
    replay::MemorySink rerun_sink;
    run_builtin(recorded.seed(), dur_s, hash_ms, /*capture_payloads=*/false,
                recorded.started_ns(), rerun_sink);
    const replay::Trace rerun = replay::Trace::parse(rerun_sink.take());

    const replay::Divergence d = replay::diff_state_hashes(recorded, rerun);
    if (!d.diverged) {
        std::printf("deterministic: %llu state hashes match\n",
                    static_cast<unsigned long long>(d.compared));
        return 0;
    }
    std::printf("DIVERGED after %llu matching hashes: %s\n",
                static_cast<unsigned long long>(d.compared), d.detail.c_str());
    if (!d.subject.empty())
        std::printf("  first divergence: epoch %llu, subject %s, t=%.6f s\n"
                    "  recorded %016llx vs rerun %016llx\n",
                    static_cast<unsigned long long>(d.epoch), d.subject.c_str(),
                    sim::Time::ns(d.t_ns).to_seconds(),
                    static_cast<unsigned long long>(d.recorded_hash),
                    static_cast<unsigned long long>(d.rerun_hash));
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "record") {
            const char* out = argv[2];
            std::uint64_t seed = 42;
            double duration_s = 20.0;
            double hash_ms = 100.0;
            bool payloads = true;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
                    seed = std::strtoull(argv[++i], nullptr, 10);
                else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc)
                    duration_s = std::atof(argv[++i]);
                else if (std::strcmp(argv[i], "--hash-ms") == 0 && i + 1 < argc)
                    hash_ms = std::atof(argv[++i]);
                else if (std::strcmp(argv[i], "--no-payloads") == 0)
                    payloads = false;
                else
                    return usage();
            }
            const auto now = std::chrono::system_clock::now().time_since_epoch();
            const std::int64_t started_ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
            replay::FileSink sink{out};
            run_builtin(seed, duration_s, hash_ms, payloads, started_ns, sink);
            return 0;
        }
        if (cmd == "stat") return cmd_stat(replay::Trace::load(argv[2]));
        if (cmd == "dump") {
            std::uint64_t limit = 0;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc)
                    limit = std::strtoull(argv[++i], nullptr, 10);
                else
                    return usage();
            }
            return cmd_dump(replay::Trace::load(argv[2]), limit);
        }
        if (cmd == "verify") return cmd_verify(read_file(argv[2]));
        if (cmd == "truncate") {
            if (argc != 5) return usage();
            const replay::Trace t = replay::Trace::load(argv[2]);
            const double keep_s = std::atof(argv[4]);
            const auto bytes = replay::truncate_trace(
                t, sim::Time::seconds(keep_s).nanos());
            write_file(argv[3], bytes);
            const replay::Trace out = replay::Trace::parse(bytes);
            std::printf("kept %llu of %llu records (<= %.3f s), %zu bytes\n",
                        static_cast<unsigned long long>(out.record_count()),
                        static_cast<unsigned long long>(t.record_count()), keep_s,
                        bytes.size());
            return 0;
        }
        if (cmd == "replay") {
            double speed = 0.0;
            double seek_s = -1.0;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--speed") == 0 && i + 1 < argc)
                    speed = std::atof(argv[++i]);
                else if (std::strcmp(argv[i], "--seek") == 0 && i + 1 < argc)
                    seek_s = std::atof(argv[++i]);
                else
                    return usage();
            }
            return cmd_replay(replay::Trace::load(argv[2]), speed, seek_s);
        }
        if (cmd == "check") return cmd_check(replay::Trace::load(argv[2]));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "metaclass_trace: %s\n", e.what());
        return 1;
    }
    return usage();
}
