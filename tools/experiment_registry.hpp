#pragma once
// Registry of the repo's experiments: one entry per bench binary, with the
// paper claim it regenerates. `metaclass_scenario experiments` prints this
// table so every bench is discoverable from the runner; EXPERIMENTS.md holds
// the measured numbers for the same ids.

#include <cstddef>

namespace mvc::tools {

struct Experiment {
    const char* id;      // stable id, matches the BENCH_<id>.json stamp
    const char* binary;  // binary under build/bench/
    const char* title;
    const char* claim;   // the §3.2–3.3 engineering claim it regenerates
};

inline constexpr Experiment kExperiments[] = {
    {"e1", "bench_e1_latency_breakdown", "end-to-end latency breakdown",
     "cross-campus capture->display stays inside the 100 ms noticeability budget"},
    {"e2", "bench_e2_avatar_vs_video", "avatar stream vs live video",
     "avatar sync data account for less traffic than live video streaming"},
    {"e3", "bench_e3_scalability_regions", "worldwide scaling, regional servers",
     "regional servers keep far users out of hundreds-of-ms round trips"},
    {"e4", "bench_e4_interest_mgmt", "interest management",
     "AOI filtering tames O(N^2) synchronization of many entities"},
    {"e5", "bench_e5_dead_reckoning", "dead-reckoning threshold",
     "error-gated deltas trade bandwidth against display fidelity monotonically"},
    {"e6", "bench_e6_split_rendering", "split rendering",
     "merging cloud-rendered frames keeps thin clients at high quality"},
    {"e7", "bench_e7_video_fec", "video: UDP vs ARQ vs FEC",
     "application-level FEC holds quality at interactive deadlines where ARQ cannot"},
    {"e8", "bench_e8_cybersickness", "cybersickness protector",
     "adaptive navigation keeps susceptible users inside a symptom budget"},
    {"e9", "bench_e9_seat_assignment", "seat assignment + retargeting",
     "vacant-seat matching preserves remote geometry; retargeting is exact"},
    {"e10", "bench_e10_clock_jitter", "clock sync + WiFi ingestion",
     "cross-room events land on synchronized clocks despite jitter and skew"},
    {"e11", "bench_e11_edge_ablation", "edge servers vs cloud hairpin",
     "per-classroom edges beat hairpinning avatar streams through a distant cloud"},
    {"e12", "bench_e12_content_privacy", "content democratization + privacy",
     "privacy screening blocks unconsented overlays at negligible cost"},
    {"e13", "bench_e13_jitter_ablation", "jitter buffer vs render-the-latest",
     "adaptive buffering removes update-rate stutter at comparable latency"},
    {"e14", "bench_e14_fault_recovery", "fault injection + failover",
     "heartbeat failover via the cloud relay rides out link outages; degradation ladder under loss"},
    {"e15", "bench_e15_crash_recovery", "crash recovery + admission control",
     "checkpointed restart restores seats/membership/avatars strictly faster than cold; overload sheds late joiners with hysteresis"},
    {"e16", "bench_e16_sharded_scale", "sharded parallel engine scaling",
     "per-region shards under conservative lookahead scale the event loop across "
     "cores with byte-identical results for any thread count"},
    {"e17", "bench_e17_hotpath", "allocation-free hot path",
     "interned metric handles and pooled SBO events strip steady-state "
     "allocations from the per-packet/per-event path (counted, >=5x vs the "
     "string-keyed std::function baseline)"},
    {"e18", "bench_e18_record_replay", "session record & deterministic replay",
     "wire-trace recording adds zero steady-state allocations per send and "
     "single-digit-% wall-clock; replay reconstructs the lecture faster than "
     "realtime with checkpoint-indexed seek; re-runs are hash-identical"},
    {"e19", "bench_e19_realnet", "real UDP transport behind the net seam",
     "the unmodified classroom model (relay + VR clients) runs over real UDP "
     "loopback through the backend seam; the recorded wire trace replays "
     "bit-exact in the simulator, and the wire format sustains loopback line "
     "rate across payload sizes"},
    {"e20", "bench_e20_chaos", "network chaos soak + reconnect hardening",
     "a classroom soak through scripted loss/duplication/reordering/corruption "
     "and an asymmetric partition holds its delivery and staleness SLOs: the "
     "ARQ stream stays exactly-once, the partitioned client backs off, resyncs "
     "and resumes within budget, the degradation ladder sheds and recovers, "
     "and same-seed reruns are byte-identical"},
    {"e21", "bench_e21_scenario", "declarative scenario engine",
     "the shipped exam/campus-event/breakout specs build, run, and pass their "
     "declared SLO gates purely from .scenario.json files; same-seed reruns "
     "and the campus thread-count sweep are byte-identical, and the spec "
     "fuzzer finds no crashes or divergence on the corpus"},
    {"e22", "bench_e22_campus", "campus-scale dense hot path",
     "a 100k-avatar campus sweeps its SoA pools and cell-delta aggregated "
     "egress at interactive rates; merged metrics are "
     "byte-identical across 1/2/4/8 worker threads, and aggregation cuts "
     "client-bound bytes per avatar well below the per-update fan-out "
     "baseline"},
    {"e23", "bench_e23_qoe", "adaptive streaming & QoE control loop",
     "under 10x per-client link oversubscription the ABR + foveated-budget "
     "loop trades video tiers against avatar freshness by priority class — "
     "high-priority clients converge to the rung their link fits with "
     "bounded stalls, staleness, and switch counts while the low class rides "
     "the floor rung; a clean link delivers the top tier everywhere with "
     "zero switches, and runs are byte-identical across seeds and thread "
     "counts"},
    {"micro", "bench_micro", "hot-path micro-benchmarks",
     "per-packet server work is dominated by the network, not the CPU"},
};

inline constexpr std::size_t kExperimentCount =
    sizeof(kExperiments) / sizeof(kExperiments[0]);

}  // namespace mvc::tools
