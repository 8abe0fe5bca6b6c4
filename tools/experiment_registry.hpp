#pragma once
// Registry of the repo's experiments: one entry per experiment id, with the
// command that regenerates it and the paper claim it measures. A model-level
// experiment is a bench binary; a world experiment is a `metaclass_scenario
// sweep` of a shipped spec. `metaclass_scenario experiments` prints this
// table; EXPERIMENTS.md holds the measured numbers for the same ids.

#include <cstddef>

namespace mvc::tools {

struct Experiment {
    const char* id;     // stable id, matches the BENCH_<id>.json stamp
    const char* run;    // shell command, run from the repo root
    const char* title;
    const char* claim;  // the §3.2–3.3 engineering claim it regenerates
};

inline constexpr Experiment kExperiments[] = {
    {"e1", "build/bench/bench_e1_latency_breakdown", "end-to-end latency breakdown",
     "cross-campus capture->display stays inside the 100 ms noticeability budget"},
    {"e2", "build/bench/bench_e2_avatar_vs_video", "avatar stream vs live video",
     "avatar sync data account for less traffic than live video streaming"},
    {"e3", "build/bench/bench_e3_scalability_regions", "worldwide scaling, regional servers",
     "regional servers keep far users out of hundreds-of-ms round trips"},
    {"e4", "build/bench/bench_e4_interest_mgmt", "interest management",
     "AOI filtering tames O(N^2) synchronization of many entities"},
    {"e5", "build/bench/bench_e5_dead_reckoning", "dead-reckoning threshold",
     "error-gated deltas trade bandwidth against display fidelity monotonically"},
    {"e6", "build/bench/bench_e6_split_rendering", "split rendering",
     "merging cloud-rendered frames keeps thin clients at high quality"},
    {"e7", "build/bench/bench_e7_video_fec", "video: UDP vs ARQ vs FEC",
     "application-level FEC holds quality at interactive deadlines where ARQ cannot"},
    {"e8", "build/bench/bench_e8_cybersickness", "cybersickness protector",
     "adaptive navigation keeps susceptible users inside a symptom budget"},
    {"e9", "build/bench/bench_e9_seat_assignment", "seat assignment + retargeting",
     "vacant-seat matching preserves remote geometry; retargeting is exact"},
    {"e10", "build/bench/bench_e10_clock_jitter", "clock sync + WiFi ingestion",
     "cross-room events land on synchronized clocks despite jitter and skew"},
    {"e11", "build/bench/bench_e11_edge_ablation", "edge servers vs cloud hairpin",
     "per-classroom edges beat hairpinning avatar streams through a distant cloud"},
    {"e12", "build/bench/bench_e12_content_privacy", "content democratization + privacy",
     "privacy screening blocks unconsented overlays at negligible cost"},
    {"e13", "build/bench/bench_e13_jitter_ablation", "jitter buffer vs render-the-latest",
     "adaptive buffering removes update-rate stutter at comparable latency"},
    {"e14", "build/bench/bench_e14_fault_recovery", "fault injection + failover",
     "heartbeat failover via the cloud relay rides out link outages; degradation ladder under loss"},
    {"e15", "build/bench/bench_e15_crash_recovery", "crash recovery + admission control",
     "checkpointed restart restores seats/membership/avatars strictly faster than cold; overload sheds late joiners with hysteresis"},
    {"e16",
     "build/tools/metaclass_scenario sweep scenarios/e16.scenario.json "
     "--vary campus.clients_per_region=48,171,683 --threads 1,2,4,8 && "
     "build/tools/metaclass_scenario sweep scenarios/e16.scenario.json --vary name=e16-batching "
     "--vary campus.clients_per_region=171 --vary campus.batch_ms=20,0",
     "sharded parallel engine scaling",
     "per-region shards under conservative lookahead scale the event loop across "
     "cores with byte-identical results for any thread count"},
    {"e17", "build/bench/bench_e17_hotpath", "allocation-free hot path",
     "interned metric handles and pooled SBO events strip steady-state "
     "allocations from the per-packet/per-event path (counted, >=5x vs the "
     "string-keyed std::function baseline)"},
    {"e18", "build/bench/bench_e18_record_replay", "session record & deterministic replay",
     "wire-trace recording adds zero steady-state allocations per send and "
     "single-digit-% wall-clock; replay reconstructs the lecture faster than "
     "realtime with checkpoint-indexed seek; re-runs are hash-identical"},
    {"e19", "build/bench/bench_e19_realnet", "real UDP transport behind the net seam",
     "the unmodified classroom model (relay + VR clients) runs over real UDP "
     "loopback through the backend seam; the recorded wire trace replays "
     "bit-exact in the simulator, and the wire format sustains loopback line "
     "rate across payload sizes"},
    {"e20", "build/bench/bench_e20_chaos", "network chaos soak + reconnect hardening",
     "a classroom soak through scripted loss/duplication/reordering/corruption "
     "and an asymmetric partition holds its delivery and staleness SLOs: the "
     "ARQ stream stays exactly-once, the partitioned client backs off, resyncs "
     "and resumes within budget, the degradation ladder sheds and recovers, "
     "and same-seed reruns are byte-identical"},
    {"e21",
     "for s in exam campus_event breakout_groups; do build/tools/metaclass_scenario "
     "sweep scenarios/$s.scenario.json --threads 1,2; done",
     "declarative scenario engine",
     "the shipped exam/campus-event/breakout specs build, run, and pass their "
     "declared SLO gates purely from .scenario.json files; same-seed reruns "
     "and the campus thread-count sweep are byte-identical, and the spec "
     "fuzzer finds no crashes or divergence on the corpus"},
    {"e22",
     "build/tools/metaclass_scenario sweep scenarios/e22.scenario.json --threads 1,2,4,8 && "
     "build/tools/metaclass_scenario sweep scenarios/e22.scenario.json --vary name=e22-aggregation "
     "--vary duration_s=1 --vary campus.pooled.buildings=2 "
     "--vary campus.pooled.classrooms_per_building=50 --vary campus.pooled.aggregate=true,false",
     "campus-scale dense hot path",
     "a 100k-avatar campus sweeps its SoA pools and cell-delta aggregated "
     "egress at interactive rates; merged metrics are "
     "byte-identical across 1/2/4/8 worker threads, and aggregation cuts "
     "client-bound bytes per avatar well below the per-update fan-out "
     "baseline"},
    {"e23",
     "build/tools/metaclass_scenario sweep scenarios/congested_lecture.scenario.json "
     "--threads 1,1,2,4,8 && "
     "build/tools/metaclass_scenario sweep scenarios/clean_lecture.scenario.json",
     "adaptive streaming & QoE control loop",
     "under 10x per-client link oversubscription the ABR + foveated-budget "
     "loop trades video tiers against avatar freshness by priority class — "
     "high-priority clients converge to the rung their link fits with "
     "bounded stalls, staleness, and switch counts while the low class rides "
     "the floor rung; a clean link delivers the top tier everywhere with "
     "zero switches, and runs are byte-identical across seeds and thread "
     "counts"},
    {"micro", "build/bench/bench_micro", "hot-path micro-benchmarks",
     "per-packet server work is dominated by the network, not the CPU"},
};

inline constexpr std::size_t kExperimentCount =
    sizeof(kExperiments) / sizeof(kExperiments[0]);

}  // namespace mvc::tools
