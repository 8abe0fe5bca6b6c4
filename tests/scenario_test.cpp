// Tests for the declarative scenario engine: strict spec parsing with field
// paths and line/column context, lossless JSON round-trips, timeline ->
// FaultPlan compilation, deterministic world runs (classroom, relay+chaos,
// campus thread sweep), SLO evaluation, the mutation fuzzer's determinism,
// and the crash-regression corpus under tests/corpus/.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/world.hpp"

namespace mvc::scenario {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSmallClassroom = R"json({
  "scenario_version": 1,
  "name": "small",
  "world": "classroom",
  "seed": 9,
  "duration_s": 3,
  "hash_ms": 100,
  "classroom": {
    "course": "TEST101",
    "rooms": [
      {"name": "a", "region": "HongKong", "rows": 3, "cols": 3,
       "students": 2, "instructor": true},
      {"name": "b", "region": "Guangzhou", "rows": 3, "cols": 3, "students": 1}
    ],
    "remote": [{"region": "Seoul", "count": 1}],
    "schedule": [{"activity": "lecture", "minutes": 0.02}]
  },
  "timeline": [
    {"kind": "loss_burst", "at_s": 1, "duration_s": 0.5,
     "a": "edge/0", "b": "edge/1", "loss": 0.3},
    {"kind": "latency_spike", "at_s": 2, "duration_s": 0.5,
     "a": "edge/1", "b": "cloud", "extra_ms": 40}
  ],
  "slos": [{"metric": "scenario.hash_epochs", "min": 10}]
})json";

std::string corpus_dir() { return METACLASS_CORPUS_DIR; }
std::string scenario_dir() { return METACLASS_SCENARIO_DIR; }

std::string slurp(const fs::path& p) {
    std::ifstream in{p, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ------------------------------------------------------------------ parsing

TEST(SpecParseTest, FullDocument) {
    const ScenarioSpec s = scenario_from_text(kSmallClassroom);
    EXPECT_EQ(s.version, kSpecVersion);
    EXPECT_EQ(s.name, "small");
    EXPECT_EQ(s.world, WorldKind::Classroom);
    EXPECT_EQ(s.backend, BackendKind::Sim);
    EXPECT_EQ(s.seed, 9u);
    EXPECT_EQ(s.duration, sim::Time::seconds(3));
    ASSERT_EQ(s.classroom.rooms.size(), 2u);
    EXPECT_EQ(s.classroom.rooms[0].name, "a");
    EXPECT_EQ(s.classroom.rooms[1].region, net::Region::Guangzhou);
    EXPECT_EQ(s.classroom.rooms[0].students, 2u);
    EXPECT_TRUE(s.classroom.rooms[0].instructor);
    EXPECT_FALSE(s.classroom.rooms[1].instructor);
    ASSERT_EQ(s.classroom.remote.size(), 1u);
    EXPECT_EQ(s.classroom.remote[0].region, net::Region::Seoul);
    ASSERT_EQ(s.classroom.schedule.size(), 1u);
    EXPECT_EQ(s.classroom.schedule[0].kind, session::ActivityKind::Lecture);
    ASSERT_EQ(s.timeline.size(), 2u);
    EXPECT_EQ(s.timeline[0].kind, TimelineKind::LossBurst);
    EXPECT_EQ(s.timeline[1].kind, TimelineKind::LatencySpike);
    ASSERT_EQ(s.slos.size(), 1u);
    EXPECT_EQ(s.slos[0].metric, "scenario.hash_epochs");
}

TEST(SpecParseTest, VersionRequired) {
    EXPECT_THROW((void)scenario_from_text("{}"), SpecError);
    EXPECT_THROW((void)scenario_from_text(R"({"scenario_version": 2})"), SpecError);
}

TEST(SpecParseTest, UnknownKeyRejectedWithPath) {
    try {
        (void)scenario_from_text(R"({"scenario_version": 1, "wrold": 1})");
        FAIL() << "unknown key accepted";
    } catch (const SpecError& e) {
        EXPECT_NE(std::string{e.what()}.find("wrold"), std::string::npos);
    }
    // Nested unknown keys carry the dotted path.
    try {
        (void)scenario_from_text(
            R"({"scenario_version": 1,
                "classroom": {"rooms": [{"preset": "cwb", "colz": 5}]}})");
        FAIL() << "nested unknown key accepted";
    } catch (const SpecError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("classroom.rooms[0]"), std::string::npos) << what;
        EXPECT_NE(what.find("colz"), std::string::npos) << what;
    }
}

TEST(SpecParseTest, SyntaxErrorCarriesLineAndColumn) {
    try {
        (void)scenario_from_text("{\n  \"scenario_version\": 1,\n  \"name\": trunc\n}");
        FAIL() << "syntax error accepted";
    } catch (const SpecError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find("column"), std::string::npos) << what;
    }
}

TEST(SpecParseTest, FieldErrorsCarryPaths) {
    try {
        (void)scenario_from_text(
            R"({"scenario_version": 1,
                "timeline": [{"kind": "loss_burst", "at_s": 1, "duration_s": 1,
                              "a": "edge/0", "b": "edge/1", "loss": 1.5}]})");
        FAIL() << "out-of-range loss accepted";
    } catch (const SpecError& e) {
        EXPECT_NE(std::string{e.what()}.find("timeline[0]"), std::string::npos)
            << e.what();
    }
}

TEST(SpecParseTest, WorldBackendCrossChecks) {
    // Classroom world only runs on the sim backend.
    EXPECT_THROW((void)scenario_from_text(
                     R"({"scenario_version": 1, "world": "classroom",
                         "backend": "chaos"})"),
                 SpecError);
    // Chaos windows need the chaos backend.
    EXPECT_THROW((void)scenario_from_text(
                     R"({"scenario_version": 1, "world": "relay",
                         "relay": {"clients": [{"count": 1, "region": "HongKong"}]},
                         "timeline": [{"kind": "chaos", "at_s": 1, "duration_s": 1,
                                       "a": "client/*", "b": "relay",
                                       "profile": {"drop": 0.1}}]})"),
                 SpecError);
    // The inactive world's section must be absent.
    EXPECT_THROW((void)scenario_from_text(
                     R"({"scenario_version": 1, "world": "classroom",
                         "relay": {"clients": [{"count": 1, "region": "HongKong"}]}})"),
                 SpecError);
}

// --------------------------------------------------------------- round-trip

TEST(SpecRoundTripTest, InlineSpecLossless) {
    const ScenarioSpec s = scenario_from_text(kSmallClassroom);
    const common::Json j1 = spec_to_json(s);
    const ScenarioSpec reparsed = scenario_from_json(j1);
    const common::Json j2 = spec_to_json(reparsed);
    EXPECT_EQ(j1.dump(2), j2.dump(2));
    EXPECT_EQ(spec_stamp(s), spec_stamp(reparsed));
}

TEST(SpecRoundTripTest, ShippedSpecsLossless) {
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(scenario_dir())) {
        if (entry.path().extension() != ".json") continue;
        SCOPED_TRACE(entry.path().filename().string());
        const ScenarioSpec s = load_spec_file(entry.path().string());
        const common::Json j1 = spec_to_json(s);
        const common::Json j2 = spec_to_json(scenario_from_json(j1));
        EXPECT_EQ(j1.dump(2), j2.dump(2));
        ++checked;
    }
    EXPECT_GE(checked, 3u);  // exam, campus_event, breakout_groups at least
}

// Every key of the format, each set away from its default, one spec per
// world form: whatever the input sets must survive spec_to_json, and the
// emitted document must reparse to itself.
constexpr const char* kEveryKeyClassroom = R"json({
  "scenario_version": 1, "name": "every-key-classroom", "world": "classroom",
  "backend": "sim", "seed": 7, "duration_s": 12.5, "hash_ms": 250,
  "classroom": {
    "course": "OFF101", "regional_mesh": true, "lightweight_remote": true,
    "event_bus": false, "probe_rate_hz": 4,
    "heartbeat": {"interval_ms": 150, "timeout_ms": 600},
    "degradation": {"enter_loss": 0.12, "exit_loss": 0.03, "enter_rtt_ms": 180,
                    "exit_rtt_ms": 90, "max_level": 2, "hold_s": 1.5},
    "recovery": {"checkpoint_s": 3.5},
    "admission": {"queue_capacity": 128, "shed_enter_depth": 96,
                  "shed_exit_depth": 32, "hold_ms": 75},
    "rooms": [
      {"preset": "gz", "students": 3, "instructor": true},
      {"name": "lab", "region": "Tokyo", "rows": 4, "cols": 3, "students": 5,
       "instructor": true}
    ],
    "remote": [{"region": "London", "count": 3, "join_at_s": 2.5, "guest": true}],
    "lecture_media_room": 1,
    "schedule": [{"activity": "qa", "minutes": 0.75, "team_size": 3}]
  },
  "timeline": [
    {"kind": "link_outage", "at_s": 1, "duration_s": 0.5, "a": "edge/0", "b": "cloud"},
    {"kind": "loss_burst", "at_s": 2, "duration_s": 0.5, "a": "edge/0", "b": "edge/1",
     "loss": 0.4},
    {"kind": "latency_spike", "at_s": 3, "duration_s": 0.5, "a": "edge/1", "b": "cloud",
     "extra_ms": 45},
    {"kind": "node_outage", "at_s": 4, "duration_s": 0.75, "node": "edge/1"},
    {"kind": "random", "from_s": 1.5, "until_s": 9.5, "stream": "storm",
     "model": {"flaps_per_min": 3, "mean_outage_s": 1.5, "bursts_per_min": 4,
               "mean_burst_s": 0.5, "burst_loss": 0.35, "spikes_per_min": 5,
               "mean_spike_s": 0.25, "spike_extra_ms": 60, "crashes_per_min": 0.5,
               "mean_downtime_s": 2.5},
     "links": [["edge/0", "cloud"]], "nodes": ["edge/1"]}
  ],
  "slos": [{"metric": "scenario.hash_epochs", "min": 1, "max": 1000}]
})json";

constexpr const char* kEveryKeyRelay = R"json({
  "scenario_version": 1, "name": "every-key-relay", "world": "relay",
  "backend": "chaos", "seed": 11, "duration_s": 9, "hash_ms": 50,
  "relay": {
    "region": "Seoul", "serve_resync": false, "resync_freshness_s": 1.5,
    "access_ms": 12, "batch_ms": 25,
    "control": {"interval_ms": 40, "region_a": "Tokyo", "region_b": "Singapore"},
    "clients": [
      {"count": 2, "region": "Boston", "join_at_s": 1.25,
       "reconnect": {"liveness_s": 1.5, "check_ms": 150, "probe_ms": 300,
                     "backoff_base_ms": 50, "backoff_cap_s": 3},
       "self_adapt": {"enter_loss": 0.1, "exit_loss": 0.04, "enter_rtt_ms": 120,
                      "exit_rtt_ms": 60, "max_level": 4, "hold_ms": 400},
       "priority": "low"}
    ]
  },
  "qoe": {"feedback_ms": 125, "aggregate_ms": 40, "playout_ms": 150, "safety": 0.75,
          "reserve_bps": 30000, "down_loss": 0.12, "up_loss": 0.04,
          "hold_down_ms": 250, "hold_up_ms": 2000, "dwell_ms": 750,
          "avatar_full_bps": 150000, "floor_scale": 0.2, "fovea_cos": 0.9},
  "timeline": [
    {"kind": "link_outage", "at_s": 1, "duration_s": 0.5, "a": "client/0", "b": "relay"},
    {"kind": "loss_burst", "at_s": 1.5, "duration_s": 0.5, "a": "client/1", "b": "relay",
     "loss": 0.6},
    {"kind": "latency_spike", "at_s": 2, "duration_s": 0.5, "a": "ctrl/a", "b": "relay",
     "extra_ms": 35},
    {"kind": "node_outage", "at_s": 2.5, "duration_s": 0.5, "node": "client/0"},
    {"kind": "chaos", "at_s": 3, "duration_s": 1, "a": "client/*", "b": "relay",
     "profile": {"drop": 0.05, "ge_p_bad": 0.02, "ge_p_good": 0.4, "ge_loss_bad": 0.9,
                 "ge_loss_good": 0.01, "duplicate": 0.03, "reorder": 0.04,
                 "reorder_hold_ms": 20, "delay_ms": 5, "jitter_ms": 7, "corrupt": 0.01,
                 "throttle_bps": 2000000, "throttle_backlog_ms": 150}},
    {"kind": "blackhole", "at_s": 4, "duration_s": 0.5, "from": "relay", "to": "client/1"},
    {"kind": "partition", "at_s": 5, "duration_s": 0.5, "a": "ctrl/b", "b": "relay"},
    {"kind": "random", "from_s": 5.5, "until_s": 8, "stream": "relay-storm",
     "model": {"flaps_per_min": 2, "mean_outage_s": 0.5, "bursts_per_min": 3,
               "mean_burst_s": 0.75, "burst_loss": 0.5, "spikes_per_min": 1,
               "mean_spike_s": 1.25, "spike_extra_ms": 90, "crashes_per_min": 1,
               "mean_downtime_s": 1.5},
     "links": [["client/0", "relay"], ["client/1", "relay"]], "nodes": ["client/1"]}
  ],
  "slos": [{"metric": "chaos.drop", "max": 5000}]
})json";

constexpr const char* kEveryKeyPooledCampus = R"json({
  "scenario_version": 1, "name": "every-key-pooled", "world": "campus",
  "backend": "sim", "seed": 3, "duration_s": 2, "hash_ms": 0,
  "campus": {
    "clients_per_region": 3, "batch_ms": 30, "lightweight": false,
    "pooled": {"buildings": 2, "classrooms_per_building": 3,
               "avatars_per_classroom": 4, "viewers_per_building": 2,
               "tick_rate_hz": 10, "aggregate": false, "aggregate_ms": 40}
  },
  "slos": [{"metric": "campus/ticks", "min": 2}]
})json";

constexpr const char* kEveryKeyRegionCampus = R"json({
  "scenario_version": 1, "name": "every-key-regions", "world": "campus",
  "backend": "sim", "seed": 4, "duration_s": 3, "hash_ms": 200,
  "campus": {
    "regions": ["Seoul", "Frankfurt"], "clients_per_region": 2, "batch_ms": 10,
    "lightweight": false,
    "pooled": {"classrooms_per_building": 5, "avatars_per_classroom": 6,
               "viewers_per_building": 1, "tick_rate_hz": 15, "aggregate": false,
               "aggregate_ms": 25}
  },
  "timeline": [
    {"kind": "link_outage", "at_s": 1, "duration_s": 0.5, "a": "cloud",
     "b": "relay/Seoul"}
  ]
})json";

// Every key of `in` appears in `out` with the same value (deeply).
void expect_keys_survive(const common::Json& in, const common::Json& out,
                         const std::string& path) {
    if (in.is_object()) {
        ASSERT_TRUE(out.is_object()) << path;
        for (const auto& [key, value] : in.as_object()) {
            const common::Json* o = out.find(key);
            if (o == nullptr) {
                ADD_FAILURE() << path << "." << key << " was not emitted";
                continue;
            }
            expect_keys_survive(value, *o, path + "." + key);
        }
    } else if (in.is_array()) {
        ASSERT_TRUE(out.is_array()) << path;
        ASSERT_EQ(in.as_array().size(), out.as_array().size()) << path;
        for (std::size_t i = 0; i < in.as_array().size(); ++i)
            expect_keys_survive(in.as_array()[i], out.as_array()[i],
                                path + "[" + std::to_string(i) + "]");
    } else {
        EXPECT_EQ(in, out) << path << ": " << in.dump() << " became " << out.dump();
    }
}

TEST(SpecRoundTripTest, EveryKeyOffDefault) {
    for (const char* text : {kEveryKeyClassroom, kEveryKeyRelay, kEveryKeyPooledCampus,
                             kEveryKeyRegionCampus}) {
        const common::Json in = common::Json::parse(text);
        SCOPED_TRACE(in.find("name")->as_string());
        const ScenarioSpec s = scenario_from_json(in);
        const common::Json out = spec_to_json(s);
        expect_keys_survive(in, out, "");
        const ScenarioSpec reparsed = scenario_from_json(out);
        EXPECT_EQ(spec_to_json(reparsed).dump(2), out.dump(2));
        EXPECT_EQ(spec_stamp(reparsed), spec_stamp(s));
    }
}

// --------------------------------------------------- timeline -> FaultPlan

TEST(TimelineCompileTest, EntriesLandInThePlan) {
    const ScenarioSpec s = scenario_from_text(kSmallClassroom);
    const auto world = build(s);
    ASSERT_NE(world->plan(), nullptr);
    const std::string plan = world->plan()->to_string();
    EXPECT_NE(plan.find("loss_burst_start"), std::string::npos) << plan;
    EXPECT_NE(plan.find("latency_spike_start"), std::string::npos) << plan;
}

TEST(TimelineCompileTest, UnknownNodeRefRejected) {
    ScenarioSpec s = scenario_from_text(kSmallClassroom);
    s.timeline[0].a = "edge/7";
    EXPECT_THROW((void)build(s), SpecError);
}

TEST(TimelineCompileTest, ClientWildcardExpands) {
    const ScenarioSpec s = load_spec_file(corpus_dir() +
                                          "/valid/relay_chaos.scenario.json");
    const auto world = build(s);
    const auto nodes = world->resolve("client/*");
    EXPECT_EQ(nodes.size(), 3u);  // the spec's one cohort of three
}

// ------------------------------------------------------------- determinism

TEST(ScenarioRunTest, ClassroomDeterministicForSeed) {
    const ScenarioSpec s = scenario_from_text(kSmallClassroom);
    const ScenarioReport a = run_scenario(s);
    const ScenarioReport b = run_scenario(s);
    ASSERT_FALSE(a.hashes.empty());
    EXPECT_EQ(a.hashes, b.hashes);
    EXPECT_EQ(a.metrics.dump(2), b.metrics.dump(2));
    EXPECT_TRUE(a.passed);
}

TEST(ScenarioRunTest, RelayChaosDeterministicForSeed) {
    const ScenarioSpec s = load_spec_file(corpus_dir() +
                                          "/valid/relay_chaos.scenario.json");
    const ScenarioReport a = run_scenario(s);
    const ScenarioReport b = run_scenario(s);
    ASSERT_FALSE(a.hashes.empty());
    EXPECT_EQ(a.hashes, b.hashes);
    EXPECT_EQ(a.metrics.dump(2), b.metrics.dump(2));
}

TEST(ScenarioRunTest, CampusInvariantUnderThreads) {
    const ScenarioSpec s = load_spec_file(corpus_dir() +
                                          "/valid/campus_small.scenario.json");
    const ScenarioReport one = run_scenario(s, 1);
    const ScenarioReport two = run_scenario(s, 2);
    ASSERT_FALSE(one.hashes.empty());
    EXPECT_EQ(one.hashes, two.hashes);
    EXPECT_EQ(one.metrics.dump(2), two.metrics.dump(2));
}

// -------------------------------------------------------------------- SLOs

TEST(SloTest, CounterSeriesAndMissingMetrics) {
    sim::MetricsRecorder m;
    m.count("widgets", 7);
    for (int i = 1; i <= 100; ++i) m.sample("lat_ms", static_cast<double>(i));
    EXPECT_DOUBLE_EQ(*metric_value(m, "widgets"), 7.0);
    EXPECT_DOUBLE_EQ(*metric_value(m, "lat_ms.count"), 100.0);
    EXPECT_DOUBLE_EQ(*metric_value(m, "lat_ms.p50"), 50.5);
    EXPECT_FALSE(metric_value(m, "nope").has_value());
    EXPECT_FALSE(metric_value(m, "lat_ms.p42").has_value());

    const std::vector<SloGate> gates = {
        {.metric = "widgets", .min = 1.0, .max = 10.0},
        {.metric = "lat_ms.p50", .min = std::nullopt, .max = 10.0},  // fails: 50.5 > 10
        {.metric = "typo.p95", .min = 0.0, .max = std::nullopt},     // fails: missing metric
    };
    const auto results = evaluate_slos(m, gates);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].passed);
    EXPECT_FALSE(results[1].passed);
    EXPECT_FALSE(results[2].passed);
    EXPECT_FALSE(results[2].value.has_value());
}

// ------------------------------------------------------------------- sweep

/// The error a sweep of kSmallClassroom with one `--vary` flag throws.
std::string sweep_error(const std::string& flag) {
    try {
        (void)run_sweep(kSmallClassroom, {parse_vary(flag)}, {1});
    } catch (const SpecError& e) {
        return e.what();
    }
    return "accepted";
}

TEST(SweepTest, BadOverrideFailsWithTheReadersFieldPath) {
    EXPECT_EQ(sweep_error("classroom.bogus=3"), "scenario: classroom.bogus: unknown key");
    EXPECT_EQ(sweep_error("nowhere.deep=1"), "scenario: nowhere: unknown key");
    EXPECT_EQ(sweep_error("duration_s=soon"), "scenario: duration_s: must be a number (seconds)");
    EXPECT_EQ(sweep_error("classroom.remote=3"), "scenario: classroom.remote: must be an array");
    EXPECT_EQ(sweep_error("seed.x=1"), "scenario: seed: not an object; cannot set 'seed.x'");
}

TEST(SweepTest, VaryValuesAndThreadListsAreChecked) {
    const VaryAxis axis = parse_vary(R"(name=12,true,e16-batching,"7")");
    EXPECT_EQ(axis.path, "name");
    EXPECT_EQ(axis.values, (std::vector<common::Json>{12, true, "e16-batching", "7"}));
    for (const char* bad : {"no-equals", "=1", "x=", "x=1,,2"})
        EXPECT_THROW((void)parse_vary(bad), std::invalid_argument) << bad;
    // An empty or zero thread list is a usage error.
    EXPECT_EQ(parse_threads("1,2,4,2"), (std::vector<std::size_t>{1, 2, 4, 2}));
    for (const char* bad : {"", "0", "1,0", "1,,2", "2,", "x", "-1"})
        EXPECT_THROW((void)parse_threads(bad), std::invalid_argument) << "'" << bad << "'";
    EXPECT_THROW((void)run_sweep(kSmallClassroom, {}, {}), std::invalid_argument);
}

TEST(SweepTest, OverridesChangeTheStampInProductOrder) {
    const Sweep sweep = run_sweep(
        kSmallClassroom, {parse_vary("seed=5,6"), parse_vary("duration_s=0.2,0.3")}, {1});
    ASSERT_EQ(sweep.points.size(), 4u);
    EXPECT_EQ(sweep.seed, 5u);
    const char* stamps[] = {"seed=5 dur_s=0.2", "seed=5 dur_s=0.3", "seed=6 dur_s=0.2",
                            "seed=6 dur_s=0.3"};
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(sweep.points[i].runs.front().stamp,
                  std::string{"scenario:small v1 world=classroom backend=sim "} + stamps[i]);
    // The small spec's hash-epoch SLO needs 1 s of run, so the verdict fails.
    EXPECT_FALSE(sweep.passed());
}

TEST(SweepTest, CampusEventIdenticalAcrossThreadsAndInvocations) {
    const std::string text = slurp(scenario_dir() + "/campus_event.scenario.json");
    const Sweep a = run_sweep(text, {}, {1, 2});
    ASSERT_EQ(a.points.size(), 1u);
    EXPECT_TRUE(a.points[0].identical);
    EXPECT_TRUE(a.passed());
    common::Json ja = sweep_to_json(a, "build");
    common::Json jb = sweep_to_json(run_sweep(text, {}, {1, 2}), "build");
    EXPECT_EQ(ja.as_object().erase("timing"), 1u);
    jb.as_object().erase("timing");
    EXPECT_EQ(ja.dump(2), jb.dump(2));
}

// -------------------------------------------------------------------- fuzz

TEST(FuzzTest, MutationsAreDeterministic) {
    const ScenarioSpec base = scenario_from_text(kSmallClassroom);
    const ScenarioSpec m1 = mutate_spec(base, 4);
    const ScenarioSpec m2 = mutate_spec(base, 4);
    EXPECT_EQ(spec_to_json(m1).dump(2), spec_to_json(m2).dump(2));
    // A different salt actually perturbs something.
    const ScenarioSpec m3 = mutate_spec(base, 5);
    EXPECT_NE(spec_to_json(m1).dump(2), spec_to_json(m3).dump(2));
}

TEST(FuzzTest, SmallSpecFuzzRunsClean) {
    const ScenarioSpec base = scenario_from_text(kSmallClassroom);
    FuzzOptions options;
    options.iterations = 4;
    options.duration_cap = sim::Time::seconds(1.5);
    const FuzzReport report = fuzz_specs(base, options);
    EXPECT_EQ(report.iterations, 4u);
    EXPECT_GT(report.ran, 0u);
    for (const FuzzFailure& f : report.failures)
        ADD_FAILURE() << "iteration " << f.iteration << ": " << f.what;
    EXPECT_TRUE(report.ok());
}

TEST(FuzzTest, TraceMutationsNeverCrashTheChecker) {
    // A tiny synthetic byte blob: the fuzzer's contract (verify never throws,
    // parse either succeeds or throws TraceError) must hold on arbitrary
    // garbage, not just recorded traces.
    std::vector<std::uint8_t> bytes(512);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xff);
    FuzzOptions options;
    options.iterations = 64;
    const FuzzReport report = fuzz_trace(bytes, options);
    for (const FuzzFailure& f : report.failures)
        ADD_FAILURE() << "iteration " << f.iteration << ": " << f.what;
    EXPECT_TRUE(report.ok());
    // Same options -> same corruption schedule.
    const std::vector<std::uint8_t> a = mutate_trace(bytes, 9);
    const std::vector<std::uint8_t> b = mutate_trace(bytes, 9);
    EXPECT_EQ(a, b);
}

// ------------------------------------------------------------------ corpus

TEST(CorpusTest, ValidSpecsParseValidateAndRoundTrip) {
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(corpus_dir() + "/valid")) {
        SCOPED_TRACE(entry.path().filename().string());
        const ScenarioSpec s = load_spec_file(entry.path().string());
        EXPECT_NO_THROW(validate_spec(s));
        const common::Json j1 = spec_to_json(s);
        EXPECT_EQ(j1.dump(2), spec_to_json(scenario_from_json(j1)).dump(2));
        ++checked;
    }
    EXPECT_GE(checked, 5u);
}

TEST(CorpusTest, BadSpecsAllRejectedAsSpecError) {
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(corpus_dir() + "/bad")) {
        SCOPED_TRACE(entry.path().filename().string());
        EXPECT_THROW((void)scenario_from_text(slurp(entry.path())), SpecError);
        // The file-loading path wraps the same error with the path context.
        EXPECT_THROW((void)load_spec_file(entry.path().string()), SpecError);
        ++checked;
    }
    EXPECT_GE(checked, 10u);
}

// The full message for each bad-corpus file, as the reader reports it.
TEST(SpecErrorTest, BadCorpusMessagesPinned) {
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"admission_band_inverted.json",
         "scenario: classroom.admission.shed_exit_depth: must be below shed_enter_depth (hysteresis gap)"},
        {"campus_duplicate_region.json",
         "scenario: campus.regions: region 'Seoul' listed twice"},
        {"chaos_window_on_classroom.json",
         "scenario: timeline[0]: chaos needs world=relay, backend=chaos"},
        {"degradation_band_inverted.json",
         "scenario: classroom.degradation.exit_loss: must not exceed enter_loss (hysteresis gap)"},
        {"missing_version.json",
         "scenario: scenario_version: required"},
        {"not_an_object.json",
         "scenario: must be an object"},
        {"overcrowded_room.json",
         "scenario: classroom.rooms[0].students: exceed seat capacity"},
        {"preset_room_geometry.json",
         "scenario: classroom.rooms[0].cols: unknown key"},
        {"random_window_backwards.json",
         "scenario: timeline[0].until_s: must exceed from_s"},
        {"real_udp_with_timeline.json",
         "scenario: timeline: real_udp backend cannot schedule faults (no simulated links to fail)"},
        {"relay_no_clients.json",
         "scenario: relay.clients: needs at least one cohort"},
        {"seed_wrong_type.json",
         "scenario: seed: must be a number"},
        {"slo_no_metric.json",
         "scenario: slos[0].metric: required"},
        {"truncated.json",
         "scenario: invalid JSON at line 2, column 1: control character in string at offset 39"},
        {"unknown_key.json",
         "scenario: wrold: unknown key"},
        {"unknown_region.json",
         "scenario: classroom.rooms[0].region: unknown region 'Atlantis'"},
        {"wrong_version.json",
         "scenario: scenario_version: unsupported (this build understands version 1)"},
        {"zero_duration_event.json",
         "scenario: timeline[0].duration_s: must be > 0"},
    };
    for (const auto& [file, message] : pinned) {
        SCOPED_TRACE(file);
        try {
            (void)scenario_from_text(slurp(corpus_dir() + "/bad/" + file));
            ADD_FAILURE() << "accepted";
        } catch (const SpecError& e) {
            EXPECT_EQ(std::string{e.what()}, message);
        }
    }
}

// Numbers the reader must bound before converting: each of these once
// reached an out-of-range float->integer conversion (undefined behaviour) or
// was silently wrapped into a different spec.
TEST(SpecErrorTest, NumericBoundsRejected) {
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"count_overflow.json",
         "scenario: campus.pooled.buildings: must be at most 9007199254740992"},
        {"media_room_negative.json",
         "scenario: classroom.lecture_media_room: must be a non-negative integer"},
        {"max_level_wraps.json",
         "scenario: classroom.degradation.max_level: must be at most 62"},
        {"hold_overflow.json",
         "scenario: classroom.admission.hold_ms: out of range (int64 nanoseconds)"},
    };
    for (const auto& [file, message] : pinned) {
        SCOPED_TRACE(file);
        try {
            (void)scenario_from_text(slurp(corpus_dir() + "/bad/" + file));
            ADD_FAILURE() << "accepted";
        } catch (const SpecError& e) {
            EXPECT_EQ(std::string{e.what()}, message);
        }
    }
    // A fractional room index is rejected rather than truncated, and the
    // bounds themselves are accepted.
    EXPECT_THROW((void)scenario_from_text(
                     R"({"scenario_version": 1, "classroom": {"lecture_media_room": 1.5}})"),
                 SpecError);
    const ScenarioSpec edge = scenario_from_text(
        R"({"scenario_version": 1, "seed": 9007199254740992,
            "classroom": {"degradation": {"max_level": 62}}})");
    EXPECT_EQ(edge.seed, std::uint64_t{1} << 53);
    EXPECT_EQ(edge.classroom.degradation.params.max_level, 62);
}

}  // namespace
}  // namespace mvc::scenario
