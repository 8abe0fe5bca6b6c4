// Tests for the declarative scenario engine: strict spec parsing with field
// paths and line/column context, lossless JSON round-trips, timeline ->
// FaultPlan compilation, deterministic world runs (classroom, relay+chaos,
// campus thread sweep), SLO evaluation, the mutation fuzzer's determinism,
// and the crash-regression corpus under tests/corpus/.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
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

}  // namespace
}  // namespace mvc::scenario
