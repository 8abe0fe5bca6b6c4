// bench::Session judges a bench's expected shape with the scenario engine's
// SLO evaluator: its exit code, the artifact's "passed" verdict and its
// "slos" rows all come from the gates the bench declared.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json.hpp"
#include "scenario/runner.hpp"

namespace mvc::bench {
namespace {

namespace fs = std::filesystem;
using common::Json;

/// Runs each test in a fresh scratch directory, where Session writes its
/// BENCH_<id>.json.
class SessionTest : public ::testing::Test {
protected:
    void SetUp() override {
        const std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        dir_ = fs::temp_directory_path() / ("bench_session_" + name);
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        home_ = fs::current_path();
        fs::current_path(dir_);
    }
    void TearDown() override {
        fs::current_path(home_);
        fs::remove_all(dir_);
    }

    [[nodiscard]] static Json artifact(const std::string& id) {
        std::ifstream in{"BENCH_" + id + ".json", std::ios::binary};
        std::ostringstream text;
        text << in.rdbuf();
        return Json::parse(text.str());
    }

private:
    fs::path dir_;
    fs::path home_;
};

TEST_F(SessionTest, FailingGateFailsExitCodeAndArtifact) {
    Session session{"e2"};
    session.record("ratio", 3.0);
    session.gate({"ratio.max", {}, 5.0});   // holds
    session.gate({"ratio.min", 10.0, {}});  // fails: 3 < 10
    EXPECT_NE(session.finish(), 0);

    const Json doc = artifact("e2");
    EXPECT_EQ(doc.as_object().at("passed"), Json{false});
    const auto& rows = doc.as_object().at("slos").as_array();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].as_object().at("passed"), Json{true});
    EXPECT_EQ(rows[1].as_object().at("passed"), Json{false});
    EXPECT_EQ(rows[1].as_object().at("value"), Json{3.0});
}

TEST_F(SessionTest, GateOnUnrecordedMetricFails) {
    Session session{"e2"};
    session.count("drops", 0);
    session.gate({"drops", {}, 0.0});      // holds
    session.gate({"dorps", {}, 0.0});      // typo: never recorded
    EXPECT_NE(session.finish(), 0);

    const Json doc = artifact("e2");
    EXPECT_EQ(doc.as_object().at("passed"), Json{false});
    const auto& rows = doc.as_object().at("slos").as_array();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].as_object().at("passed"), Json{true});
    EXPECT_EQ(rows[1].as_object().at("passed"), Json{false});
    EXPECT_TRUE(rows[1].as_object().at("value").is_null());
}

TEST_F(SessionTest, SloRowsAreTheScenarioReportRows) {
    const std::vector<scenario::SloGate> gates = {
        {"lat_ms.p95", {}, 50.0}, {"drops", 1.0, 2.0}, {"missing", 0.0, {}}};
    Session session{"e2"};
    session.record("lat_ms", 12.5);
    session.count("drops", 3);
    for (const scenario::SloGate& g : gates) session.gate(g);
    (void)session.finish();

    sim::MetricsRecorder metrics;
    metrics.sample("lat_ms", 12.5);
    metrics.count("drops", 3);
    scenario::ScenarioReport report;
    report.slos = scenario::evaluate_slos(metrics, gates);
    EXPECT_EQ(artifact("e2").as_object().at("slos").dump(2),
              scenario::report_to_json(report).as_object().at("slos").dump(2));
}

TEST_F(SessionTest, WallClockGateIsJudgedUnderTiming) {
    Session session{"e2"};
    session.record("ratio", 20.0);
    session.timing("us_per_item", 3.0);
    session.gate({"ratio.min", 10.0, {}});
    session.gate({"us_per_item.max", {}, 2.0});  // fails: 3 > 2
    EXPECT_NE(session.finish(), 0);

    const Json doc = artifact("e2");
    EXPECT_EQ(doc.as_object().at("passed"), Json{false});
    // The deterministic part holds only deterministic rows.
    ASSERT_EQ(doc.as_object().at("slos").as_array().size(), 1u);
    const auto& timing = doc.as_object().at("timing").as_object();
    EXPECT_TRUE(timing.at("series").as_object().contains("us_per_item"));
    const auto& timed = timing.at("slos").as_array();
    ASSERT_EQ(timed.size(), 1u);
    EXPECT_EQ(timed[0].as_object().at("passed"), Json{false});
}

}  // namespace
}  // namespace mvc::bench
