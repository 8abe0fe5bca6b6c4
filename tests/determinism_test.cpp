// End-to-end determinism: the bench binaries must write byte-identical
// BENCH_<id>.json artifacts on every same-seed run — including E16's sweep,
// whose quick form runs 1 and 2 worker threads, so this also pins "same
// bytes for 1 vs N threads" at the whole-experiment level. Every model bench
// (E1-E13) must also pass its own gates: its exit code is their verdict.
//
// The binaries live under build/bench and build/tools (METACLASS_BENCH_DIR
// and METACLASS_SCENARIO_BIN, injected by the tests CMakeLists); each run
// gets its own scratch directory so artifacts cannot collide.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace {

namespace fs = std::filesystem;
namespace common = mvc::common;

std::string read_file(const fs::path& p) {
    std::ifstream in{p, std::ios::binary};
    EXPECT_TRUE(in.good()) << "missing artifact: " << p;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Run `binary` (with `args` appended) in a fresh scratch dir; return the
/// bytes of the BENCH_<id>.json it wrote.
std::string run_bench(const fs::path& binary, const std::string& id,
                      const std::string& args, const std::string& tag) {
    if (!fs::exists(binary)) {
        ADD_FAILURE() << "binary not built: " << binary;
        return {};
    }
    const fs::path dir = fs::temp_directory_path() / ("determinism_" + id + "_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string cmd = "cd " + dir.string() + " && " + binary.string() + " " + args +
                            " > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(rc, 0) << cmd;
    const std::string bytes = read_file(dir / ("BENCH_" + id + ".json"));
    fs::remove_all(dir);
    return bytes;
}

TEST(DeterminismTest, E4ArtifactByteIdenticalAcrossRuns) {
    const fs::path bench = fs::path{METACLASS_BENCH_DIR} / "bench_e4_interest_mgmt";
    // The two runs write into separate directories, so they run side by side.
    auto run_a = std::async(std::launch::async,
                            [&bench] { return run_bench(bench, "e4", "", "a"); });
    const std::string b = run_bench(bench, "e4", "", "b");
    const std::string a = run_a.get();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(DeterminismTest, E16ArtifactByteIdenticalAcrossRunsAndThreadCounts) {
    // The quick E16 sweep runs the sharded deployment at 1 and 2 worker
    // threads and checks that both runs match; only the artifact's `timing`
    // object may differ between two invocations.
    const std::string args = std::string{METACLASS_SCENARIO_DIR} +
                             "/e16.scenario.json --vary campus.clients_per_region=6 "
                             "--vary duration_s=1 --threads 1,2";
    const fs::path tool = fs::path{METACLASS_SCENARIO_BIN};
    const std::string a = run_bench(tool, "e16", "sweep " + args, "a");
    const std::string b = run_bench(tool, "e16", "sweep " + args, "b");
    ASSERT_FALSE(a.empty());
    common::Json ja = common::Json::parse(a);
    common::Json jb = common::Json::parse(b);
    ASSERT_TRUE(ja.as_object().erase("timing") == 1 && jb.as_object().erase("timing") == 1);
    EXPECT_EQ(ja.dump(2), jb.dump(2));
    const common::Json& point = ja.as_object().at("points").as_array().at(0);
    EXPECT_EQ(point.as_object().at("identical"), common::Json{true})
        << "e16 reported a cross-thread-count metrics mismatch";
    const common::Json& counters =
        point.as_object().at("report").as_object().at("metrics").as_object().at("counters");
    EXPECT_EQ(counters.as_object().at("shard.lookahead_violations"), common::Json{0})
        << "e16 reported lookahead violations";
}

/// The model benches other than E4 (which the byte-identity test above
/// already runs), plus E14's failover and degradation gates: each exits 0
/// at its committed seed and sizes, and its artifact records the verdict.
class ModelBenchTest : public ::testing::TestWithParam<const char*> {};

/// "bench_e10_clock_jitter" -> "e10".
std::string bench_id(const std::string& binary) {
    return binary.substr(6, binary.find('_', 6) - 6);
}

TEST_P(ModelBenchTest, EveryGateHolds) {
    const std::string binary = GetParam();
    const std::string id = bench_id(binary);
    const std::string bytes =
        run_bench(fs::path{METACLASS_BENCH_DIR} / binary, id, "", "verdict");
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(common::Json::parse(bytes).as_object().at("passed"), common::Json{true});
}

INSTANTIATE_TEST_SUITE_P(
    Benches, ModelBenchTest,
    ::testing::Values("bench_e1_latency_breakdown", "bench_e2_avatar_vs_video",
                      "bench_e3_scalability_regions", "bench_e5_dead_reckoning",
                      "bench_e6_split_rendering", "bench_e7_video_fec",
                      "bench_e8_cybersickness", "bench_e9_seat_assignment",
                      "bench_e10_clock_jitter", "bench_e11_edge_ablation",
                      "bench_e12_content_privacy", "bench_e13_jitter_ablation",
                      "bench_e14_fault_recovery"),
    [](const ::testing::TestParamInfo<const char*>& info) { return bench_id(info.param); });

}  // namespace
