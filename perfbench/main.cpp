// perfbench entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for --seconds of wall time and prints every metric with
// its unit, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics, the
// reconciliation of layer costs against run CPU time, and writes the kept
// spans under .bench_build/perfbench/traces/. Exit code 1 when a
// correctness gate fails, 2 on bad arguments, 3 when the run threw.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "core/wire_codecs.hpp"
#include "perfbench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

constexpr const char* kUsage =
    "usage: perfbench --workload campus_mingle|blended_classroom --seed N --seconds S "
    "--trace 0|1\n";

bool parse(int argc, char** argv, Options& o) {
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') return false;
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0)) return false;
        } else if (key == "--trace") {
            if (value != "0" && value != "1") return false;
            o.trace = value == "1";
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1;
}

void print_json(const Result& r) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    if (!parse(argc, argv, options)) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    options.threads = std::min<std::size_t>(4, nproc);

    Result (*run)(const Options&) = nullptr;
    if (options.workload == "campus_mingle") run = perfbench::run_campus_mingle;
    if (options.workload == "blended_classroom") run = perfbench::run_blended_classroom;
    if (run == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n%s", options.workload.c_str(),
                     kUsage);
        return 2;
    }

    // Keep freed memory in the process: each episode frees its world, and
    // handing that memory back to the kernel makes the next episode's
    // first touches page faults whose cost varies with the host's load.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_MMAP_THRESHOLD, 1 << 30);

    mvc::core::register_wire_codecs();
    Result result;
    try {
        if (options.trace) std::filesystem::create_directories(".bench_build/perfbench/traces");
        result = run(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 3;
    }
    for (const perfbench::Metric& m : result.metrics)
        if (!std::isfinite(m.value)) result.fail(m.name + " is not a finite number");
    if (result.attempted == 0) result.fail("no operations attempted");

    // Host stamp, kept apart from the measured and deterministic outputs.
    std::printf("host: nproc=%u worker_threads=%zu build=\"%s\"\n", nproc, options.threads,
                PERFBENCH_BUILD_STAMP);
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
    for (const perfbench::Metric& m : result.metrics)
        std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("attempted %llu, failed %llu, correct %s\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                result.correct ? "yes" : "NO");
    print_json(result);
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}
