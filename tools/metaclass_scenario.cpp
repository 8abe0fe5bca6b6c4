// metaclass_scenario — run, validate and fuzz declarative scenario specs.
//
//   metaclass_scenario run [--json] [--threads N] spec.scenario.json
//       build the declared world, drive it, print the SLO verdicts (plus the
//       class report for classroom worlds) or the full report as JSON, and
//       exit nonzero if any SLO gate failed
//   metaclass_scenario validate spec.scenario.json...
//       strict-parse each file; print the field-path error for bad ones
//   metaclass_scenario fuzz [--iters N] [--seconds S] [--seed K] spec.scenario.json
//       mutate the spec N times (or for S wall seconds), running every valid
//       mutant twice with the same seed; exit nonzero on crash or divergence
//   metaclass_scenario fuzz-trace [--iters N] [--seed K] file.mvctrace
//       corrupt recorded trace bytes; Trace::verify/parse must never crash
//   metaclass_scenario example
//       print an annotated example spec
//   metaclass_scenario experiments
//       list the experiment registry (E1..E23) and the bench binaries
//
// Specs are versioned JSON; see scenarios/*.scenario.json for shipped ones.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "experiment_registry.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/runner.hpp"
#include "scenario/world.hpp"

namespace {

constexpr const char* kExampleSpec = R"json({
  "scenario_version": 1,
  "name": "example-exam",
  "world": "classroom",
  "backend": "sim",
  "seed": 42,
  "duration_s": 60,
  "hash_ms": 100,
  "classroom": {
    "course": "COMP4461: HCI (blended)",
    "rooms": [
      {"preset": "cwb", "students": 8, "instructor": true},
      {"preset": "gz", "students": 6}
    ],
    "remote": [
      {"region": "Seoul", "count": 2},
      {"region": "London", "count": 1, "join_at_s": 10}
    ],
    "lecture_media_room": 0,
    "schedule": [
      {"activity": "lecture", "minutes": 0.5},
      {"activity": "qa", "minutes": 0.5}
    ]
  },
  "timeline": [
    {"kind": "loss_burst", "at_s": 20, "duration_s": 5,
     "a": "edge/0", "b": "edge/1", "loss": 0.3}
  ],
  "slos": [
    {"metric": "mr.display_latency_ms.p95", "max": 50},
    {"metric": "scenario.hash_epochs", "min": 1}
  ]
})json";

int usage() {
    std::fprintf(stderr,
                 "usage: metaclass_scenario run [--json] [--threads N] <spec>\n"
                 "       metaclass_scenario validate <spec>...\n"
                 "       metaclass_scenario fuzz [--iters N] [--seconds S] "
                 "[--seed K] <spec>\n"
                 "       metaclass_scenario fuzz-trace [--iters N] [--seed K] "
                 "<trace>\n"
                 "       metaclass_scenario example\n"
                 "       metaclass_scenario experiments\n");
    return 2;
}

void print_experiments() {
    std::printf("%-6s %-32s %s\n", "id", "binary (build/bench/)", "title");
    for (const auto& e : mvc::tools::kExperiments) {
        std::printf("%-6s %-32s %s\n", e.id, e.binary, e.title);
        std::printf("       claim: %s\n", e.claim);
    }
    std::printf("\nmeasured results per id: EXPERIMENTS.md; each binary writes "
                "BENCH_<id>.json\n");
}

int cmd_run(int argc, char** argv) {
    bool as_json = false;
    std::size_t threads = 1;
    const char* path = nullptr;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            as_json = true;
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (argv[i][0] == '-' || path != nullptr) {
            return usage();
        } else {
            path = argv[i];
        }
    }
    if (path == nullptr) return usage();

    const mvc::scenario::ScenarioSpec spec = mvc::scenario::load_spec_file(path);
    const std::unique_ptr<mvc::scenario::ScenarioWorld> world = mvc::scenario::build(spec);
    const mvc::scenario::ScenarioReport report = mvc::scenario::run_world(*world, threads);
    if (as_json) {
        std::puts(mvc::scenario::report_to_json(report).dump(2).c_str());
    } else {
        std::printf("%s\n", report.stamp.c_str());
        std::printf("hash epochs: %zu\n", report.hashes.size());
        for (const mvc::scenario::SloResult& r : report.slos) {
            std::printf("  [%s] %-36s", r.passed ? "ok" : "FAIL",
                        r.gate.metric.c_str());
            if (r.value)
                std::printf(" value=%.3f", *r.value);
            else
                std::printf(" value=<missing>");
            if (r.gate.min) std::printf(" min=%.3f", *r.gate.min);
            if (r.gate.max) std::printf(" max=%.3f", *r.gate.max);
            std::printf("\n");
        }
        if (spec.world == mvc::scenario::WorldKind::Classroom) {
            std::printf("course: %s\n", spec.classroom.course.c_str());
            std::printf("simulated: %.0f s\n", spec.duration.to_seconds());
            std::fputs(world->classroom().report().summary().c_str(), stdout);
        }
        std::printf("%s\n", report.passed ? "PASS" : "FAIL");
    }
    return report.passed ? 0 : 1;
}

int cmd_validate(int argc, char** argv) {
    if (argc == 0) return usage();
    int bad = 0;
    for (int i = 0; i < argc; ++i) {
        try {
            const mvc::scenario::ScenarioSpec spec =
                mvc::scenario::load_spec_file(argv[i]);
            std::printf("%s: ok (%s)\n", argv[i],
                        mvc::scenario::spec_stamp(spec).c_str());
        } catch (const std::exception& e) {
            std::printf("%s: %s\n", argv[i], e.what());
            ++bad;
        }
    }
    return bad == 0 ? 0 : 1;
}

void print_fuzz_report(const mvc::scenario::FuzzReport& report) {
    std::printf("iterations=%zu ran=%zu rejected=%zu failures=%zu\n",
                report.iterations, report.ran, report.rejected,
                report.failures.size());
    for (const mvc::scenario::FuzzFailure& f : report.failures)
        std::printf("  FAIL salt=%zu: %s\n", f.iteration, f.what.c_str());
}

int cmd_fuzz(int argc, char** argv) {
    std::size_t iters = 50;
    double seconds = 0.0;
    std::uint64_t seed = 1;
    const char* path = nullptr;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
            iters = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (argv[i][0] == '-' || path != nullptr) {
            return usage();
        } else {
            path = argv[i];
        }
    }
    if (path == nullptr) return usage();

    const mvc::scenario::ScenarioSpec base = mvc::scenario::load_spec_file(path);
    mvc::scenario::FuzzOptions options;
    options.seed = seed;
    mvc::scenario::FuzzReport total;
    if (seconds > 0.0) {
        // Time-boxed mode for CI smokes: batches until the budget runs out.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::duration<double>(seconds);
        constexpr std::size_t kBatch = 5;
        options.iterations = kBatch;
        while (std::chrono::steady_clock::now() < deadline) {
            const mvc::scenario::FuzzReport batch =
                mvc::scenario::fuzz_specs(base, options);
            total.iterations += batch.iterations;
            total.ran += batch.ran;
            total.rejected += batch.rejected;
            total.failures.insert(total.failures.end(), batch.failures.begin(),
                                  batch.failures.end());
            options.seed += kBatch;
        }
    } else {
        options.iterations = iters;
        total = mvc::scenario::fuzz_specs(base, options);
    }
    print_fuzz_report(total);
    return total.ok() ? 0 : 1;
}

int cmd_fuzz_trace(int argc, char** argv) {
    std::size_t iters = 200;
    std::uint64_t seed = 1;
    const char* path = nullptr;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
            iters = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (argv[i][0] == '-' || path != nullptr) {
            return usage();
        } else {
            path = argv[i];
        }
    }
    if (path == nullptr) return usage();

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "metaclass_scenario: cannot open '%s'\n", path);
        return 1;
    }
    std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
    mvc::scenario::FuzzOptions options;
    options.iterations = iters;
    options.seed = seed;
    const mvc::scenario::FuzzReport report =
        mvc::scenario::fuzz_trace(bytes, options);
    print_fuzz_report(report);
    return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const char* cmd = argv[1];
    try {
        if (std::strcmp(cmd, "run") == 0) return cmd_run(argc - 2, argv + 2);
        if (std::strcmp(cmd, "validate") == 0) return cmd_validate(argc - 2, argv + 2);
        if (std::strcmp(cmd, "fuzz") == 0) return cmd_fuzz(argc - 2, argv + 2);
        if (std::strcmp(cmd, "fuzz-trace") == 0)
            return cmd_fuzz_trace(argc - 2, argv + 2);
        if (std::strcmp(cmd, "example") == 0) {
            std::puts(kExampleSpec);
            return 0;
        }
        if (std::strcmp(cmd, "experiments") == 0) {
            print_experiments();
            return 0;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "metaclass_scenario: %s\n", e.what());
        return 1;
    }
    return usage();
}
