// metaclass_scenario — run, validate and fuzz declarative scenario specs.
//
//   metaclass_scenario run [--json] [--threads N] spec.scenario.json
//       build the declared world, drive it, print the SLO verdicts (plus the
//       class report for classroom worlds) or the full report as JSON, and
//       exit nonzero if any SLO gate failed
//   metaclass_scenario sweep [--vary path=v1,v2,...]... [--threads t1,t2,...]
//                            spec.scenario.json
//       run the spec at every point of the overrides' product, once per
//       thread count; check that every run of a point is byte-identical to
//       its first, write BENCH_<spec name>.json, and exit nonzero if an SLO
//       or identity check failed
//   metaclass_scenario validate spec.scenario.json...
//       strict-parse each file; print the field-path error for bad ones
//   metaclass_scenario fuzz [--iters N] [--seconds S] [--seed K] spec.scenario.json
//       mutate the spec N times (or for S wall seconds), running every valid
//       mutant twice with the same seed; exit nonzero on crash or divergence
//   metaclass_scenario fuzz-trace [--iters N] [--seed K] file.mvctrace
//       corrupt recorded trace bytes; Trace::verify/parse must never crash
//   metaclass_scenario fuzz-frame [--iters N] [--seed K] [frame...]
//       check each saved datagram frame, then mutate them and one frame per
//       registered wire tag N times; decode_frame must reject a mutant or
//       decode it into a frame that re-encodes to the same bytes
//   metaclass_scenario example
//       print an annotated example spec
//   metaclass_scenario experiments
//       list the experiment registry (E1..E23) and the command behind each
//
// Specs are versioned JSON; see scenarios/*.scenario.json for shipped ones.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/classroom.hpp"
#include "experiment_registry.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
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
                 "       metaclass_scenario sweep [--vary <path>=v1,v2,...]... "
                 "[--threads t1,t2,...] <spec>\n"
                 "       metaclass_scenario validate <spec>...\n"
                 "       metaclass_scenario fuzz [--iters N] [--seconds S] "
                 "[--seed K] <spec>\n"
                 "       metaclass_scenario fuzz-trace [--iters N] [--seed K] "
                 "<trace>\n"
                 "       metaclass_scenario fuzz-frame [--iters N] [--seed K] "
                 "[<frame>...]\n"
                 "       metaclass_scenario example\n"
                 "       metaclass_scenario experiments\n");
    return 2;
}

/// Split `argv` into options and one positional path. `option(flag, next)`
/// applies one option (`next` is the following argument, or nullptr) and
/// returns how many arguments it used, 0 for an unknown or incomplete one.
/// Returns the path, or nullptr for a usage error.
template <class Option>
const char* parse_args(int argc, char** argv, Option option) {
    const char* path = nullptr;
    for (int i = 0; i < argc;) {
        if (argv[i][0] != '-' && path == nullptr) {
            path = argv[i++];
            continue;
        }
        const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
        const int used = argv[i][0] == '-' ? option(std::string_view{argv[i]}, next) : 0;
        if (used == 0) return nullptr;
        i += used;
    }
    return path;
}

void print_experiments() {
    for (const auto& e : mvc::tools::kExperiments) {
        std::printf("%-6s %s\n", e.id, e.title);
        std::printf("       run:   %s\n", e.run);
        std::printf("       claim: %s\n", e.claim);
    }
    std::printf("\nmeasured results per id: EXPERIMENTS.md; each run writes "
                "BENCH_<name>.json\n");
}

int cmd_run(int argc, char** argv) {
    bool as_json = false;
    std::size_t threads = 1;
    const char* path = parse_args(argc, argv, [&](std::string_view flag, const char* next) {
        if (flag == "--json") {
            as_json = true;
            return 1;
        }
        if (flag != "--threads" || next == nullptr) return 0;
        threads = static_cast<std::size_t>(std::strtoul(next, nullptr, 10));
        return 2;
    });
    if (path == nullptr) return usage();

    const mvc::scenario::ScenarioSpec spec = mvc::scenario::load_spec_file(path);
    const std::unique_ptr<mvc::scenario::ScenarioWorld> world = mvc::scenario::build(spec);
    const mvc::scenario::ScenarioReport report = mvc::scenario::run_world(*world, threads);
    if (as_json) {
        std::puts(mvc::scenario::report_to_json(report).dump(2).c_str());
    } else {
        std::printf("%s\n", report.stamp.c_str());
        std::printf("hash epochs: %zu\n", report.hashes.size());
        mvc::scenario::print_slos(report.slos);
        if (spec.world == mvc::scenario::WorldKind::Classroom) {
            std::printf("course: %s\n", spec.classroom.course.c_str());
            std::printf("simulated: %.0f s\n", spec.duration.to_seconds());
            std::fputs(world->classroom().report().summary().c_str(), stdout);
        }
        std::printf("%s\n", report.passed ? "PASS" : "FAIL");
    }
    return report.passed ? 0 : 1;
}

int cmd_sweep(int argc, char** argv) {
    std::vector<mvc::scenario::VaryAxis> axes;
    std::vector<std::size_t> threads{1};
    const char* path = nullptr;
    try {
        path = parse_args(argc, argv, [&](std::string_view flag, const char* next) {
            if (next == nullptr) return 0;
            if (flag == "--vary") axes.push_back(mvc::scenario::parse_vary(next));
            else if (flag == "--threads") threads = mvc::scenario::parse_threads(next);
            else return 0;
            return 2;
        });
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "metaclass_scenario: %s\n", e.what());
    }
    if (path == nullptr) return usage();

    const mvc::scenario::Sweep sweep =
        mvc::scenario::run_sweep(mvc::scenario::read_spec_file(path), axes, threads);
    for (const mvc::scenario::SweepPoint& point : sweep.points) {
        const mvc::scenario::ScenarioReport& first = point.runs.front();
        std::printf("\n%s %s\n  %8s %12s %10s %14s %8s\n", first.stamp.c_str(),
                    mvc::common::Json{point.overrides}.dump().c_str(), "threads", "events",
                    "wall s", "events/s", "speedup");
        const double first_rate = mvc::scenario::events_per_s(first);
        for (std::size_t i = 0; i < point.runs.size(); ++i) {
            const mvc::scenario::ScenarioReport& r = point.runs[i];
            const double rate = mvc::scenario::events_per_s(r);
            std::printf("  %8zu %12zu %10.3f %14.0f %7.2fx\n", sweep.threads[i], r.events,
                        r.wall_seconds, rate, first_rate > 0.0 ? rate / first_rate : 0.0);
        }
        mvc::scenario::print_slos(first.slos);
        if (point.runs.size() > 1)
            std::printf("  identity over %zu runs: %s\n", point.runs.size(),
                        point.identical ? "byte-identical" : "DIVERGED");
    }

    const std::string file = "BENCH_" + sweep.name + ".json";
    const std::string body =
        mvc::scenario::sweep_to_json(sweep, METACLASS_BUILD_FLAGS).dump(2) + "\n";
    std::ofstream out(file, std::ios::binary);
    if (!(out << body)) {
        std::fprintf(stderr, "metaclass_scenario: cannot write %s\n", file.c_str());
        return 1;
    }
    std::printf("\n%s -> %s\n", sweep.passed() ? "PASS" : "FAIL", file.c_str());
    return sweep.passed() ? 0 : 1;
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
    const char* path = parse_args(argc, argv, [&](std::string_view flag, const char* next) {
        if (next == nullptr) return 0;
        if (flag == "--iters") iters = static_cast<std::size_t>(std::strtoul(next, nullptr, 10));
        else if (flag == "--seconds") seconds = std::strtod(next, nullptr);
        else if (flag == "--seed") seed = std::strtoull(next, nullptr, 10);
        else return 0;
        return 2;
    });
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
    const char* path = parse_args(argc, argv, [&](std::string_view flag, const char* next) {
        if (next == nullptr) return 0;
        if (flag == "--iters") iters = static_cast<std::size_t>(std::strtoul(next, nullptr, 10));
        else if (flag == "--seed") seed = std::strtoull(next, nullptr, 10);
        else return 0;
        return 2;
    });
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

int cmd_fuzz_frame(int argc, char** argv) {
    std::size_t iters = 2000;
    std::uint64_t seed = 1;
    std::vector<std::vector<std::byte>> seeds = mvc::scenario::seed_frames();
    std::size_t bad = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg{argv[i]};
        if ((arg == "--iters" || arg == "--seed") && i + 1 < argc) {
            const char* next = argv[++i];
            if (arg == "--iters") iters = static_cast<std::size_t>(std::strtoul(next, nullptr, 10));
            else seed = std::strtoull(next, nullptr, 10);
            continue;
        }
        if (arg.starts_with("-")) return usage();
        std::ifstream in(argv[i], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "metaclass_scenario: cannot open '%s'\n", argv[i]);
            return 1;
        }
        const std::string raw{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
        const auto frame = std::as_bytes(std::span{raw});
        // A saved frame is a regression case first and a seed second.
        bool decoded = false;
        const std::string failure = mvc::scenario::check_frame(frame, decoded);
        if (!failure.empty()) {
            std::printf("  FAIL %s: %s\n", argv[i], failure.c_str());
            ++bad;
        }
        seeds.emplace_back(frame.begin(), frame.end());
    }
    mvc::scenario::FuzzOptions options;
    options.iterations = iters;
    options.seed = seed;
    const mvc::scenario::FuzzReport report = mvc::scenario::fuzz_frames(seeds, options);
    print_fuzz_report(report);
    return report.ok() && bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const char* cmd = argv[1];
    try {
        if (std::strcmp(cmd, "run") == 0) return cmd_run(argc - 2, argv + 2);
        if (std::strcmp(cmd, "sweep") == 0) return cmd_sweep(argc - 2, argv + 2);
        if (std::strcmp(cmd, "validate") == 0) return cmd_validate(argc - 2, argv + 2);
        if (std::strcmp(cmd, "fuzz") == 0) return cmd_fuzz(argc - 2, argv + 2);
        if (std::strcmp(cmd, "fuzz-trace") == 0)
            return cmd_fuzz_trace(argc - 2, argv + 2);
        if (std::strcmp(cmd, "fuzz-frame") == 0)
            return cmd_fuzz_frame(argc - 2, argv + 2);
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
