// Micro-benchmarks (google-benchmark) for the hot paths of the classroom
// stack: avatar codec, Reed-Solomon coding, interest-grid queries, seat
// assignment, pose fusion, the event engine and the sensor-noise sampler.
// These bound how many participants a single edge/cloud process can sustain.

#include <benchmark/benchmark.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

#include "avatar/codec.hpp"
#include "edge/seats.hpp"
#include "net/fec.hpp"
#include "sensing/fusion.hpp"
#include "sensing/headset.hpp"
#include "sim/simulator.hpp"
#include "sync/interest.hpp"

using namespace mvc;

namespace {

avatar::AvatarState sample_state() {
    avatar::AvatarState s;
    s.participant = ParticipantId{5};
    s.root.pose = {{3.2, 0.0, -7.5}, math::Quat::from_yaw_pitch_roll(0.4, 0.1, 0.0)};
    s.root.linear_velocity = {0.5, 0.0, -0.2};
    s.body.head = {s.root.pose.position + math::Vec3{0, 0.65, 0},
                   s.root.pose.orientation};
    s.body.left_hand = s.body.head;
    s.body.right_hand = s.body.head;
    s.expression.assign(avatar::kExpressionChannels, 0.25);
    return s;
}

void BM_CodecEncodeFull(benchmark::State& state) {
    const avatar::AvatarCodec codec;
    const avatar::AvatarState s = sample_state();
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode_full(s));
    }
}
BENCHMARK(BM_CodecEncodeFull);

void BM_CodecDecodeFull(benchmark::State& state) {
    const avatar::AvatarCodec codec;
    const auto bytes = codec.encode_full(sample_state());
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.decode_full(bytes));
    }
}
BENCHMARK(BM_CodecDecodeFull);

void BM_CodecEncodeDelta(benchmark::State& state) {
    const avatar::AvatarCodec codec;
    const avatar::AvatarState a = sample_state();
    avatar::AvatarState b = a;
    b.root.pose.position += math::Vec3{0.05, 0.0, 0.02};
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode_delta(a, b));
    }
}
BENCHMARK(BM_CodecEncodeDelta);

void BM_ReedSolomonEncode(benchmark::State& state) {
    const auto k = static_cast<std::size_t>(state.range(0));
    const net::ReedSolomon rs{k, 4};
    std::vector<std::vector<std::uint8_t>> shards(k, std::vector<std::uint8_t>(1200));
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < 1200; ++j) {
            shards[i][j] = static_cast<std::uint8_t>(i * 31 + j);
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(rs.encode(shards));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k * 1200));
}
BENCHMARK(BM_ReedSolomonEncode)->Arg(4)->Arg(8)->Arg(16);

void BM_ReedSolomonReconstruct(benchmark::State& state) {
    const std::size_t k = 8;
    const net::ReedSolomon rs{k, 4};
    std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(1200));
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < 1200; ++j) {
            data[i][j] = static_cast<std::uint8_t>(i * 17 + j);
        }
    }
    const auto parity = rs.encode(data);
    for (auto _ : state) {
        std::vector<std::optional<std::vector<std::uint8_t>>> shards;
        for (const auto& d : data) shards.emplace_back(d);
        for (const auto& p : parity) shards.emplace_back(p);
        shards[1].reset();
        shards[4].reset();
        benchmark::DoNotOptimize(rs.reconstruct(shards));
    }
}
BENCHMARK(BM_ReedSolomonReconstruct);

void BM_InterestGridQuery(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    sync::InterestGrid grid{4.0};
    sim::Rng rng{7};
    for (std::uint32_t i = 1; i <= n; ++i) {
        grid.update(EntityId{i},
                    {rng.uniform(-40.0, 40.0), 0.0, rng.uniform(-40.0, 40.0)});
    }
    grid.rebuild();
    std::vector<EntityId> out;
    for (auto _ : state) {
        grid.query_radius_into({0, 0, 0}, 12.0, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_InterestGridQuery)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SeatAssignmentOptimal(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng{9};
    edge::SeatMap seats = edge::SeatMap::grid(8, 8);
    std::vector<edge::SeatRequest> requests;
    for (std::uint32_t i = 1; i <= n; ++i) {
        requests.push_back({ParticipantId{i},
                            {rng.uniform(-4.0, 4.0), 0.0, rng.uniform(1.0, 7.0)}});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(assign_seats_optimal(seats, requests));
    }
}
BENCHMARK(BM_SeatAssignmentOptimal)->Arg(8)->Arg(24)->Arg(64);

void BM_PoseFusionObserve(benchmark::State& state) {
    sensing::PoseFusion fusion;
    sensing::SensorSample s;
    s.participant = ParticipantId{1};
    s.source = sensing::SensorSource::Headset;
    s.expression.assign(16, 0.4);
    std::int64_t t = 0;
    for (auto _ : state) {
        s.captured_at = sim::Time::us(t += 11'000);
        s.pose.position = {std::sin(static_cast<double>(t) * 1e-6), 1.2,
                           std::cos(static_cast<double>(t) * 1e-6)};
        fusion.observe(s);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_PoseFusionObserve);

void BM_SimulatorEventChurn(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulator sim;
        int counter = 0;
        for (int i = 0; i < 1000; ++i) {
            sim.schedule_at(sim::Time::us(i), [&counter] { ++counter; });
        }
        sim.run_all();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_RngNormal(benchmark::State& state) {
    sim::Rng rng{1};
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngNormal);

// One tethered-preset headset sample (32 expression channels, about 39
// normal draws) per iteration, including the periodic event that fires it.
void BM_HeadsetSample(benchmark::State& state) {
    sim::Simulator sim{1};
    sensing::GroundTruth truth;
    truth.kinematics.pose.position = {1.0, 1.2, -3.0};
    truth.expression.assign(sensing::kMaxExpressionChannels, 0.4);
    sensing::Headset headset{sim, "bench", ParticipantId{1}, sensing::tethered_mr_params(),
                             [&truth] { return truth; },
                             [](sensing::SensorSample&& s) { benchmark::DoNotOptimize(s); }};
    headset.start();
    for (auto _ : state) {
        sim.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HeadsetSample);

void BM_HungarianSquare(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng{11};
    std::vector<std::vector<double>> cost(n, std::vector<double>(n));
    for (auto& row : cost) {
        for (auto& c : row) c = rng.uniform(0.0, 100.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(edge::hungarian(cost));
    }
}
BENCHMARK(BM_HungarianSquare)->Arg(16)->Arg(64)->Arg(128);

}  // namespace

// Custom driver (replaces benchmark_main): runs the registered benchmarks
// through the normal console reporter while capturing every per-run real/cpu
// time into a MetricsRecorder, then writes BENCH_micro.json alongside the
// other experiment artifacts.
class RecordingReporter : public benchmark::ConsoleReporter {
public:
    explicit RecordingReporter(sim::MetricsRecorder& metrics) : metrics_(metrics) {}

    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& run : runs) {
            if (run.error_occurred) continue;
            const std::string name = run.benchmark_name();
            metrics_.sample(name + " / real_ns", run.GetAdjustedRealTime());
            metrics_.sample(name + " / cpu_ns", run.GetAdjustedCPUTime());
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

private:
    sim::MetricsRecorder& metrics_;
};

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    mvc::bench::Session session{"micro"};
    RecordingReporter reporter{session.metrics()};
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return session.finish();
}
