#pragma once
// Mutation fuzzing for the scenario engine, the trace format and the
// datagram decoders a socket can reach.
//
// fuzz_specs() perturbs a base ScenarioSpec (seeds, cohort sizes, fault
// window timings) through named sim::Rng streams and replays every surviving
// mutant TWICE with the same seed: the engine's contract is that a valid
// spec either parses+builds+runs deterministically (byte-identical hash
// stream and metrics) or is rejected with a SpecError — it never crashes and
// never diverges. fuzz_trace() batters recorded trace bytes (bit flips,
// truncations, splices): Trace::verify must always return a report and
// Trace::parse must either succeed or throw TraceError. fuzz_frames()
// batters datagram frames (bit flips, truncations, splices between frames,
// varint bumps) and decodes each mutant twice, as it is and with its CRC
// recomputed, so mutations also reach the header varints and every
// registered payload decoder: decode_frame must return nullopt or a frame
// that re-encodes to the identical bytes.
//
// All are deterministic in (input, options.seed): CI failures reproduce.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace mvc::scenario {

struct FuzzOptions {
    std::size_t iterations{50};
    std::uint64_t seed{1};
    /// Cap every mutant's run length so fuzzing stays fast; zero keeps the
    /// base spec's duration.
    sim::Time duration_cap{sim::Time::seconds(5.0)};
};

struct FuzzFailure {
    std::size_t iteration{0};
    std::string what;
};

struct FuzzReport {
    std::size_t iterations{0};
    std::size_t ran{0};       ///< mutants that built and ran
    std::size_t rejected{0};  ///< mutants the validator refused (expected)
    std::vector<FuzzFailure> failures;
    [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// One deterministic mutation of `base`, keyed by (base.seed, salt).
[[nodiscard]] ScenarioSpec mutate_spec(const ScenarioSpec& base, std::uint64_t salt);

/// One deterministic corruption of trace bytes, keyed by salt.
[[nodiscard]] std::vector<std::uint8_t> mutate_trace(std::vector<std::uint8_t> bytes,
                                                     std::uint64_t salt);

/// One frame per registered wire tag (core::register_wire_codecs, which this
/// calls): the seeds frame fuzzing starts from.
[[nodiscard]] std::vector<std::vector<std::byte>> seed_frames();

/// One deterministic corruption of a frame picked from `seeds`, keyed by salt.
[[nodiscard]] std::vector<std::byte> mutate_frame(
    const std::vector<std::vector<std::byte>>& seeds, std::uint64_t salt);

/// Decode `frame` and check the decoder's contract. Returns an empty string
/// when it holds (`decoded` says whether the frame was accepted), else what
/// broke. Never throws.
[[nodiscard]] std::string check_frame(std::span<const std::byte> frame, bool& decoded);

[[nodiscard]] FuzzReport fuzz_specs(const ScenarioSpec& base, const FuzzOptions& options);

[[nodiscard]] FuzzReport fuzz_trace(const std::vector<std::uint8_t>& bytes,
                                    const FuzzOptions& options);

/// `options.iterations` mutants of `seeds`, each checked as it is and with
/// its CRC resealed; ran/rejected count accepted/rejected decodes.
[[nodiscard]] FuzzReport fuzz_frames(const std::vector<std::vector<std::byte>>& seeds,
                                     const FuzzOptions& options);

}  // namespace mvc::scenario
