// Deterministic mutation fuzzer for every decoder that parses bytes it
// did not write: the DEFLATE and gzip inflaters, the LZ4 block decoder,
// the msgpack unpacker, the NDP select parameters and stream frames, and
// the VND header parser. Each target starts from a *valid* seed input
// (so mutations reach deep parse paths instead of dying at the magic
// check) and hammers it with truncations, bit flips, splices, and length
// lies.
//
// The contract under fuzz: hostile input is rejected with a typed
// vizndp::Error under a hard output budget — never a crash, hang,
// std::bad_alloc, or sanitizer report. Same (seed, iterations) always
// replays the same inputs, so a failure reported by CI reproduces
// locally with `vizndp_tool fuzz --target X --seed S --iters N`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace vizndp::testing {

// splitmix64: tiny, fast, seed-stable across platforms — the fuzzer's
// whole value is that iteration k of seed s is the same bytes everywhere.
class FuzzRng {
 public:
  explicit FuzzRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform-ish in [0, bound); bound 0 returns 0.
  std::uint64_t Below(std::uint64_t bound) {
    return bound == 0 ? 0 : Next() % bound;
  }

 private:
  std::uint64_t state_;
};

// One hostile mutation of `input`: a random number of truncations, bit
// flips, byte smashes, insertions, erasures, and "length lies" (a huge
// little-endian u32/u64 written at a random offset, aimed at whatever
// length/count/offset field happens to live there).
Bytes MutateBytes(ByteSpan input, FuzzRng& rng);

struct FuzzTarget {
  std::string name;
  // A valid input for the decoder; mutations start from a fresh copy.
  std::function<Bytes()> seed_input;
  // Runs the decoder on possibly-hostile bytes. Must either return
  // (input accepted) or throw a vizndp::Error (input rejected); anything
  // else is a fuzzing failure.
  std::function<void(ByteSpan input, size_t max_output)> run;
};

// inflate, gzip, lz4, msgpack, ndp-select, ndp-stream, vnd-header.
std::vector<FuzzTarget> BuiltinFuzzTargets();

struct FuzzReport {
  std::uint64_t iterations = 0;
  std::uint64_t accepted = 0;  // decoder returned normally
  std::uint64_t rejected = 0;  // decoder threw a typed vizndp::Error
};

// Output budget handed to every decoder under fuzz: far above anything a
// mutated seed legitimately decodes to, far below what would hurt the
// machine when a length lie slips past a check.
inline constexpr size_t kFuzzOutputBudget = size_t{64} << 20;  // 64 MiB

// Runs `iterations` mutations of the target's seed (plus the unmutated
// seed itself, iteration 0, which must be accepted). Non-vizndp
// exceptions (std::bad_alloc, std::length_error, ...) propagate to the
// caller: under ctest/asan that is the test failure this exists to find.
FuzzReport RunFuzzTarget(const FuzzTarget& target, std::uint64_t seed,
                         std::uint64_t iterations);

// Replays one exact input (checked-in corpus regression files). Returns
// true when the decoder accepted it, false when it threw a typed error.
bool RunFuzzInput(const FuzzTarget& target, ByteSpan input);

}  // namespace vizndp::testing
