// Seeded, linear-time trace generator for the benchmark.
//
// Simulates a value-validating deferred-update STM: `threads` logical
// threads run multi-op transactions over zipf-skewed objects, interleaved
// one event at a time by a seeded scheduler. A read returns the committed
// value at its response and re-validates every earlier read of its
// transaction (by per-object version, so the argument also holds when write
// values repeat); tryC re-validates once more and either installs the
// buffered writes atomically at the C response or answers A. Every prefix
// is therefore du-opaque: a committed transaction serializes at its C
// response, any other at its last validated read.
//
// The text is written directly in the compact format of
// src/history/parser.hpp, one pass, O(events * threads) time: an operation
// whose response immediately follows its invocation becomes one op-level
// token ("R2(X0)=1"), otherwise the two events are split ("R2?(X0)" ...
// "R2!(X0)=1"). The same shape and seed always give byte-identical text.
//
// With `inject_violation`, one read response somewhere after
// `inject_after` events returns the value a *live* transaction wrote
// before invoking tryC (a read of an uncommitted write, as in the paper's
// Figure 3). That writer is neither committed nor commit-pending in the
// prefix ending at the read, so that prefix is not du-opaque while every
// shorter one is: the first violation is exactly the injected event. The
// writer then aborts at its tryC, so the whole trace reads a value no
// committed transaction wrote. (Had it committed, final-state opacity and
// strict serializability of the whole trace can send the checkers into
// their exponential search, for minutes on a 6000-event trace.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

struct TraceShape {
  int threads = 8;
  int objects = 256;
  int min_ops = 2;           // reads/writes per transaction, before tryC
  int max_ops = 6;
  double write_prob = 0.4;   // each op is a write with this probability
  double zipf_theta = 0.8;   // object-choice skew (0 = uniform)
  double split_prob = 0.3;   // an op's response is scheduled separately
  /// Every write value globally unique (the graph engine's class). When
  /// false, values are drawn from [1, value_range], so writes repeat and
  /// the checkers route to the DFS search.
  bool unique_writes = true;
  int value_range = 3;
};

struct GeneratedTrace {
  std::string text;
  std::size_t events = 0;
  std::size_t txns = 0;
  std::size_t commits = 0;
  std::size_t aborts = 0;
  /// 0-based index of the injected violating event, if one was injected.
  std::optional<std::size_t> violation;
};

/// Generates about `target_events` events (the last transactions run to
/// completion, so the count may exceed the target by a few events per
/// thread). With inject_violation, the injection lands at the first
/// eligible read response at or after `inject_after`; if none comes up
/// before the trace ends, `violation` stays empty.
GeneratedTrace generate_trace(const TraceShape& shape, std::uint64_t seed,
                              std::size_t target_events,
                              bool inject_violation = false,
                              std::size_t inject_after = 0);

/// SplitMix64: the benchmark's own generator, so inputs stay identical
/// across commits whatever the library's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
