// Settled-prefix garbage collection: with MonitorOptions::gc on, the
// monitor must produce bit-identical verdicts and first-violation indices
// to the unretired monitor (and, transitively, to check_all_prefixes —
// tests/monitor_test.cpp pins the unretired monitor to the offline
// checker) on every prefix of every history, while resident state stays
// O(live transactions). Histories come from a 200-seed generator sweep
// (du-opaque, unrestricted, and mutants around the du boundary), from
// recorded runs of every backend in the STM registry, and from a streaming
// synthetic workload that drives the event count to one million to pin the
// flat-memory property.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "gen/generator.hpp"
#include "history/event.hpp"
#include "history/figures.hpp"
#include "history/history.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"
#include "util/rng.hpp"

namespace duo::monitor {
namespace {

using checker::Verdict;
using history::Event;
using history::History;

MonitorOptions gc_options(std::size_t retain = 0) {
  MonitorOptions opts;
  opts.gc = true;
  opts.gc_retain_events = retain;  // 0: collect after every event
  return opts;
}

// Streams `events` through an unretired monitor and a GC monitor in
// lockstep and requires identical verdicts per prefix and identical latch
// indices. Run with retain = 0 so every event is a collection opportunity
// (the most adversarial pacing).
void expect_gc_equivalent(const std::vector<Event>& events,
                          const std::string& label) {
  OnlineMonitor plain;
  OnlineMonitor gc(gc_options());
  for (std::size_t n = 0; n < events.size(); ++n) {
    const auto fed_plain = plain.feed(events[n]);
    const auto fed_gc = gc.feed(events[n]);
    ASSERT_EQ(fed_plain.has_value(), fed_gc.has_value()) << label;
    if (!fed_plain.has_value()) continue;  // both rejected: stays in sync
    ASSERT_EQ(fed_plain.value(), fed_gc.value())
        << "prefix " << n + 1 << " of " << label;
  }
  ASSERT_EQ(plain.first_violation().has_value(),
            gc.first_violation().has_value())
      << label;
  if (plain.first_violation().has_value()) {
    EXPECT_EQ(*plain.first_violation(), *gc.first_violation()) << label;
  }
  EXPECT_EQ(plain.events_fed(), gc.events_fed()) << label;
}

void expect_gc_equivalent(const History& h) {
  expect_gc_equivalent(h.events(), history::compact(h));
}

TEST(MonitorGc, OffByDefaultAndRetainsEverything) {
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4");
  OnlineMonitor mon;
  for (const auto& e : h.events()) ASSERT_TRUE(mon.feed(e).has_value());
  EXPECT_EQ(mon.stats().gc_passes, 0u);
  EXPECT_EQ(mon.stats().retired_txns, 0u);
  EXPECT_EQ(mon.retained_events(), h.size());
  EXPECT_EQ(mon.live_transactions(), 4u);
}

TEST(MonitorGc, RetiresSettledWritersAndCompactsEvents) {
  // Four committed writers of X0 in sequence: once T3 commits, T1 is
  // superseded by two committed successors, completed behind the horizon,
  // and unreferenced — it must retire. The chain tail (last two members)
  // must stay.
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4");
  OnlineMonitor mon(gc_options());
  for (const auto& e : h.events()) {
    const auto fed = mon.feed(e);
    ASSERT_TRUE(fed.has_value()) << fed.error();
    ASSERT_EQ(fed.value(), Verdict::kYes);
  }
  EXPECT_GE(mon.stats().gc_passes, 1u);
  EXPECT_EQ(mon.stats().retired_txns, 2u);  // T1 and T2; T3, T4 guard the tail
  EXPECT_EQ(mon.live_transactions(), 2u);
  EXPECT_EQ(mon.retained_events(), 8u);  // 4 events per retained writer
  EXPECT_EQ(mon.events_fed(), h.size());
  EXPECT_EQ(mon.stats().retired_events, 8u);
  // The retained subsequence is a well-formed, du-opaque history.
  EXPECT_EQ(mon.history().size(), 8u);
}

TEST(MonitorGc, ReusedTxnIdAfterRetirementKeepsRetiredEventsOut) {
  // The four-writer X0 chain retires T1 and T2. Two X1 writers come first
  // and stay (the chain tail never settles), so the 8 retired events are
  // only a third of the log and stay in it, dead, until a later
  // compaction. A new transaction then reuses id 1: its events must join
  // the retained history and the retired T1's must not come back, neither
  // in history() nor through the compaction that follows.
  const auto parse = [](const char* text) {
    return history::parse_history_or_die(text).events();
  };
  OnlineMonitor mon(gc_options());
  const auto feed_all = [&mon](const std::vector<Event>& events) {
    for (const Event& e : events) {
      const auto fed = mon.feed(e);
      ASSERT_TRUE(fed.has_value()) << fed.error();
      ASSERT_EQ(fed.value(), Verdict::kYes);
    }
  };
  feed_all(parse("W5(X1,10) C5 W6(X1,11) C6 "
                 "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4"));
  ASSERT_EQ(mon.stats().retired_txns, 2u);
  EXPECT_EQ(mon.stats().retired_events, 8u);
  EXPECT_EQ(mon.retained_events(), 16u);

  feed_all(parse("W1(X2,5) C1"));
  EXPECT_EQ(mon.history().events(),
            parse("W5(X1,10) C5 W6(X1,11) C6 W3(X0,3) C3 W4(X0,4) C4 "
                  "W1(X2,5) C1"));
  EXPECT_EQ(mon.retained_events(), 20u);
  EXPECT_EQ(mon.live_transactions(), 5u);

  // Three more X0 writers retire T3, T4 and T7: dead events reach half the
  // log, which compacts it with the reused id live again.
  feed_all(parse("W7(X0,6) C7 W8(X0,7) C8 W9(X0,8) C9"));
  EXPECT_EQ(mon.stats().retired_txns, 5u);
  EXPECT_EQ(mon.stats().retired_events, 20u);
  EXPECT_EQ(mon.history().events(),
            parse("W5(X1,10) C5 W6(X1,11) C6 W1(X2,5) C1 W8(X0,7) C8 "
                  "W9(X0,8) C9"));
  EXPECT_EQ(mon.retained_events(), 20u);
}

TEST(MonitorGc, GcTimeIsRecordedPerPass) {
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4");
  OnlineMonitor off;
  OnlineMonitor on(gc_options());
  for (const auto& e : h.events()) {
    ASSERT_TRUE(off.feed(e).has_value());
    ASSERT_TRUE(on.feed(e).has_value());
  }
  EXPECT_EQ(off.stats().gc_ns, 0u);
  ASSERT_GT(on.stats().gc_passes, 0u);
  EXPECT_GT(on.stats().gc_ns, 0u);
}

TEST(MonitorGc, StaleReadOfRetiredValueLatchesAtTheSameIndex) {
  // T1's version of X0 is retired; a later read of it is a violation in
  // both monitors (the reader would serialize before a writer that
  // t-completed before the reader started), and must latch at the same
  // 0-based index even though the GC monitor decides it event-locally.
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 R4(X0)=1 C4");
  OnlineMonitor gc(gc_options());
  std::size_t fed_count = 0;
  for (const auto& e : h.events()) {
    ASSERT_TRUE(gc.feed(e).has_value());
    if (++fed_count == 12) {
      // All three writers committed: T1 must be retired already.
      ASSERT_GE(gc.stats().retired_txns, 1u);
    }
  }
  EXPECT_EQ(gc.verdict(), Verdict::kNo);
  expect_gc_equivalent(h);
}

TEST(MonitorGc, LiveTransactionPinsTheHorizon) {
  // T9 starts first and never finishes: nothing may retire (every other
  // transaction completes after T9's start, so none is behind the
  // horizon), even though the writer chain grows.
  const auto h = history::parse_history_or_die(
      "R9(X1)=0 W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4");
  OnlineMonitor mon(gc_options());
  for (const auto& e : h.events()) ASSERT_TRUE(mon.feed(e).has_value());
  EXPECT_EQ(mon.stats().retired_txns, 0u);
  EXPECT_EQ(mon.live_transactions(), 5u);
  // Once T9 finishes, the frontier advances and settled writers drain.
  ASSERT_TRUE(mon.feed(Event::inv_tryc(9)).has_value());
  ASSERT_TRUE(mon.feed(Event::resp_commit(9)).has_value());
  EXPECT_GE(mon.stats().retired_txns, 2u);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
}

TEST(MonitorGc, ResolvedReadPinsItsWriter) {
  // T4 reads T1's version and stays open: T1 (and its guards' positions)
  // must survive until the reader is itself settled, then drain.
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 R4(X0)=1 W2(X0,2) C2 W3(X0,3) C3");
  OnlineMonitor mon(gc_options());
  for (const auto& e : h.events()) ASSERT_TRUE(mon.feed(e).has_value());
  EXPECT_EQ(mon.stats().retired_txns, 0u);  // T4 open pins everything
  ASSERT_TRUE(mon.feed(Event::inv_tryc(4)).has_value());
  ASSERT_TRUE(mon.feed(Event::resp_commit(4)).has_value());
  // T4's commit moves the horizon past T1, but T4's read still resolves to
  // T1 and T4 is retained (not yet superseded): T1 must stay.
  const auto retained = mon.live_transactions();
  EXPECT_GE(retained, 2u);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  expect_gc_equivalent(mon.history());
}

TEST(MonitorGc, PaperFiguresAreGcEquivalent) {
  expect_gc_equivalent(history::figures::fig1());
  expect_gc_equivalent(history::figures::fig3());
  expect_gc_equivalent(history::figures::fig4());
}

// -- 200-seed generator sweep ------------------------------------------------

class MonitorGcSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorGcSweep, GeneratedHistoriesAreGcEquivalent) {
  // 8 shards x 25 seeds = the 200-seed sweep, kept parallelizable.
  for (std::uint64_t s = 0; s < 25; ++s) {
    const std::uint64_t seed = GetParam() * 25 + s + 1;
    util::Xoshiro256 rng(seed);
    gen::GenOptions opts;
    opts.num_txns = 5;
    opts.num_objects = 2;
    opts.value_range = 2;
    const auto h = (seed % 2 == 0) ? gen::random_history(opts, rng)
                                   : gen::random_du_history(opts, rng);
    expect_gc_equivalent(h);
    util::Xoshiro256 mrng(seed * 131 + 17);
    auto m = gen::random_du_history(opts, mrng);
    m = gen::mutate(m, mrng);
    expect_gc_equivalent(m);
  }
}

TEST_P(MonitorGcSweep, UniqueWriteMixesAreGcEquivalent) {
  // The unique-writes class is the GC's steady-state diet: deeper
  // histories, more transactions, real retirement traffic.
  util::Xoshiro256 rng(GetParam() * 977 + 5);
  gen::GenOptions opts;
  opts.num_txns = 12;
  opts.num_objects = 3;
  opts.unique_writes = true;
  for (int iter = 0; iter < 5; ++iter) {
    const auto h = gen::random_du_history(opts, rng);
    expect_gc_equivalent(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorGcSweep,
                         ::testing::Values(0ull, 1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull));

// -- recorded STM executions -------------------------------------------------

class MonitorGcRecordingEquivalence
    : public ::testing::TestWithParam<stm::BackendInfo> {};

TEST_P(MonitorGcRecordingEquivalence, RecordedRunsAreGcEquivalent) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    stm::Recorder rec(1 << 12);
    auto s = stm::make_stm(GetParam().name, 3, &rec);
    ASSERT_NE(s, nullptr);
    stm::WorkloadOptions wopts;
    wopts.threads = 2;
    wopts.txns_per_thread = 4;
    wopts.ops_per_txn = 2;
    wopts.objects = 3;
    wopts.write_fraction = 0.6;
    wopts.seed = seed;
    stm::run_random_mix(*s, wopts);
    const auto h = rec.finish(s->num_objects());
    expect_gc_equivalent(h);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, MonitorGcRecordingEquivalence,
    ::testing::ValuesIn(stm::registered_backends()),
    [](const ::testing::TestParamInfo<stm::BackendInfo>& info) {
      return stm::test_identifier(info.param);
    });

// -- pinned GC decisions -----------------------------------------------------

// Exact GC counters on fixed inputs, recorded from the monitor whose sweep
// seeded every live transaction on every pass. The sweep may skip work,
// never change a decision: a worklist that misses a transaction that could
// settle changes retired_txns, and one that retires in a different order
// changes sealed_reads (a writer retired before its reader seals the
// reader's read; the reader retired first does not).
struct GcCounters {
  std::size_t gc_passes = 0;
  std::size_t retired_txns = 0;
  std::size_t retired_events = 0;
  std::size_t sealed_reads = 0;
  std::size_t live_transactions = 0;
  std::size_t retained_events = 0;
  bool operator==(const GcCounters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GcCounters& c) {
  return os << "{passes " << c.gc_passes << ", retired " << c.retired_txns
            << ", retired events " << c.retired_events << ", sealed "
            << c.sealed_reads << ", live " << c.live_transactions
            << ", retained " << c.retained_events << "}";
}

/// Feeds `events` one at a time (whole_batch false) or as one feed_batch
/// call, GC on with the given pacing.
GcCounters gc_counters(const std::vector<Event>& events, std::size_t retain,
                       bool whole_batch) {
  OnlineMonitor mon(gc_options(retain));
  if (whole_batch) {
    const auto out = mon.feed_batch(events.data(), events.size());
    EXPECT_EQ(out.consumed, events.size());
  } else {
    for (const Event& e : events) EXPECT_TRUE(mon.feed(e).has_value());
  }
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  const MonitorStats& st = mon.stats();
  return GcCounters{st.gc_passes,    st.retired_txns,
                    st.retired_events, st.sealed_reads,
                    mon.live_transactions(), mon.retained_events()};
}

/// The unique-writes sweep generator at 400 transactions, each of which
/// finishes (a transaction left running would pin the horizon for good).
std::vector<Event> finishing_sweep_history(std::uint64_t seed) {
  util::Xoshiro256 rng(seed * 977 + 5);
  gen::GenOptions opts;
  opts.num_txns = 12;
  opts.num_objects = 3;
  opts.unique_writes = true;
  (void)gen::random_du_history(opts, rng);  // the sweep's first history
  opts.num_txns = 400;
  opts.leave_running_prob = 0;
  opts.commit_pending_prob = 0;
  opts.drop_last_response_prob = 0;
  return gen::random_du_history(opts, rng).events();
}

TEST(MonitorGcPinned, SweepHistories) {
  const struct {
    std::uint64_t seed;
    GcCounters per_event, whole_batch;
  } cases[] = {
      {3, {2570, 396, 2532, 5, 4, 38}, {1, 396, 2532, 4, 4, 38}},
      {7, {2620, 396, 2580, 4, 4, 40}, {1, 396, 2580, 1, 4, 40}},
      {11, {2564, 397, 2538, 9, 3, 26}, {1, 397, 2538, 3, 3, 26}},
  };
  for (const auto& c : cases) {
    const auto events = finishing_sweep_history(c.seed);
    EXPECT_EQ(gc_counters(events, 0, false), c.per_event) << c.seed;
    EXPECT_EQ(gc_counters(events, 0, true), c.whole_batch) << c.seed;
  }
}

TEST(MonitorGcPinned, InterleavedLiveRun) {
  // Eight interleaved read-modify-write threads: pinned writers, sealed
  // reads and multi-generation unlocks in every pass.
  const auto events = gen::deterministic_live_run(20000, 8, 64).events();
  ASSERT_EQ(events.size(), 20016u);
  EXPECT_EQ(gc_counters(events, 0, false),
            (GcCounters{20016, 3196, 19176, 1487, 140, 840}));
  EXPECT_EQ(gc_counters(events, 64, false),
            (GcCounters{624, 3190, 19140, 1505, 146, 876}));
  EXPECT_EQ(gc_counters(events, 0, true),
            (GcCounters{1, 3196, 19176, 872, 140, 840}));
}

TEST(MonitorGcPinned, RegistryRecording) {
  // One recording thread, so the recording (and the counters) are
  // deterministic.
  stm::Recorder rec(1 << 16);
  auto s = stm::make_stm("tl2", 8, &rec);
  ASSERT_NE(s, nullptr);
  stm::WorkloadOptions wopts;
  wopts.threads = 1;
  wopts.txns_per_thread = 1000;
  wopts.ops_per_txn = 3;
  wopts.objects = 8;
  wopts.write_fraction = 0.5;
  wopts.seed = 21;
  stm::run_random_mix(*s, wopts);
  const auto events = rec.finish(s->num_objects()).events();
  ASSERT_EQ(events.size(), 8000u);
  EXPECT_EQ(gc_counters(events, 0, false),
            (GcCounters{8000, 987, 7896, 608, 13, 104}));
  EXPECT_EQ(gc_counters(events, 64, false),
            (GcCounters{249, 987, 7896, 608, 13, 104}));
  EXPECT_EQ(gc_counters(events, 0, true),
            (GcCounters{1, 987, 7896, 423, 13, 104}));
}

// -- flat-memory regression over one million events --------------------------

// Streaming synthetic workload (never materialized): pairs of overlapping
// transactions, each reading the current committed value of one object and
// installing a fresh unique value. Unique-writes, du-opaque, and steadily
// settling — the monitor's intended service diet.
class StreamingWorkload {
 public:
  explicit StreamingWorkload(std::size_t objects) : cur_(objects, 0) {}

  // Appends the next pair of transactions (12 events) to `out`.
  void next_pair(std::vector<Event>& out) {
    out.clear();
    const auto a = static_cast<history::TxnId>(next_txn_++);
    const auto b = static_cast<history::TxnId>(next_txn_++);
    const auto xa = static_cast<history::ObjId>(a % cur_.size());
    const auto xb = static_cast<history::ObjId>(b % cur_.size());
    out.push_back(Event::inv_read(a, xa));
    out.push_back(Event::resp_read(a, xa, cur_[static_cast<std::size_t>(xa)]));
    out.push_back(Event::inv_read(b, xb));
    out.push_back(Event::resp_read(b, xb, cur_[static_cast<std::size_t>(xb)]));
    const history::Value va = ++value_;
    const history::Value vb = ++value_;
    out.push_back(Event::inv_write(a, xa, va));
    out.push_back(Event::resp_write_ok(a, xa));
    out.push_back(Event::inv_write(b, xb, vb));
    out.push_back(Event::resp_write_ok(b, xb));
    out.push_back(Event::inv_tryc(a));
    out.push_back(Event::resp_commit(a));
    out.push_back(Event::inv_tryc(b));
    out.push_back(Event::resp_commit(b));
    cur_[static_cast<std::size_t>(xa)] = va;
    cur_[static_cast<std::size_t>(xb)] = vb;
  }

 private:
  std::vector<history::Value> cur_;
  history::Value value_ = 0;
  std::int64_t next_txn_ = 1;
};

TEST(MonitorGc, ResidentStateStaysFlatOverOneMillionEvents) {
  constexpr std::size_t kTarget = 1'000'000;
  constexpr std::size_t kObjects = 8;
  OnlineMonitor mon(gc_options(/*retain=*/512));
  StreamingWorkload wl(kObjects);
  std::vector<Event> pair;
  std::size_t peak_events = 0, peak_nodes = 0, peak_txns = 0;
  while (mon.events_fed() < kTarget) {
    wl.next_pair(pair);
    for (const Event& e : pair) {
      const auto fed = mon.feed(e);
      ASSERT_TRUE(fed.has_value()) << fed.error();
      ASSERT_EQ(fed.value(), Verdict::kYes);
    }
    peak_events = std::max(peak_events, mon.retained_events());
    peak_nodes = std::max(peak_nodes, mon.graph_nodes());
    peak_txns = std::max(peak_txns, mon.live_transactions());
  }
  // The RSS proxy — retained events + live graph nodes — must be bounded by
  // the GC pacing watermark, not by the one-million event count.
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_GE(mon.events_fed(), kTarget);
  EXPECT_LT(peak_events, 2048u);
  EXPECT_LT(peak_nodes, 1024u);
  EXPECT_LT(peak_txns, 512u);
  EXPECT_EQ(mon.stats().full_checks, 0u);  // stayed on the fast path
  EXPECT_GT(mon.stats().retired_txns, 150'000u);
  EXPECT_GT(mon.stats().retired_events, 990'000u);
}

TEST(MonitorGc, WithoutGcResidentStateGrowsLinearly) {
  // Control for the regression above: the same workload with GC off
  // retains every event and transaction (run shorter; linearity is obvious
  // from exact counts).
  constexpr std::size_t kTarget = 60'000;
  OnlineMonitor mon;  // gc off
  StreamingWorkload wl(8);
  std::vector<Event> pair;
  while (mon.events_fed() < kTarget) {
    wl.next_pair(pair);
    for (const Event& e : pair) ASSERT_TRUE(mon.feed(e).has_value());
  }
  EXPECT_EQ(mon.retained_events(), mon.events_fed());
  EXPECT_EQ(mon.live_transactions(), mon.events_fed() / 6);  // 6 events/txn
}

}  // namespace
}  // namespace duo::monitor
