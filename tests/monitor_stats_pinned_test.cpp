// Exact monitor counters on fixed inputs. The stats block counts every
// graph edge the monitor links and unlinks, every chain splice and every
// parked edge, so it pins the monitor's whole edge sequence, not just its
// verdicts: a rewrite of the feed path that reorders, drops or adds one
// link/unlink changes edges_added, edges_removed or deferred_edges here.
// Each input runs with GC off and on, fed one event at a time and as one
// feed_batch call; the values were recorded from the monitor before its
// feed path became a single in-order loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "history/event.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "monitor/monitor.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"
#include "util/rng.hpp"

namespace duo::monitor {
namespace {

using checker::Verdict;
using history::Event;

struct Pinned {
  std::size_t events = 0;
  std::size_t fast_yes = 0;
  std::size_t full_checks = 0;
  std::size_t graph_checks = 0;
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  std::size_t chain_splices = 0;
  std::size_t deferred_edges = 0;
  bool latched_by_fast_path = false;
  std::size_t graph_nodes = 0;
  std::size_t live_transactions = 0;
  std::size_t retained_events = 0;
  bool operator==(const Pinned&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pinned& p) {
  return os << "{" << p.events << ", " << p.fast_yes << ", " << p.full_checks
            << ", " << p.graph_checks << ", " << p.edges_added << ", "
            << p.edges_removed << ", " << p.chain_splices << ", "
            << p.deferred_edges << ", "
            << (p.latched_by_fast_path ? "true" : "false") << ", "
            << p.graph_nodes << ", " << p.live_transactions << ", "
            << p.retained_events << "}";
}

/// The four runs of one input, in the order gc off / on x per event /
/// whole batch.
struct Runs {
  Pinned off_per_event, off_batch, on_per_event, on_batch;
};

/// Feeds `events` one at a time (stopping after a latch, as a caller
/// would) or as one feed_batch call. GC on collects at every opportunity.
Pinned run(const std::vector<Event>& events, bool gc, bool whole_batch) {
  MonitorOptions opts;
  opts.gc = gc;
  opts.gc_retain_events = 0;
  OnlineMonitor mon(opts);
  if (whole_batch) {
    const auto out = mon.feed_batch(events.data(), events.size());
    EXPECT_TRUE(out.error.empty()) << out.error;
  } else {
    for (const Event& e : events) {
      const auto fed = mon.feed(e);
      EXPECT_TRUE(fed.has_value()) << fed.error();
      if (mon.verdict() == Verdict::kNo) break;
    }
  }
  const MonitorStats& st = mon.stats();
  return Pinned{st.events,         st.fast_yes,
                st.full_checks,    st.graph_checks,
                st.edges_added,    st.edges_removed,
                st.chain_splices,  st.deferred_edges,
                st.latched_by_fast_path, mon.graph_nodes(),
                mon.live_transactions(), mon.retained_events()};
}

void expect_pinned(const std::vector<Event>& events, const Runs& want,
                   const std::string& label) {
  EXPECT_EQ(run(events, false, false), want.off_per_event) << label;
  EXPECT_EQ(run(events, false, true), want.off_batch) << label;
  EXPECT_EQ(run(events, true, false), want.on_per_event) << label;
  EXPECT_EQ(run(events, true, true), want.on_batch) << label;
}

/// MonitorGcPinned's sweep input: the unique-writes generator at 400
/// transactions, each of which finishes.
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

/// A mutated du-opaque history with duplicate write values.
std::vector<Event> mutant(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  gen::GenOptions opts;
  opts.num_txns = 10;
  opts.num_objects = 3;
  opts.value_range = 3;
  const auto h = gen::random_du_history(opts, rng);
  return gen::mutate(h, rng).events();
}

TEST(MonitorStatsPinned, SweepHistories) {
  const struct {
    std::uint64_t seed;
    Runs want;
  } cases[] = {
      {3,
       {
         {2570, 2570, 0, 0, 4561, 0, 0, 0, false, 800, 400, 2570},
         {2570, 2570, 0, 0, 4561, 0, 0, 0, false, 800, 400, 2570},
         {2570, 2570, 0, 0, 4689, 4609, 0, 0, false, 17, 4, 38},
         {2570, 2570, 0, 0, 4693, 4624, 0, 0, false, 17, 4, 38}}},
      {7,
       {
         {2620, 2620, 0, 0, 3926, 0, 0, 0, false, 800, 400, 2620},
         {2620, 2620, 0, 0, 3926, 0, 0, 0, false, 800, 400, 2620},
         {2620, 2620, 0, 0, 4060, 3993, 0, 0, false, 24, 4, 40},
         {2620, 2620, 0, 0, 4088, 4014, 0, 0, false, 24, 4, 40}}},
      {11,
       {
         {2564, 2564, 0, 0, 4106, 0, 0, 0, false, 800, 400, 2564},
         {2564, 2564, 0, 0, 4106, 0, 0, 0, false, 800, 400, 2564},
         {2564, 2564, 0, 0, 4261, 4198, 0, 0, false, 14, 3, 26},
         {2564, 2564, 0, 0, 4264, 4200, 0, 0, false, 14, 3, 26}}},
  };
  for (const auto& c : cases)
    expect_pinned(finishing_sweep_history(c.seed), c.want,
                  "seed " + std::to_string(c.seed));
}

TEST(MonitorStatsPinned, InterleavedLiveRun) {
  const auto events = gen::deterministic_live_run(20000, 8, 64).events();
  ASSERT_EQ(events.size(), 20016u);
  expect_pinned(events, {
      {20016, 20016, 0, 0, 20586, 0, 0, 0, false, 6672, 3336, 20016},
      {20016, 20016, 0, 0, 20586, 0, 0, 0, false, 6672, 3336, 20016},
      {20016, 20016, 0, 0, 19394, 18513, 0, 0, false, 476, 140, 840},
      {20016, 20016, 0, 0, 22857, 21976, 0, 0, false, 476, 140, 840}},
      "live run");
}

TEST(MonitorStatsPinned, RegistryRecording) {
  // One recording thread, so the recording is deterministic.
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
  expect_pinned(events, {
      {8000, 8000, 0, 0, 9635, 0, 0, 0, false, 2000, 1000, 8000},
      {8000, 8000, 0, 0, 9635, 0, 0, 0, false, 2000, 1000, 8000},
      {8000, 8000, 0, 0, 7469, 6806, 0, 0, false, 34, 13, 104},
      {8000, 8000, 0, 0, 11089, 10307, 0, 0, false, 34, 13, 104}},
      "tl2 recording");
}

TEST(MonitorStatsPinned, PaperFigures) {
  expect_pinned(history::figures::fig1().events(), {
      {18, 8, 10, 0, 14, 1, 0, 0, false, 8, 4, 18},
      {18, 8, 10, 0, 14, 1, 0, 0, false, 8, 4, 18},
      {18, 8, 10, 0, 14, 1, 0, 0, false, 8, 4, 18},
      {18, 8, 10, 0, 14, 1, 0, 0, false, 8, 4, 18}},
      "fig1");
  expect_pinned(history::figures::fig3().events(), {
      {4, 3, 0, 0, 0, 0, 0, 0, true, 2, 2, 4},
      {4, 3, 0, 0, 0, 0, 0, 0, true, 2, 2, 4},
      {4, 3, 0, 0, 0, 0, 0, 0, true, 2, 2, 4},
      {4, 3, 0, 0, 0, 0, 0, 0, true, 2, 2, 4}},
      "fig3");
  expect_pinned(history::figures::fig4().events(), {
      {10, 7, 2, 0, 2, 1, 1, 0, true, 4, 3, 10},
      {10, 7, 2, 0, 2, 1, 1, 0, true, 4, 3, 10},
      {10, 7, 2, 0, 2, 1, 1, 0, true, 4, 3, 10},
      {10, 7, 2, 0, 2, 1, 1, 0, true, 4, 3, 10}},
      "fig4");
}

TEST(MonitorStatsPinned, MutantThatParksAnEdge) {
  // A canonical-order miss-guess parks one anti-dependency edge; the
  // unique-writes class holds throughout.
  const auto events = mutant(53);
  expect_pinned(events, {
      {79, 71, 8, 0, 38, 0, 0, 1, false, 19, 10, 79},
      {79, 71, 8, 0, 38, 0, 0, 1, false, 19, 10, 79},
      {79, 71, 8, 0, 38, 0, 0, 1, false, 19, 10, 79},
      {79, 71, 8, 0, 38, 0, 0, 1, false, 19, 10, 79}},
      "mutant 53");
}

TEST(MonitorStatsPinned, MutantWithUniqueWritesDebt) {
  // Duplicate can-commit writers of one value put the prefix outside the
  // unique-writes class, so its events run the fallback check.
  const auto events = mutant(3);
  expect_pinned(events, {
      {74, 49, 25, 0, 37, 1, 0, 0, false, 19, 10, 74},
      {74, 49, 25, 0, 37, 1, 0, 0, false, 19, 10, 74},
      {74, 49, 25, 0, 37, 1, 0, 0, false, 19, 10, 74},
      {74, 49, 25, 0, 37, 1, 0, 0, false, 19, 10, 74}},
      "mutant 3");
}

TEST(MonitorStatsPinned, ParkedEdgeChurn) {
  // A parked anti-dependency edge released by a duplicate writer's tryC,
  // re-parked by its abort, with a commit-pending writer moved to the end
  // of its chain (tests/monitor_test.cpp's ParkedEdgesDrainWhenTheGraphThins
  // plus a read from a commit-pending writer).
  const auto events = history::parse_history_or_die(
                          "W1?(X0,1) W1!(X0) W2(X0,2) C2 C1 R3(X0)=2 "
                          "W4?(X0,2) W4!(X0) C4? C4!=A C3 "
                          "W5(X1,5) C5? R6(X1)=5 C5! C6")
                          .events();
  expect_pinned(events, {
      {24, 9, 15, 1, 19, 1, 1, 2, false, 12, 6, 24},
      {24, 9, 15, 1, 19, 1, 1, 2, false, 12, 6, 24},
      {24, 9, 15, 1, 19, 1, 1, 2, false, 12, 6, 24},
      {24, 9, 15, 1, 19, 1, 1, 2, false, 12, 6, 24}},
      "churn");
}

}  // namespace
}  // namespace duo::monitor
