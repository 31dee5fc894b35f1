// Batched feeding: feed_batch must be bit-identical to the per-event
// monitor. Both take each event in order through the same handlers, so not
// just verdicts and first-violation indices but the whole stats block
// (edges added/removed, chain splices, deferred edges, fast-path counts)
// and the resident state must match for every batch size; GC pacing is the
// one sanctioned divergence (passes run at batch ends only), so GC-on runs
// with multi-event batches are held to verdict-level equivalence.
// Histories come from a 200-seed generator sweep (du-opaque, unrestricted,
// and mutants around the du boundary), recorded runs of every backend in
// the STM registry, and a streaming synthetic workload that drives one
// million events through batched feeding to pin the flat-memory property
// on the batched path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
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

struct RunResult {
  Verdict verdict = Verdict::kYes;
  std::optional<std::size_t> first_violation;
  std::string explanation;
  std::size_t events_fed = 0;
  MonitorStats stats;
  // Resident state.
  std::size_t graph_nodes = 0;
  std::size_t live_transactions = 0;
  history::ObjId num_objects = 0;
  std::size_t retained_events = 0;
};

RunResult result_of(const OnlineMonitor& mon) {
  RunResult r;
  r.verdict = mon.verdict();
  r.first_violation = mon.first_violation();
  r.explanation = mon.explanation();
  r.events_fed = mon.events_fed();
  r.stats = mon.stats();
  r.graph_nodes = mon.graph_nodes();
  r.live_transactions = mon.live_transactions();
  r.num_objects = mon.num_objects();
  r.retained_events = mon.retained_events();
  return r;
}

/// The reference: feed() one event at a time, skipping a malformed event
/// (the monitor already discarded it) and stopping after a latch.
RunResult run_per_event(const std::vector<Event>& events,
                        const MonitorOptions& opts) {
  OnlineMonitor mon(opts);
  for (const Event& e : events) {
    if (!mon.feed(e).has_value()) continue;
    if (mon.verdict() == Verdict::kNo) break;
  }
  return result_of(mon);
}

/// Streams `events` through one monitor in chunks of `batch` (0 = one
/// batch for everything), with the same termination and error semantics as
/// the per-event reference harness: a malformed event is skipped (the
/// monitor already discarded it), a latch stops the run.
RunResult run_batched(const std::vector<Event>& events,
                      const MonitorOptions& opts, std::size_t batch) {
  OnlineMonitor mon(opts);
  std::size_t i = 0;
  while (i < events.size() && mon.verdict() != Verdict::kNo) {
    const std::size_t want =
        batch == 0 ? events.size() - i
                   : std::min(batch, events.size() - i);
    const auto out = mon.feed_batch(events.data() + i, want);
    i += out.consumed;
    if (!out.error.empty()) {
      ++i;  // skip the malformed event, as the per-event harness does
    } else if (out.consumed < want) {
      break;  // latched: the rest of the batch is beyond the violation
    }
  }
  return result_of(mon);
}

void expect_same_outcome(const RunResult& ref, const RunResult& got,
                         const std::string& label) {
  ASSERT_EQ(ref.verdict, got.verdict) << label;
  ASSERT_EQ(ref.first_violation.has_value(), got.first_violation.has_value())
      << label;
  if (ref.first_violation.has_value()) {
    EXPECT_EQ(*ref.first_violation, *got.first_violation) << label;
  }
  EXPECT_EQ(ref.explanation, got.explanation) << label;
  EXPECT_EQ(ref.events_fed, got.events_fed) << label;
}

void expect_same_state(const RunResult& ref, const RunResult& got,
                       const std::string& label) {
  const MonitorStats& a = ref.stats;
  const MonitorStats& b = got.stats;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.fast_yes, b.fast_yes) << label;
  EXPECT_EQ(a.full_checks, b.full_checks) << label;
  EXPECT_EQ(a.graph_checks, b.graph_checks) << label;
  EXPECT_EQ(a.edges_added, b.edges_added) << label;
  EXPECT_EQ(a.edges_removed, b.edges_removed) << label;
  EXPECT_EQ(a.chain_splices, b.chain_splices) << label;
  EXPECT_EQ(a.deferred_edges, b.deferred_edges) << label;
  EXPECT_EQ(a.gc_passes, b.gc_passes) << label;
  EXPECT_EQ(a.retired_txns, b.retired_txns) << label;
  EXPECT_EQ(a.retired_events, b.retired_events) << label;
  EXPECT_EQ(a.sealed_reads, b.sealed_reads) << label;
  EXPECT_EQ(a.latched_by_fast_path, b.latched_by_fast_path) << label;
  EXPECT_EQ(ref.graph_nodes, got.graph_nodes) << label;
  EXPECT_EQ(ref.live_transactions, got.live_transactions) << label;
  EXPECT_EQ(ref.num_objects, got.num_objects) << label;
  EXPECT_EQ(ref.retained_events, got.retained_events) << label;
}

/// The full equivalence matrix for one event sequence: batch sizes
/// {1, 7, whole} x GC {off, on}, all against feeding one event at a time.
/// Batch-of-1 runs and GC-off runs (any batch size) must be bit-identical
/// in stats and resident state too; GC-on multi-event batches only defer
/// collection passes, so they are held to verdicts, indices, diagnostics
/// and event counts.
void expect_batch_equivalent(const std::vector<Event>& events,
                             const std::string& label) {
  for (const bool gc : {false, true}) {
    MonitorOptions opts;
    opts.gc = gc;
    opts.gc_retain_events = 0;  // collect at every opportunity
    const RunResult ref = run_per_event(events, opts);
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
      const RunResult got = run_batched(events, opts, batch);
      const std::string tag = label + " [gc=" + (gc ? "on" : "off") +
                              " batch=" + std::to_string(batch) + "]";
      expect_same_outcome(ref, got, tag);
      if (!gc || batch == 1) expect_same_state(ref, got, tag);
    }
  }
}

void expect_batch_equivalent(const History& h) {
  expect_batch_equivalent(h.events(), history::compact(h));
}

TEST(MonitorBatch, WholeTraceAsOneBatchMatchesPerEventFeeding) {
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 R2(X0)=1 W2(X1,2) C2 R3(X1)=2 W3(X0,3) C3 R4(X0)=3 C4");
  expect_batch_equivalent(h);
}

TEST(MonitorBatch, MidBatchViolationLatchesAtTheSameIndex) {
  // The violating read is mid-trace: a whole-trace batch must latch at the
  // same 0-based index and stop consuming there.
  const std::vector<Event> events =
      history::parse_history_or_die("W1(X0,1) R2(X0)=1 C1 C2").events();
  OnlineMonitor mon;
  const auto out = mon.feed_batch(events.data(), events.size());
  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(mon.verdict(), Verdict::kNo);
  ASSERT_TRUE(mon.first_violation().has_value());
  EXPECT_EQ(*mon.first_violation(), 3u);
  EXPECT_EQ(out.consumed, 4u);
  EXPECT_EQ(mon.events_fed(), 4u);
}

TEST(MonitorBatch, FallbackLatchMidBatchLeavesNoTail) {
  // T2's initial-value read of X0 must precede T1, which completed before
  // T2 started: the anti-dependency closes a cycle, the edge is parked and
  // the fallback check latches at the read response (index 6). The rest of
  // the batch (T2's abort) is not consumed, and must leave no trace: the
  // monitor holds exactly what per-event feeding up to the latch holds, and
  // still accepts the next event.
  const std::vector<Event> events =
      history::parse_history_or_die("R3?(X0) W1(X0,1) C1 R2(X0)=0 C2=A")
          .events();
  ASSERT_EQ(events.size(), 9u);
  OnlineMonitor per_event;
  for (std::size_t i = 0; i < 7; ++i)
    ASSERT_TRUE(per_event.feed(events[i]).has_value());
  ASSERT_EQ(per_event.verdict(), Verdict::kNo);
  ASSERT_EQ(per_event.first_violation(), std::optional<std::size_t>(6));
  EXPECT_FALSE(per_event.stats().latched_by_fast_path);

  OnlineMonitor batched;
  const auto out = batched.feed_batch(events.data(), events.size());
  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(out.consumed, 7u);
  EXPECT_EQ(batched.first_violation(), per_event.first_violation());
  EXPECT_EQ(batched.events_fed(), per_event.events_fed());
  EXPECT_EQ(batched.graph_nodes(), per_event.graph_nodes());
  EXPECT_EQ(batched.live_transactions(), per_event.live_transactions());
  EXPECT_EQ(batched.num_objects(), per_event.num_objects());
  EXPECT_EQ(batched.retained_events(), per_event.retained_events());
  const auto next_per_event = per_event.feed(events[7]);
  const auto next_batched = batched.feed(events[7]);
  ASSERT_TRUE(next_per_event.has_value()) << next_per_event.error();
  ASSERT_TRUE(next_batched.has_value()) << next_batched.error();
  EXPECT_EQ(batched.events_fed(), per_event.events_fed());
  expect_batch_equivalent(events, "fallback latch mid-batch");
}

TEST(MonitorBatch, MalformedEventStopsTheBatchBeforeIt) {
  // Event index 2 repeats T1's read of X0: feed_batch must consume exactly
  // the two well-formed events, report the diagnostic, and stay usable.
  std::vector<Event> events = {Event::inv_read(1, 0),
                               Event::resp_read(1, 0, 0),
                               Event::inv_read(1, 0)};
  OnlineMonitor mon;
  const auto out = mon.feed_batch(events.data(), events.size());
  EXPECT_EQ(out.consumed, 2u);
  EXPECT_NE(out.error.find("repeated read"), std::string::npos) << out.error;
  EXPECT_EQ(mon.events_fed(), 2u);
  ASSERT_TRUE(mon.feed(Event::inv_tryc(1)).has_value());
}

TEST(MonitorBatch, PaperFiguresAreBatchEquivalent) {
  expect_batch_equivalent(history::figures::fig1());
  expect_batch_equivalent(history::figures::fig3());
  expect_batch_equivalent(history::figures::fig4());
}

TEST(MonitorBatch, ManyObjectsWithCrossObjectReaders) {
  // Thirteen objects, with each round's reader and writer on different
  // ones, so per-object chains and reads interleave across the batch.
  std::vector<Event> events;
  constexpr history::ObjId kObjects = 13;
  history::TxnId next = 1;
  history::Value val = 0;
  std::vector<history::Value> cur(kObjects, 0);
  for (int round = 0; round < 40; ++round) {
    const auto w = next++;
    const auto r = next++;
    const auto x = static_cast<history::ObjId>(round % kObjects);
    const auto y = static_cast<history::ObjId>((round * 5 + 3) % kObjects);
    events.push_back(Event::inv_read(r, x));
    events.push_back(Event::resp_read(r, x, cur[static_cast<std::size_t>(x)]));
    const history::Value v = ++val;
    events.push_back(Event::inv_write(w, y, v));
    events.push_back(Event::resp_write_ok(w, y));
    events.push_back(Event::inv_tryc(w));
    events.push_back(Event::resp_commit(w));
    events.push_back(Event::inv_tryc(r));
    events.push_back(Event::resp_commit(r));
    cur[static_cast<std::size_t>(y)] = v;
  }
  expect_batch_equivalent(events, "many-objects interleave");
}

// -- 200-seed generator sweep ------------------------------------------------

class MonitorBatchSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorBatchSweep, GeneratedHistoriesAreBatchEquivalent) {
  // 8 instances x 25 seeds = the 200-seed sweep, kept parallelizable.
  for (std::uint64_t s = 0; s < 25; ++s) {
    const std::uint64_t seed = GetParam() * 25 + s + 1;
    util::Xoshiro256 rng(seed);
    gen::GenOptions opts;
    opts.num_txns = 5;
    opts.num_objects = 2;
    opts.value_range = 2;
    const auto h = (seed % 2 == 0) ? gen::random_history(opts, rng)
                                   : gen::random_du_history(opts, rng);
    expect_batch_equivalent(h);
    util::Xoshiro256 mrng(seed * 131 + 17);
    auto m = gen::random_du_history(opts, mrng);
    m = gen::mutate(m, mrng);
    expect_batch_equivalent(m);
  }
}

TEST_P(MonitorBatchSweep, UniqueWriteMixesAreBatchEquivalent) {
  // The unique-writes class is the batched path's steady-state diet:
  // deeper histories, more transactions, several objects.
  util::Xoshiro256 rng(GetParam() * 977 + 5);
  gen::GenOptions opts;
  opts.num_txns = 12;
  opts.num_objects = 5;
  opts.unique_writes = true;
  for (int iter = 0; iter < 3; ++iter) {
    const auto h = gen::random_du_history(opts, rng);
    expect_batch_equivalent(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorBatchSweep,
                         ::testing::Values(0ull, 1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull));

// -- recorded STM executions -------------------------------------------------

class MonitorBatchRecordingEquivalence
    : public ::testing::TestWithParam<stm::BackendInfo> {};

TEST_P(MonitorBatchRecordingEquivalence, RecordedRunsAreBatchEquivalent) {
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
    expect_batch_equivalent(h);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, MonitorBatchRecordingEquivalence,
    ::testing::ValuesIn(stm::registered_backends()),
    [](const ::testing::TestParamInfo<stm::BackendInfo>& info) {
      return stm::test_identifier(info.param);
    });

// -- flat-memory regression over one million batched events -------------------

// Same streaming synthetic workload as tests/monitor_gc_test.cpp, but
// accumulated into feed_batch chunks, so GC passes run at batch ends while
// holding resident state flat.
class StreamingWorkload {
 public:
  explicit StreamingWorkload(std::size_t objects) : cur_(objects, 0) {}

  // Appends the next pair of transactions (12 events) to `out`.
  void next_pair(std::vector<Event>& out) {
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

TEST(MonitorBatch, ResidentStateStaysFlatOverOneMillionBatchedEvents) {
  constexpr std::size_t kTarget = 1'000'000;
  constexpr std::size_t kObjects = 8;
  constexpr std::size_t kPairsPerBatch = 24;  // 288 events
  MonitorOptions opts;
  opts.gc = true;
  opts.gc_retain_events = 512;
  OnlineMonitor mon(opts);
  StreamingWorkload wl(kObjects);
  std::vector<Event> batch;
  std::size_t peak_events = 0, peak_nodes = 0, peak_txns = 0;
  while (mon.events_fed() < kTarget) {
    batch.clear();
    for (std::size_t p = 0; p < kPairsPerBatch; ++p) wl.next_pair(batch);
    const auto out = mon.feed_batch(batch.data(), batch.size());
    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_EQ(out.consumed, batch.size());
    ASSERT_EQ(mon.verdict(), Verdict::kYes);
    peak_events = std::max(peak_events, mon.retained_events());
    peak_nodes = std::max(peak_nodes, mon.graph_nodes());
    peak_txns = std::max(peak_txns, mon.live_transactions());
  }
  // The RSS proxy — retained events + live graph nodes — must be bounded by
  // the GC pacing watermark plus one batch, not by the million-event count.
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_GE(mon.events_fed(), kTarget);
  EXPECT_LT(peak_events, 2048u);
  EXPECT_LT(peak_nodes, 1024u);
  EXPECT_LT(peak_txns, 512u);
  EXPECT_EQ(mon.stats().full_checks, 0u);  // stayed on the fast path
  EXPECT_GT(mon.stats().retired_txns, 150'000u);
  EXPECT_GT(mon.stats().retired_events, 990'000u);
}

}  // namespace
}  // namespace duo::monitor
