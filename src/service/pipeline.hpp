// Ingest pipeline for long-running trace verification.
//
// The monitor's constraint graph is inherently serial — every edge insertion
// mutates one Pearce-Kelly topological order — but most of the per-event
// cost of verifying a text trace is upstream of the graph: tokenizing,
// event decoding, object-id accounting. IngestPipeline splits the work
// accordingly:
//
//   producers --submit--> [chunk queue] --> parse workers --> [reorder
//   ring, MPSC] --> applier thread --> OnlineMonitor (serial)
//
// Each submitted chunk (a run of whitespace-separated trace tokens;
// producers must cut at token boundaries) is stamped with a sequence
// number, parsed by whichever worker picks it up, and pushed — out of
// order — into a bounded MPSC reorder ring. The single applier thread pops
// batches in sequence order and feeds the decoded events to the monitor,
// so the monitor observes exactly the event order of the original text and
// verdicts/first-violation indices are independent of the worker count
// (tests/service_test.cpp holds this).
//
// Both queues are bounded by ring_capacity, so a slow applier back-
// pressures producers instead of buffering the trace in memory; with
// MonitorOptions::gc on, resident state stays O(live transactions)
// end to end.
//
// A latched violation, a parse error, or a malformed event stream makes
// the pipeline *stop*: submit() starts returning false (per prefix closure
// the latched verdict covers everything unread) and in-flight chunks are
// discarded. finish() joins the pool and returns the final result either
// way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "history/parser.hpp"
#include "monitor/monitor.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace duo::service {

struct PipelineOptions {
  /// Parse workers; 0 means hardware concurrency (min 1).
  std::size_t workers = 0;
  /// Bound on in-flight chunks (queued + parsed-but-unapplied). submit()
  /// blocks at the bound; must be >= 1. Total buffered memory is bounded
  /// by this times the producer's chunk size (FollowReader caps chunks at
  /// max_chunk_bytes), so the default keeps a catching-up daemon around
  /// ten megabytes even when the applier lags.
  std::size_t ring_capacity = 16;
  /// Monitor configuration. Long-running services want monitor.gc = true.
  monitor::MonitorOptions monitor;
};

/// Final outcome of one ingest run (finish()).
struct PipelineResult {
  checker::Verdict verdict = checker::Verdict::kYes;
  /// 0-based event index at which kNo latched (monitor convention).
  std::optional<std::size_t> first_violation;
  /// Violation reason, or the parse/stream diagnostic when error is set.
  std::string explanation;
  /// A chunk failed to parse or an event was malformed; verdict is
  /// meaningless beyond "the input is not a history".
  bool error = false;
  /// A `truncated` token appeared: a clean verdict covers only the
  /// recorded prefix (callers report inconclusive, as duo_check does).
  bool truncated = false;
  std::size_t events = 0;
  monitor::MonitorStats monitor;
};

/// Point-in-time counters for live observability (duo_mond stats dumps).
/// Taken under the applier's lock, so the numbers are mutually consistent.
struct PipelineSnapshot {
  std::size_t events = 0;
  std::size_t chunks = 0;
  checker::Verdict verdict = checker::Verdict::kYes;
  bool stopped = false;
  // Monitor resident-state proxies (see monitor.hpp accessors).
  std::size_t retained_events = 0;
  std::size_t live_transactions = 0;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  std::size_t pending_edges = 0;
  std::size_t nonuw_debt = 0;
  std::size_t retired_txns = 0;
  std::size_t sealed_reads = 0;
  std::size_t gc_passes = 0;
  std::uint64_t gc_ns = 0;
  std::size_t full_checks = 0;
};

class IngestPipeline {
 public:
  explicit IngestPipeline(const PipelineOptions& opts = {});
  /// Joins the pool; finish() first if the result matters.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  std::size_t workers() const noexcept { return workers_.size(); }

  /// Queue one chunk of trace text for parsing. Blocks while the ring is
  /// full. Returns false once the pipeline has stopped (violation, error,
  /// or finish() already called) — the chunk is then dropped, soundly for
  /// violations by prefix closure.
  bool submit(std::string chunk);

  /// Marks end of input, drains in-flight work, joins all threads and
  /// returns the final result. Idempotent (subsequent calls return the
  /// same result).
  PipelineResult finish();

  /// Consistent live counters; callable from any thread while running.
  PipelineSnapshot snapshot() const;

 private:
  struct Chunk {
    std::uint64_t seq = 0;
    std::string text;
  };
  /// A parsed chunk in the reorder ring (or its parse diagnostic).
  struct Parsed {
    util::Result<history::ParsedEvents> events;
  };

  void worker_main();
  void applier_main();
  void apply(const history::ParsedEvents& pe) DUO_REQUIRES(apply_mutex_);
  void stop_locked(std::string why, bool is_error) DUO_REQUIRES(apply_mutex_);
  std::size_t in_flight_locked() const DUO_REQUIRES(queue_mutex_);

  // unguarded: set in the constructor, read-only afterwards; every
  // thread is created after the constructor returns
  PipelineOptions opts_;

  // -- chunk queue (producers -> workers) + reorder ring (workers ->
  // applier), one lock: every critical section is a couple of moves -------
  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;                // workers & producers wait here
  util::CondVar ring_cv_;                 // the applier waits here
  std::deque<Chunk> chunks_ DUO_GUARDED_BY(queue_mutex_);
  std::map<std::uint64_t, Parsed> ring_ DUO_GUARDED_BY(queue_mutex_);
  std::uint64_t next_submit_seq_ DUO_GUARDED_BY(queue_mutex_) = 0;
  std::uint64_t next_apply_seq_ DUO_GUARDED_BY(queue_mutex_) = 0;
  bool input_done_ DUO_GUARDED_BY(queue_mutex_) = false;
  bool stopped_ DUO_GUARDED_BY(queue_mutex_) = false;

  // -- serial apply state (the applier thread owns it; snapshot() and the
  // post-join finish() read it under the same lock) ------------------------
  mutable util::Mutex apply_mutex_;
  monitor::OnlineMonitor monitor_ DUO_GUARDED_BY(apply_mutex_);
  history::ObjId declared_objects_ DUO_GUARDED_BY(apply_mutex_) = -1;
  history::ObjId max_obj_ DUO_GUARDED_BY(apply_mutex_) = -1;
  bool truncated_ DUO_GUARDED_BY(apply_mutex_) = false;
  bool error_ DUO_GUARDED_BY(apply_mutex_) = false;
  std::string diagnostic_ DUO_GUARDED_BY(apply_mutex_);
  std::size_t chunks_applied_ DUO_GUARDED_BY(apply_mutex_) = 0;

  // Thread handles and finish() state are touched only by the owning
  // (main) thread — created in the constructor, joined in finish(); the
  // workers never see these members.
  std::vector<std::thread> workers_;  // unguarded: owning thread only
  std::thread applier_;               // unguarded: owning thread only
  bool finished_ = false;             // unguarded: owning thread only
  PipelineResult result_;             // unguarded: valid once finished_
};

}  // namespace duo::service
