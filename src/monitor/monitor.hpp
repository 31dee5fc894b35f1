// Online incremental du-opacity monitor.
//
// The paper makes online monitoring sound: du-opacity is prefix-closed
// (Corollary 2), so once any prefix of an execution is non-du-opaque every
// extension is, and a monitor may latch a permanent "no" at the first bad
// event; if every finite prefix passes, limit-closure under unique writes
// (Theorem 5) extends the guarantee to the whole execution. OnlineMonitor
// turns that into an algorithm: it consumes history events one at a time
// and maintains the verdict for the growing prefix incrementally, instead
// of re-running the checker per prefix.
//
// The steady state is the graph engine (checker/graph_engine.hpp) maintained
// incrementally. The monitor keeps, per event, exactly the Tier-A constraint
// graph the batch engine would build for the current prefix:
//
//   - real-time order, sparsified through a completion chain (one fresh
//     graph node per t-completion; a transaction's ≺RT predecessors collapse
//     to one edge from the latest chain node at its start);
//   - reads-from edges, resolved exactly under unique writes (the unique
//     can-commit writer of the value read);
//   - per-object canonical version chains over the forced completion
//     (committed transactions plus commit-pending writers somebody reads
//     from), ordered by install key — tryC response once committed, tryC
//     invocation while commit-pending — with consecutive-writer edges;
//   - one anti-dependency edge per resolved read (reader before the first
//     chain successor of its writer, skipping the reader itself);
//   - initial-value-read edges (reader before every chain writer of the
//     object).
//
// All of it lives in one shared util::IncrementalGraph with Pearce-Kelly
// online cycle detection, so a typical event costs a handful of edge
// insertions. While the maintained graph is acyclic and the unique-writes
// precondition holds, ANY topological order of it is a valid du-opaque
// serialization — the prefix is kYes with no search at all. The paper's
// Def. 3(3) deferred-update condition collapses to the per-read
// tryC-before-response predicate, checked directly at each read response.
//
// Three event-local conditions latch kNo immediately (each is a sound
// rejection of the current prefix, mirroring the batch engine's fast
// rejects): an internal read not returning the transaction's own write, an
// external read of a value no can-commit transaction writes, and a read
// whose every candidate writer invoked tryC only after the read's response.
//
// Everything else falls back to one bounded batch check of the prefix
// (checker/engine.hpp routing: graph Tier B, then DFS), which happens only
// when (a) a canonical edge insertion would close a cycle — either a real
// violation, latched from the batch verdict, or a canonical-order
// miss-guess, after which the parked edge is retried as the graph thins —
// or (b) the prefix leaves the unique-writes class (two can-commit writers
// of one value, or a can-commit write of an initial value), for as long as
// it stays outside. Recorded STM runs take neither path: the canonical
// install order is the order the STM actually produced.
//
// -- feed_batch ---------------------------------------------------------
//
// feed() is a batch of one, and the ingest pipeline hands whole parsed
// chunks to feed_batch. Either way each event is taken in order: it is
// validated, the transaction bookkeeping runs, then the chain, anti-
// dependency and initial-read work links and unlinks its edges in the
// single Pearce-Kelly graph (util::IncrementalGraph), and the event ends
// with its verdict step (fast-path yes, or the bounded fallback). A batch
// stops after the event that latches kNo and before a malformed event, so
// a batch leaves the monitor in exactly the state feeding its consumed
// events one at a time would; the one difference is that GC passes run
// only at batch ends, which is invisible to verdicts
// (tests/monitor_batch_test.cpp holds this).
//
// Settled-prefix garbage collection (MonitorOptions::gc) bounds resident
// state to O(live transactions) for indefinite streams: a transaction is
// retired — its events, graph node, and per-object bookkeeping dropped —
// once nothing retained or future can name it. The settlement rule (see
// docs/service.md for the full argument) requires, with H the first event
// index of the earliest-started unfinished transaction:
//
//   - finished and t-completed before H, so it real-time-precedes every
//     live and future transaction;
//   - no retained read's anti-dependency edge targets it (drains as the
//     readers holding those edges retire);
//   - if committed: on every object it wrote it is superseded by two
//     committed successors installed before H, and no other transaction's
//     retained initial read of that object exists. The two-successor
//     guard makes any future chain splice or anti-dependency retarget
//     land strictly after it, and makes any future stale read of a
//     retired version a certain violation: the read would order its
//     reader before a guard successor that t-completed before the reader
//     even started.
//
// Reads still resolved to a retiring writer are sealed rather than
// blocking it (read-modify-write chains would otherwise never drain): the
// read keeps its anti-dependency edge — pinning the guard successor, so
// the reader's ordering constraint survives — while the version it read
// moves to a sealed-versions table. The fallback tier then checks the
// retained events with one synthetic committed writer per sealed version
// prepended in install-rank order; sealed versions precede the horizon, so
// the synthetic writers' real-time position is consistent with every
// retained transaction. A later read of a retired value latches kNo at the
// same event the unretired monitor would (its candidate set is empty,
// where the unretired monitor walks into the guard's real-time
// contradiction). Verdicts and first-violation indices with GC on are
// identical to the unretired monitor (tests/monitor_gc_test.cpp holds this
// over the generator sweeps and every registry backend).
//
// The monitor's verdict for every prefix equals check_du_opacity on that
// prefix (tests/monitor_test.cpp holds this, and the equality of
// first-violation indices, over random histories and recorded STM runs).
//
// Index convention: first_violation() is the 0-based index into the fed
// event sequence (the same convention as History::events() and the batch
// checker::first_bad_prefix query). Human-readable text — validate()
// diagnostics, duo_check output — numbers events from 1.
//
// Initial values are assumed to be 0 for every object, matching recorded
// executions and the trace parser.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/criteria.hpp"
#include "history/event.hpp"
#include "history/history.hpp"
#include "util/hash.hpp"
#include "util/incremental_graph.hpp"
#include "util/result.hpp"

namespace duo::monitor {

using checker::Verdict;
using history::Event;
using history::History;
using history::ObjId;
using history::TxnId;
using history::TxnStatus;
using history::Value;

struct MonitorOptions {
  /// DFS node budget for the bounded-search fallback.
  std::uint64_t node_budget = 50'000'000;
  /// Fixed t-object count; -1 grows the object set as events mention new
  /// ids (per-object state is kept in a sparse map, so large scattered ids
  /// cost only what is actually touched). Initial values are 0 either way.
  ObjId num_objects = -1;
  /// Engine routing for the fallback tier (checker/engine.hpp). With the
  /// default kAuto a fallback on a unique-writes prefix is re-checked by
  /// the polynomial graph engine (Tier B) instead of the exponential
  /// search, so fallbacks stop being the monitor's worst-case cost.
  checker::EngineKind engine = checker::EngineKind::kAuto;
  /// Settled-prefix garbage collection: retire transactions nothing
  /// retained or future can name (see the settlement rule in the header
  /// comment), bounding resident state to O(live transactions) for
  /// indefinite streams. Off by default: with GC on, history() returns
  /// only the retained event subsequence.
  bool gc = false;
  /// GC pacing, counted in events fed (retained or not): the first pass
  /// runs once gc_retain_events events have been fed, each later one once
  /// max(gc_retain_events / 2, 1) more have been fed since the previous
  /// pass. Passes run only at batch ends where the fast path is live; a
  /// pass that falls due elsewhere waits for the next such batch end. 0
  /// runs a pass after every event (for tests).
  std::size_t gc_retain_events = 4096;
};

struct MonitorStats {
  std::size_t events = 0;
  /// Events decided by the incrementally maintained constraint graph alone
  /// (acyclic => kYes; no per-prefix check of any kind).
  std::size_t fast_yes = 0;
  /// Bounded fallbacks (History rebuild + check_du_opacity on the prefix).
  std::size_t full_checks = 0;
  /// Fallbacks the engine router answered with the polynomial graph engine
  /// (subset of full_checks).
  std::size_t graph_checks = 0;
  /// Constraint-graph edge references added / released.
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  /// Version-chain splices: mid-chain insertions, removals and
  /// move-to-ends (plain appends — the common case — are not counted).
  std::size_t chain_splices = 0;
  /// Desired edges parked because their insertion would have closed a
  /// cycle (cumulative; each parking suspends the fast path until the
  /// graph thins enough to admit the edge).
  std::size_t deferred_edges = 0;
  /// Garbage-collection pass / retirement counters (all zero with GC off).
  std::size_t gc_passes = 0;
  std::size_t retired_txns = 0;
  std::size_t retired_events = 0;
  std::size_t sealed_reads = 0;
  /// Cumulative wall time inside GC passes, in nanoseconds (one clock
  /// reading pair per pass, none per event; 0 with GC off).
  std::uint64_t gc_ns = 0;
  /// True when kNo was latched by the incremental tier itself (an
  /// event-local rejection) rather than by the fallback check.
  bool latched_by_fast_path = false;
};

class OnlineMonitor {
 public:
  explicit OnlineMonitor(const MonitorOptions& opts = {});

  /// Consume the next event and return the verdict for the prefix ending at
  /// it. A malformed event (one History::make would reject) yields an error
  /// and is discarded; the monitor remains usable. Exactly
  /// feed_batch(&e, 1).
  [[nodiscard]] util::Result<Verdict> feed(const Event& e);

  /// Outcome of feed_batch. `consumed` is the number of leading events
  /// incorporated into the monitor (including a latching event); with a
  /// non-empty `error`, events[consumed] was malformed and the batch
  /// stopped before it (earlier events were fed normally). After a kNo
  /// latch the remainder of the batch is not consumed — prefix closure
  /// already covers it, and callers should stop feeding.
  struct [[nodiscard]] FeedOutcome {
    std::size_t consumed = 0;
    std::string error;
  };

  /// Consume up to `n` events in order (see the header comment).
  /// Equivalent to feeding them one at a time — same verdicts,
  /// first-violation index, stats and diagnostics — except that GC passes
  /// run at batch ends only.
  FeedOutcome feed_batch(const Event* events, std::size_t n);

  /// Verdict for the prefix fed so far. kNo is latched: per prefix closure
  /// it covers every extension, so later feeds are O(1).
  Verdict verdict() const noexcept { return verdict_; }

  /// 0-based index (into the fed event sequence) of the event at which kNo
  /// latched. Equals checker::first_bad_prefix on the same events; add 1
  /// when printing for humans.
  std::optional<std::size_t> first_violation() const noexcept {
    return first_violation_;
  }

  /// Human-readable reason for a kNo verdict.
  const std::string& explanation() const noexcept { return explanation_; }

  std::size_t events_fed() const noexcept { return total_events_; }
  ObjId num_objects() const noexcept { return num_objects_; }
  const MonitorStats& stats() const noexcept { return stats_; }

  /// Observability for long-running service use (duo_mond stats dumps and
  /// the flat-memory regression tests): the RSS-proxy resident state.
  std::size_t retained_events() const noexcept {
    return events_.size() - dead_events_;
  }
  std::size_t live_transactions() const noexcept { return tix_of_.size(); }
  std::size_t graph_nodes() const noexcept { return graph_.num_live_nodes(); }
  std::size_t graph_edges() const noexcept { return graph_.num_edges(); }
  std::size_t pending_edges() const noexcept { return pending_.size(); }
  std::size_t nonuw_debt() const noexcept { return nonuw_; }

  /// Everything fed so far as a History (O(events); for reporting). Note:
  /// materializing a History is dense in object ids, so this (and the
  /// fallback tier that uses it) assumes compact ids; the fast path itself
  /// never materializes. With GC on this is the retained event
  /// subsequence, which is self-contained (see the settlement rule).
  History history() const;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// Read::writer sentinel: the resolved writer was retired by GC. The
  /// read keeps its anti-dependency edge (pinning the target), but is out
  /// of reads_of_, so no later candidate traffic touches it; the version
  /// it read lives on in sealed_versions_ for fallback reconstruction.
  static constexpr std::size_t kSealedWriter = static_cast<std::size_t>(-2);

  // -- per-transaction incremental state (index = tix, dense in order of
  // first event) ----------------------------------------------------------
  struct Txn {
    TxnId id = 0;
    TxnStatus status = TxnStatus::kRunning;
    bool finished = false;  // saw a C_k or A_k response (validation)
    bool has_pending = false;
    Event pending_inv;
    std::optional<std::size_t> tryc_inv;
    std::vector<std::pair<ObjId, Value>> final_writes;  // responded writes
    std::vector<ObjId> objects_read;  // read-once validation (small set)
    std::size_t node = 0;             // constraint-graph node id
    /// Canonical install key (chain sort key): tryC invocation index while
    /// commit-pending, tryC response index once committed. Valid while the
    /// transaction is in any version chain.
    std::uint64_t install_key = 0;
    bool in_chain = false;
    /// Reads currently resolved to this writer (read ids); their count
    /// drives commit-pending chain membership (the forced completion).
    std::vector<std::size_t> rf_reads;
    // GC bookkeeping.
    std::size_t start_index = 0;       // absolute index of the first event
    std::size_t complete_index = kNone;  // absolute index of the C/A response
    std::size_t completion_seq = kNone;  // slot in the completion-node log
    std::vector<std::size_t> my_reads;   // read ids issued by this txn
    /// Retained reads whose anti-dependency edge currently targets this
    /// transaction; non-zero blocks retirement.
    std::size_t antidep_in = 0;
    /// Parked: left out of the GC sweep's seeds because it failed
    /// settlement with antidep_in > 0; release_pin re-seeds it when the
    /// count drops to zero. Implies antidep_in > 0.
    bool parked = false;
    /// Events of this transaction in the retained log (they turn dead at
    /// retirement).
    std::size_t num_events = 0;

    /// Clears for slot reuse, keeping vector capacities (a retired slot's
    /// arrays regrow to working-set size instead of reallocating).
    void reset() {
      id = 0;
      status = TxnStatus::kRunning;
      finished = false;
      has_pending = false;
      pending_inv = Event{};
      tryc_inv.reset();
      final_writes.clear();
      objects_read.clear();
      node = 0;
      install_key = 0;
      in_chain = false;
      rf_reads.clear();
      start_index = 0;
      complete_index = kNone;
      completion_seq = kNone;
      my_reads.clear();
      antidep_in = 0;
      parked = false;
      num_events = 0;
    }
  };

  // -- per-external-read constraint state ---------------------------------
  struct Read {
    std::size_t reader = 0;  // tix
    ObjId obj = -1;
    Value value = 0;
    std::size_t resp_index = 0;
    bool is_initial = false;
    std::vector<std::size_t> cands;  // can-commit writers of (obj, value)
    std::size_t local_count = 0;     // cands with tryC invoked before resp
    std::size_t writer = kNone;      // resolved reads-from writer (tix)
    std::size_t antidep = kNone;     // anti-dependency edge target (tix)

    void reset() {
      reader = 0;
      obj = -1;
      value = 0;
      resp_index = 0;
      is_initial = false;
      cands.clear();
      local_count = 0;
      writer = kNone;
      antidep = kNone;
    }
  };

  // -- per-object state (sparse: created on first touch) ------------------
  /// One version-chain member, with its install key copied in as the
  /// chain's sort key (a commit re-keys a member only after taking it out).
  struct ChainEntry {
    std::uint64_t key = 0;
    std::size_t tix = kNone;
    std::size_t node = 0;
  };
  struct InitialRead {
    std::size_t rid = kNone;
    std::size_t reader = kNone;  // tix
    std::size_t reader_node = 0;
  };
  struct ObjState {
    /// Must-commit writers of this object in canonical install order.
    std::vector<ChainEntry> chain;
    /// Initial-value reads of this object; each keeps an edge to every
    /// chain member.
    std::vector<InitialRead> initial_reads;
    /// Writer tix -> reads of THIS object currently resolved to it, in
    /// resolution order: the per-object projection of Txn::rf_reads, so a
    /// splice retargets only the reads of the spliced object.
    std::unordered_map<std::size_t, std::vector<std::size_t>> rf;
  };

  std::string validate(const Event& e) const;
  std::string fail_msg(const char* why, const Event& e) const;
  std::size_t txn_index(TxnId id);  // creates the transaction on first use

  void latch_at(std::size_t index, std::string reason, bool by_fast_path);
  bool latched() const noexcept { return verdict_ == Verdict::kNo; }

  // Edge bookkeeping (event handlers + GC): every desired edge goes through
  // link/unlink. A link that would close a cycle is parked in pending_
  // (the fast path is then suspended until it inserts cleanly after
  // removals thin the graph).
  void link(std::size_t a, std::size_t b);
  void unlink(std::size_t a, std::size_t b);
  void retry_pending();

  std::optional<Value> final_write_value(std::size_t tix, ObjId x) const;
  std::string read_desc(const Read& r) const;

  // -- per-object work: version chains, anti-dependencies, initial reads --
  static std::size_t chain_lower_bound(const std::vector<ChainEntry>& chain,
                                       std::uint64_t key);
  /// Position of the member inserted under `key` (must be present).
  static std::size_t chain_find(const std::vector<ChainEntry>& chain,
                                std::uint64_t key, std::size_t tix);
  void chain_insert(ObjId x, std::size_t tix);
  void chain_remove(ObjId x, std::size_t tix);
  void retarget_read(const ObjState& os, std::size_t rid, std::size_t wpos);
  void retarget_around(const ObjState& os, std::size_t pos);

  // -- transaction-global handlers ----------------------------------------
  /// Event-local latch: the first reason within one event wins.
  void latch_event(std::string reason);
  void enter_chains(std::size_t tix);
  void leave_chains(std::size_t tix);
  void resolve_read(std::size_t rid, std::size_t w);
  void unresolve_read(std::size_t rid);
  void reject_or_resolve(std::size_t rid);
  void new_transaction(std::size_t tix);
  void t_complete(std::size_t tix);
  void read_response(std::size_t tix, ObjId x, Value v,
                     std::size_t resp_index);
  void tryc_invoked(std::size_t tix);
  void committed(std::size_t tix, std::size_t resp_index);
  void aborted(std::size_t tix, bool was_commit_pending);
  /// Feeds one validated event: bookkeeping, edge work, verdict step.
  void feed_event(const Event& e);
  void run_full_check(std::size_t index);

  // Settled-prefix garbage collection (all no-ops with opts_.gc off); runs
  // only at batch ends.
  std::size_t live_horizon();
  bool txn_settled(std::size_t tix, std::size_t horizon) const;
  /// Drops one anti-dependency pin on `tix`, re-seeding it if parked.
  void release_pin(std::size_t tix);
  void retire_read(std::size_t rid);
  void retire_txn(std::size_t tix);
  void run_gc();
  /// Whether retained-log entry i belongs to a live transaction (its
  /// owner's slot still holds the transaction that logged it).
  bool event_live(std::size_t i) const {
    const LogStamp& st = log_stamps_[i];
    return txns_[st.tix].start_index == st.start;
  }
  void compact_log();

  MonitorOptions opts_;
  ObjId num_objects_ = 0;
  /// Retained events, in feed order. Without GC this is every event ever
  /// fed; with GC, retired transactions' events turn dead and are
  /// compacted away lazily, once they make up half the log, so compaction
  /// costs O(1) amortized per retired event. total_events_ keeps the
  /// absolute count (and index convention).
  std::vector<Event> events_;
  /// GC only: the owner of each events_ entry as (slot, start index). A
  /// retired slot's start index is poisoned and a reused slot's is larger,
  /// so the stamp identifies the logging transaction even after its id is
  /// reused by a later one.
  struct LogStamp {
    std::size_t tix = 0;
    std::size_t start = 0;
  };
  std::vector<LogStamp> log_stamps_;
  std::size_t dead_events_ = 0;  // events_ entries of retired transactions
  std::size_t total_events_ = 0;
  std::vector<Txn> txns_;
  std::unordered_map<TxnId, std::size_t> tix_of_;
  std::vector<std::size_t> free_txns_;  // retired Txn slots awaiting reuse
  std::vector<std::size_t> free_reads_;  // retired Read slots awaiting reuse

  std::vector<Read> reads_;
  // (obj, value) -> reads returning that value / can-commit writers of it.
  std::unordered_map<std::pair<ObjId, Value>, std::vector<std::size_t>,
                     util::PairHash>
      reads_of_;
  std::unordered_map<std::pair<ObjId, Value>, std::vector<std::size_t>,
                     util::PairHash>
      writers_of_;

  std::unordered_map<ObjId, ObjState> objs_;

  /// The current event's event-local latch (see latch_event).
  bool event_latched_ = false;
  std::string event_latch_reason_;

  util::IncrementalGraph graph_;
  /// ≺RT sparsification chain. Each entry is one t-completion's chain node;
  /// the log is a deque so GC can drop the settled front (a node pops once
  /// its completing transaction is retired; the back node — the one new
  /// transactions link from — always stays).
  struct CompletionEntry {
    std::size_t node = 0;
    bool completer_retired = false;
  };
  std::deque<CompletionEntry> completion_log_;
  std::size_t completion_base_ = 0;  // seq of completion_log_.front()
  /// (tix, start_index) in start order, lazily pruned: the front (skipping
  /// finished or reused entries) is the earliest-started unfinished
  /// transaction, whose start index is the GC live horizon H.
  std::deque<std::pair<std::size_t, std::size_t>> open_txns_;
  /// The next GC sweep's seeds: every live slot not parked (new slots and
  /// re-seeded ones are appended; may hold stale or duplicate entries,
  /// which the sweep drops).
  std::vector<std::size_t> gc_candidates_;
  std::size_t gc_trigger_ = 0;
  /// Versions written by retired writers that retained sealed reads still
  /// reference: (obj, value) -> (install rank, referencing sealed reads).
  /// The fallback tier reconstructs each as one synthetic committed writer
  /// prepended to the retained events (in rank order); an entry dies with
  /// its last sealed read.
  struct SealedVersion {
    std::uint64_t rank = 0;
    std::size_t refs = 0;
  };
  std::unordered_map<std::pair<ObjId, Value>, SealedVersion, util::PairHash>
      sealed_versions_;
  TxnId max_txn_id_seen_ = 0;  // preamble ids are allocated above this
  /// Desired edges absent from the graph (insertion would have closed a
  /// cycle), with multiplicity. Non-empty => fast path suspended. Stays an
  /// ordered map: retry_pending's iteration order is part of the
  /// deterministic behavior, and the set is almost always empty.
  std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> pending_;
  /// Unique-writes debt: count of (obj, value) keys with two or more
  /// can-commit writers, plus can-commit final writes of an initial value.
  /// Non-zero => the prefix is outside the class the incremental graph
  /// decides, and every event falls back to the bounded check.
  std::size_t nonuw_ = 0;
  bool removed_this_event_ = false;

  Verdict verdict_ = Verdict::kYes;
  std::optional<std::size_t> first_violation_;
  std::string explanation_;

  MonitorStats stats_;
};

/// Streams `events` through a fresh OnlineMonitor and returns the 0-based
/// index of the first violating event (nullopt when no prefix latches).
/// `explanation`, when non-null, receives the latch reason.
std::optional<std::size_t> first_violation_index(
    const std::vector<Event>& events, const MonitorOptions& opts = {},
    std::string* explanation = nullptr);

}  // namespace duo::monitor
