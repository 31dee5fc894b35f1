// perfbench — the du-opacity stack's end-to-end benchmark program.
//
// Four workloads (see perfbench/README.md for the metrics and why each
// workload exists):
//
//   mond-stream    duo_mond's production path on a pre-written trace file:
//                  FollowReader -> IngestPipeline -> OnlineMonitor (GC on)
//   check-offline  duo_check's single-trace path over a fixed trace set:
//                  parse_history -> evaluate_all -> check_du_opacity ->
//                  first_bad_prefix when rejected
//   tap-feed       a producer thread records a pre-written trace's events
//                  into a Recorder while a RecorderTap drains them into a
//                  GC-on monitor, one event at a time; its traced run also
//                  times run_random_mix bare and recorded (the stm layer)
//   live-tap       run_random_mix on tl2, norec and 2pl-undo with a
//                  Recorder and a RecorderTap draining into a GC-on monitor
//
// Subcommands:
//
//   perfbench gen   --workload W --seed N --out-dir D
//       writes W's seeded inputs under D (mond-stream: one trace file;
//       check-offline: the trace set) plus D/<W>-<N>.manifest
//   perfbench run   --workload W --seed N --seconds S --trace 0|1 --out-dir D
//       measures W for S seconds on the inputs `gen` wrote, checks every
//       verdict, and prints one JSON object as its last stdout line
//   perfbench probe
//       parallel-speedup probe: the same CPU-bound loop on one thread and
//       on every hardware thread; prints the effective speedup
//
// With --trace 1 the run records spans around each call into the library
// (kept in memory, written to D/spans-<W>-<N>.jsonl at the end) and reports
// the per-layer metrics plus its own overhead against untraced passes.
// perfbench/run.py builds this binary and drives all three subcommands.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "bench_util.hpp"
#include "checker/du_opacity.hpp"
#include "checker/engine.hpp"
#include "checker/verdict.hpp"
#include "history/parser.hpp"
#include "monitor/monitor.hpp"
#include "monitor/tap.hpp"
#include "service/daemon.hpp"
#include "service/pipeline.hpp"
#include "stm/recorder.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"
#include "tracegen.hpp"

namespace perfbench {
namespace {

using duo::checker::Criterion;
using duo::checker::Verdict;

// -- workload shapes ---------------------------------------------------------

// mond-stream: one long trace of recorded-STM shape.
constexpr std::size_t kStreamEvents = 1'000'000;
TraceShape stream_shape() {
  TraceShape s;
  s.threads = 6;
  s.objects = 1024;
  s.min_ops = 2;
  s.max_ops = 6;
  s.write_prob = 0.4;
  s.zipf_theta = 0.8;
  s.split_prob = 0.3;
  return s;
}

// check-offline: long unique-writes traces (graph engine, History::make),
// the same shape with one injected violation (localization), and short
// traces whose writes repeat (DFS search). Long traces stay at 3000
// events: at 6000, about one seed in four held a trace on which a
// criterion's graph engine declines into the DFS at 10-50x the cost, so the
// set's throughput depended on the seed more than on the code.
constexpr std::size_t kLongTraces = 24;
constexpr std::size_t kViolatingTraces = 8;
constexpr std::size_t kShortTraces = 500;
constexpr std::size_t kLongEvents = 3'000;
constexpr std::size_t kShortEvents = 60;
TraceShape long_shape() {
  TraceShape s;
  s.threads = 6;
  s.objects = 128;
  s.min_ops = 2;
  s.max_ops = 5;
  s.zipf_theta = 0.8;
  return s;
}
TraceShape short_shape() {
  TraceShape s;
  s.threads = 3;
  s.objects = 4;
  s.min_ops = 1;
  s.max_ops = 3;
  s.write_prob = 0.5;
  s.zipf_theta = 0.0;
  s.unique_writes = false;
  s.value_range = 3;
  return s;
}

// tap-feed: a trace of mond-stream's shape, shorter, so that a run holds
// enough passes for a median.
constexpr std::size_t kFeedEvents = 250'000;

// live-tap and the stm layer: the random mix on one deferred-update pair
// and one direct-update backend (the paper's axis).
const char* const kTapBackends[] = {"tl2", "norec", "2pl-undo"};
duo::stm::WorkloadOptions tap_options(std::uint64_t seed) {
  duo::stm::WorkloadOptions o;
  // STM threads plus the tap thread stay within the hardware threads.
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  o.threads = std::min<std::size_t>(3, hw - 1);
  o.txns_per_thread = 5'000;
  o.objects = 64;
  o.ops_per_txn = 4;
  o.write_fraction = 0.3;
  o.zipf_theta = 0.6;
  // The largest retry budget run_random_mix allows: a lock holder
  // preempted on an oversubscribed machine must not make the others give
  // up (an abandoned transaction counts as a failure).
  o.max_attempts = 1 << 16;
  o.seed = seed;
  return o;
}

// The stm layer (tap-feed's traced run): the random mix, two threads, 1000
// transactions each, so that check_du_opacity verifies every recording in
// milliseconds (its cost grows with the square of the transactions,
// aborted attempts included). Two threads, because a host whose CPU quota
// is below its hardware thread count preempts lock holders: with three
// recording threads on such a host (probe speedup 1.0 of 4), 2pl-undo gave
// a transaction up after 2^16 attempts in 9 of 300 runs of 5000
// transactions per thread; with two, none in 6000 runs of 1000.
duo::stm::WorkloadOptions stm_options(std::uint64_t seed) {
  duo::stm::WorkloadOptions o = tap_options(seed);
  o.threads = 2;
  o.txns_per_thread = 1'000;
  return o;
}

// A recorded or tapped live-tap run (normally well under a second) that has
// not reached its verdict after this long is killed and counted as
// undecided.
constexpr double kTapRunTimeout = 10;

// Time budget of the GC-off replay of a mismatching prefix.
constexpr double kReplaySeconds = 3;

// Address-space cap of the benchmark process (and its children): a
// monitor fallback that materializes a huge history fails the run instead
// of exhausting the machine's memory.
constexpr rlim_t kAddressSpaceCap = rlim_t{4} << 30;

// Set-up is timed this many times per run; the median is reported.
constexpr int kSetupReps = 101;
constexpr int kCheckSetupReps = 15;  // each loads the whole check-offline set

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed * 0x100000001b3ULL + stream);
  return r.next();
}

// -- arguments ---------------------------------------------------------------

struct Args {
  std::string cmd;
  std::string workload;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench gen|run|probe --workload "
               "mond-stream|check-offline|tap-feed|live-tap --seed N "
               "[--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds")
      a.seconds = std::atof(v);
    else if (k == "--trace")
      a.trace = std::strcmp(v, "1") == 0;
    else if (k == "--out-dir")
      a.out_dir = v;
    else
      usage(("unknown option " + k).c_str());
  }
  return a;
}

// -- inputs ------------------------------------------------------------------

/// One generated input: path, kind, event count and the 0-based index of
/// its injected violation (-1: du-opaque by construction).
struct Input {
  std::string path;
  std::string kind;  // stream | long | violating | short
  std::size_t events = 0;
  long long violation = -1;
};

std::string manifest_path(const Args& a) {
  return a.out_dir + "/" + a.workload + "-" + std::to_string(a.seed) +
         ".manifest";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  return static_cast<bool>(f);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int cmd_gen(const Args& a) {
  std::vector<Input> inputs;
  std::size_t bytes = 0;
  const auto emit = [&](const std::string& name, const std::string& kind,
                        const GeneratedTrace& t) {
    Input in{a.out_dir + "/" + name, kind, t.events,
             t.violation ? static_cast<long long>(*t.violation) : -1};
    if (!write_file(in.path, t.text)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", in.path.c_str());
      std::exit(1);
    }
    bytes += t.text.size();
    inputs.push_back(in);
  };
  const std::string tag = std::to_string(a.seed);
  if (a.workload == "mond-stream") {
    emit("stream-" + tag + ".txt", "stream",
         generate_trace(stream_shape(), mix_seed(a.seed, 1), kStreamEvents));
  } else if (a.workload == "check-offline") {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kLongTraces; ++i, ++n)
      emit("check-" + tag + "-" + std::to_string(n) + ".txt", "long",
           generate_trace(long_shape(), mix_seed(a.seed, 100 + n), kLongEvents));
    for (std::size_t i = 0; i < kViolatingTraces; ++i, ++n) {
      // The injection lands somewhere in the middle half of the trace.
      Rng r(mix_seed(a.seed, 200 + n));
      const std::size_t after = kLongEvents / 4 + r.below(kLongEvents / 2);
      const auto t = generate_trace(long_shape(), mix_seed(a.seed, 100 + n),
                                    kLongEvents, true, after);
      if (!t.violation) {
        std::fprintf(stderr, "perfbench: no injection site in trace %zu\n", n);
        return 1;
      }
      emit("check-" + tag + "-" + std::to_string(n) + ".txt", "violating", t);
    }
    for (std::size_t i = 0; i < kShortTraces; ++i, ++n)
      emit("check-" + tag + "-" + std::to_string(n) + ".txt", "short",
           generate_trace(short_shape(), mix_seed(a.seed, 100 + n),
                          kShortEvents));
  } else if (a.workload == "tap-feed") {
    emit("feed-" + tag + ".txt", "feed",
         generate_trace(stream_shape(), mix_seed(a.seed, 2), kFeedEvents));
  } else if (a.workload != "live-tap") {
    usage("unknown workload");
  }
  std::ostringstream m;
  std::size_t events = 0;
  for (const Input& in : inputs) {
    m << in.path << ' ' << in.kind << ' ' << in.events << ' ' << in.violation
      << '\n';
    events += in.events;
  }
  if (!write_file(manifest_path(a), m.str())) {
    std::fprintf(stderr, "perfbench: cannot write the manifest\n");
    return 1;
  }
  std::printf("%s\n", Json()
                          .integer("inputs", inputs.size())
                          .integer("events", events)
                          .integer("bytes", bytes)
                          .text()
                          .c_str());
  return 0;
}

std::vector<Input> load_manifest(const Args& a) {
  std::ifstream f(manifest_path(a));
  if (!f) usage("no inputs: run `perfbench gen` first");
  std::vector<Input> out;
  Input in;
  while (f >> in.path >> in.kind >> in.events >> in.violation) out.push_back(in);
  return out;
}

// -- results -----------------------------------------------------------------

/// What one run reports: end-to-end (untraced) or per-layer (traced)
/// metrics, verdict accounting, and a human-readable report section.
struct Result {
  std::map<std::string, double> metrics;
  Json report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // wrong or undecided verdicts (subset of failed)
  std::vector<std::string> failures;
  std::uint64_t tap_reports = 0;

  /// A wrong or undecided verdict.
  void fail(const std::string& why) {
    ++failed;
    ++wrong;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// Records a timing as the report's `name` {median, tail, tail_pct, n}.
void report_timing(Result& r, const std::string& name, const Samples& s) {
  r.report.obj(name, Json()
                         .num("median", s.median())
                         .num("tail", s.tail())
                         .num("tail_pct", s.tail_pct())
                         .integer("n", s.size()));
}

/// Peak RSS of this process, or of its largest waited-for child when that
/// is larger (live-tap runs each tapped backend in a child).
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  const auto kb = std::max<std::size_t>(duo::service::vm_hwm_kb(),
                                        static_cast<std::size_t>(ru.ru_maxrss));
  return static_cast<double>(kb) / 1024.0;
}

void add_monitor_counters(Result& r, const duo::monitor::MonitorStats& st) {
  auto& m = r.metrics;
  m["monitor.events"] += st.events;
  m["monitor.fast_yes"] += st.fast_yes;
  m["monitor.fast_yes_ratio"] =
      m["monitor.events"] > 0 ? m["monitor.fast_yes"] / m["monitor.events"]
                              : 0.0;
  m["monitor.full_checks"] += st.full_checks;
  m["monitor.graph_checks"] += st.graph_checks;
  m["monitor.deferred_edges"] += st.deferred_edges;
  m["monitor.chain_splices"] += st.chain_splices;
  m["monitor.edges_added"] += st.edges_added;
  m["monitor.retired_txns"] += st.retired_txns;
  m["monitor.sealed_reads"] += st.sealed_reads;
  m["monitor.gc_passes"] += st.gc_passes;
}

void set_overhead(Result& r, double untraced_eps, double traced_eps) {
  r.metrics["trace.untraced_events_per_s"] = untraced_eps;
  r.metrics["trace.traced_events_per_s"] = traced_eps;
  // Share of the untraced rate lost to tracing (negative: within noise).
  r.metrics["trace.overhead_ratio"] =
      untraced_eps > 0 ? (untraced_eps - traced_eps) / untraced_eps : 0.0;
}

/// Writes (or, for live-tap children, appends) spans to
/// <out-dir>/spans-<workload>-<seed>.jsonl, each tagged with `label`.
void write_spans(const Args& a, const Tracer& tr, const char* label,
                 bool append) {
  const std::string path = a.out_dir + "/spans-" + a.workload + "-" +
                           std::to_string(a.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) return;
  tr.write(f, label);
  std::fclose(f);
}

// -- mond-stream -------------------------------------------------------------

duo::service::PipelineOptions stream_pipeline_options() {
  duo::service::PipelineOptions o;  // duo_mond defaults...
  o.monitor.gc = true;              // ...with GC on, as duo_mond sets it
  return o;
}

void check_stream(Result& r, const duo::service::PipelineResult& res,
                  const Input& in) {
  ++r.attempted;
  if (res.error)
    r.fail("mond-stream: input error: " + res.explanation);
  else if (res.verdict != Verdict::kYes)
    r.fail("mond-stream: verdict " + duo::checker::to_string(res.verdict) +
           " at event " + std::to_string(res.first_violation.value_or(0)) +
           ": " + res.explanation);
  else if (res.events != in.events)
    r.fail("mond-stream: " + std::to_string(res.events) + " events, expected " +
           std::to_string(in.events));
}

/// One untraced pass: duo_mond's own loop, service::run_daemon, at its
/// default options with GC on, stats off and the idle cutoff at its
/// minimum (1 ms), so it ends right after the whole file was handed over.
/// The final verdict line goes to a memory stream. Returns the time from
/// the call to the final verdict.
double daemon_pass(Result& r, const Input& in) {
  duo::service::DaemonOptions o;
  o.trace_path = in.path;
  o.pipeline = stream_pipeline_options();
  o.follow.idle_ms = 1;
  o.stats_interval_ms = 0;
  char* line = nullptr;
  std::size_t line_len = 0;
  std::FILE* out = ::open_memstream(&line, &line_len);
  if (out == nullptr) usage("open_memstream failed");
  const double t0 = now_s();
  const duo::service::DaemonReport rep = duo::service::run_daemon(o, out);
  const double wall = now_s() - t0;
  std::fclose(out);
  const std::string said(line, line_len);
  std::free(line);
  check_stream(r, rep.result, in);
  if (rep.exit_code != 0 || rep.ended_by != "eof-idle") {
    ++r.attempted;
    r.fail("mond-stream: run_daemon exit " + std::to_string(rep.exit_code) +
           ", ended by " + rep.ended_by + ": " + said);
  }
  return wall;
}

/// One traced pass: run_daemon's loop written out, so that each call into
/// the service gets a span (run_daemon itself has no hook for that).
struct StreamPass {
  double wall_s = 0;  // first poll to final verdict
  duo::service::PipelineResult result;
};

StreamPass stream_pass(const std::string& path, std::size_t size, Tracer& tr,
                       Samples& inflight) {
  StreamPass p;
  duo::service::FollowReader reader(path, {});
  duo::service::IngestPipeline pipeline(stream_pipeline_options());
  const double t1 = now_s();
  const std::uint32_t pass = tr.open("stream.pass");
  std::string chunk;
  std::size_t submitted = 0;
  for (;;) {
    auto st = duo::service::FollowStatus::kError;
    timed(tr, "service.poll", pass, [&] { st = reader.poll(chunk); });
    if (st != duo::service::FollowStatus::kData) break;
    bool more = false;
    timed(tr, "service.submit", pass,
          [&] { more = pipeline.submit(std::move(chunk)); });
    ++submitted;
    inflight.add(static_cast<double>(submitted - pipeline.snapshot().chunks));
    if (!more || reader.bytes_consumed() >= size) break;
  }
  timed(tr, "service.finish", pass, [&] { p.result = pipeline.finish(); });
  tr.close(pass);
  p.wall_s = now_s() - t1;
  return p;
}

/// The layer phase: the same chunks read, parsed alone, and fed to a
/// monitor alone (feed_batch per parsed chunk), with spans around each call.
struct LayerTimes {
  double poll_s = 0, parse_s = 0, feed_s = 0;
};

LayerTimes stream_layers(Result& r, const Input& in, std::size_t size,
                         Tracer& tr) {
  LayerTimes lt;
  std::vector<std::string> chunks;
  {
    duo::service::FollowReader reader(in.path, {});
    std::string chunk;
    while (reader.bytes_consumed() < size) {
      auto st = duo::service::FollowStatus::kError;
      lt.poll_s += timed(tr, "layer.poll", 0, [&] { st = reader.poll(chunk); });
      if (st != duo::service::FollowStatus::kData) break;
      chunks.push_back(std::move(chunk));
    }
  }

  std::vector<duo::history::ParsedEvents> parsed;
  parsed.reserve(chunks.size());
  for (const std::string& c : chunks) {
    std::optional<duo::util::Result<duo::history::ParsedEvents>> pe;
    lt.parse_s += timed(tr, "history.parse_events", 0,
                        [&] { pe = duo::history::parse_events(c); });
    if (!*pe) {
      r.fail("mond-stream: chunk does not parse: " + pe->error());
      return lt;
    }
    parsed.push_back(std::move(*pe).take());
  }

  duo::monitor::OnlineMonitor mon(stream_pipeline_options().monitor);
  Samples batch_us, gc_batch_us;
  double peak_nodes = 0, peak_retained = 0, peak_live = 0;
  for (const auto& pe : parsed) {
    const std::size_t gc_before = mon.stats().gc_passes;
    duo::monitor::OnlineMonitor::FeedOutcome out;
    const double us = 1e6 * timed(tr, "monitor.feed_batch", 0, [&] {
      out = mon.feed_batch(pe.events.data(), pe.events.size());
    });
    if (!out.error.empty() || out.consumed != pe.events.size()) {
      r.fail("mond-stream: feed_batch stopped: " + out.error);
      break;
    }
    batch_us.add(us);
    if (mon.stats().gc_passes != gc_before) gc_batch_us.add(us);
    peak_nodes = std::max(peak_nodes, static_cast<double>(mon.graph_nodes()));
    peak_retained =
        std::max(peak_retained, static_cast<double>(mon.retained_events()));
    peak_live =
        std::max(peak_live, static_cast<double>(mon.live_transactions()));
  }
  ++r.attempted;
  if (mon.verdict() != Verdict::kYes || mon.events_fed() != in.events)
    r.fail("mond-stream: monitor alone says " +
           duo::checker::to_string(mon.verdict()) + " after " +
           std::to_string(mon.events_fed()) + " events");
  lt.feed_s = batch_us.sum() / 1e6;

  auto& m = r.metrics;
  m["history.parse_events_per_s"] = lt.parse_s > 0 ? in.events / lt.parse_s : 0;
  m["monitor.feed_events_per_s"] = lt.feed_s > 0 ? in.events / lt.feed_s : 0;
  m["monitor.batch_us_p50"] = batch_us.median();
  m["monitor.batch_us_p99"] = batch_us.quantile(0.99);
  m["monitor.gc_batch_us_p50"] = gc_batch_us.median();
  m["monitor.peak_graph_nodes"] = peak_nodes;
  m["monitor.peak_retained_events"] = peak_retained;
  m["monitor.peak_live_txns"] = peak_live;
  add_monitor_counters(r, mon.stats());
  return lt;
}

void run_stream(const Args& a, Result& r) {
  const std::vector<Input> inputs = load_manifest(a);
  if (inputs.size() != 1) usage("bad mond-stream manifest");
  const Input& in = inputs[0];
  struct stat st{};
  if (::stat(in.path.c_str(), &st) != 0) usage("missing trace file");
  const auto size = static_cast<std::size_t>(st.st_size);

  Samples setup, pass_ms, eps;
  // Set-up alone, repeated: constructing the reader and the pipeline (its
  // parse workers and applier) before the first input.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    duo::service::FollowReader reader(in.path, {});
    duo::service::IngestPipeline pipeline(stream_pipeline_options());
    setup.add(now_s() - t0);
    (void)pipeline.finish();
  }
  const auto untraced = [&](double seconds) {
    const double until = now_s() + seconds;
    do {
      const double wall = daemon_pass(r, in);
      pass_ms.add(wall * 1e3);
      eps.add(static_cast<double>(in.events) / wall);
    } while (now_s() < until);
  };

  if (!a.trace) {
    untraced(a.seconds);
    r.metrics["setup_s"] = setup.median();
    r.metrics["events_per_s"] = eps.median();
    r.metrics["verdict_ms"] = pass_ms.median();
    report_timing(r, "stream_events_per_s", eps);
    report_timing(r, "stream_pass_ms", pass_ms);
    r.report.num("stream_peak_rss_mb", peak_rss_mb());
    r.report.integer("trace_events", in.events).integer("trace_bytes", size);
    return;
  }

  // Traced: untraced passes first (the overhead baseline), then the layer
  // phase, then traced pipeline passes. With only a few passes per phase,
  // a first pass (page cache, allocator arenas still growing) would skew
  // the comparison, so one untimed pass goes before them.
  (void)daemon_pass(r, in);
  untraced(a.seconds * 0.35);
  Tracer tr(true);
  const LayerTimes lt = stream_layers(r, in, size, tr);
  Samples inflight, traced;
  const double until = now_s() + a.seconds * 0.35;
  do {
    const StreamPass p = stream_pass(in.path, size, tr, inflight);
    check_stream(r, p.result, in);
    traced.add(p.wall_s);
  } while (now_s() < until);
  const double wall_traced = traced.median();
  set_overhead(r, eps.median(), in.events / wall_traced);

  auto& m = r.metrics;
  const Samples poll = tr.durations("service.poll");
  const Samples submit = tr.durations("service.submit");
  const Samples finish = tr.durations("service.finish");
  const double passes = static_cast<double>(traced.size());
  m["service.poll_ms"] = poll.sum() / passes * 1e3;
  m["service.submit_blocked_s"] = submit.sum() / passes;
  m["service.finish_ms"] = finish.median() * 1e3;
  m["service.inflight_p50"] = inflight.median();
  // Wall time of a pipeline pass not explained by parsing and feeding the
  // same chunks alone (reading, handoff, reorder, back-pressure; negative
  // when the parse workers overlap the applier by more than that).
  m["service.overhead_s"] = wall_traced - lt.parse_s - lt.feed_s;
  // The part of a traced pass its spans do not cover (the loop itself).
  m["trace.residual_s"] =
      wall_traced - (poll.sum() + submit.sum() + finish.sum()) / passes;
  r.report.obj("decomposition_s",
               Json()
                   .num("pass_wall", wall_traced)
                   .num("read_alone", lt.poll_s)
                   .num("parse_alone", lt.parse_s)
                   .num("feed_batch_alone", lt.feed_s)
                   .num("service_overhead", m["service.overhead_s"])
                   .num("span_residual", m["trace.residual_s"]));
  write_spans(a, tr, "main", false);
}


// -- check-offline -----------------------------------------------------------

const char* criterion_metric(Criterion c) {
  switch (c) {
    case Criterion::kFinalStateOpacity: return "checker.fso_ms";
    case Criterion::kOpacity: return "checker.opacity_ms";
    case Criterion::kDuOpacity: return "checker.du_ms";
    case Criterion::kRcoOpacity: return "checker.rco_ms";
    case Criterion::kTms2: return "checker.tms2_ms";
    case Criterion::kStrictSerializability: return "checker.sser_ms";
  }
  return "checker.unknown_ms";
}

/// Checks one trace's verdicts against what its generator guarantees: the
/// du verdict (yes, or no for an injected violation), the same du verdict
/// inside the criteria sweep, the exact injected index, and no containment
/// anomaly between the criteria.
void check_trace(Result& r, const Input& in, Verdict swept_du, Verdict du,
                 std::optional<std::size_t> at, const std::string& anomaly) {
  ++r.attempted;
  const Verdict expected = in.violation < 0 ? Verdict::kYes : Verdict::kNo;
  const std::string name = in.path.substr(in.path.rfind('/') + 1);
  if (du != expected)
    r.fail(name + ": du verdict " + duo::checker::to_string(du) +
           ", expected " + duo::checker::to_string(expected));
  else if (swept_du != du)
    r.fail(name + ": evaluate_all says du " +
           duo::checker::to_string(swept_du));
  else if (in.violation >= 0 &&
           at != static_cast<std::size_t>(in.violation))
    r.fail(name + ": first violation " +
           (at ? std::to_string(*at) : std::string("none")) +
           ", injected at " + std::to_string(in.violation));
  else if (!anomaly.empty())
    r.fail(name + ": containment anomaly: " + anomaly);
}

void run_check(const Args& a, Result& r) {
  const std::vector<Input> inputs = load_manifest(a);
  if (inputs.empty()) usage("empty check-offline manifest");

  // Set-up: what duo_check does before its first check, for the whole set:
  // reading each trace and building its History (parse_history). Repeated;
  // the median is reported. The passes below redo both per trace, as
  // duo_check does.
  Samples setup;
  std::vector<std::string> texts;
  for (int rep = 0; rep < kCheckSetupReps; ++rep) {
    const double t0 = now_s();
    texts.clear();
    for (const Input& in : inputs) {
      auto t = read_file(in.path);
      if (!t) usage("missing trace file");
      if (!duo::history::parse_history(*t)) usage("trace does not parse");
      texts.push_back(std::move(*t));
    }
    setup.add(now_s() - t0);
  }
  std::size_t set_events = 0;
  for (const Input& in : inputs) set_events += in.events;

  Samples long_ms, short_ms, locate_ms, all_ms, pass_eps;
  Samples long_share;
  // duo_check's single-trace path, untraced.
  const auto untraced_pass = [&] {
    const double p0 = now_s();
    double long_s = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Input& in = inputs[i];
      const double t0 = now_s();
      auto parsed = duo::history::parse_history(texts[i]);
      if (!parsed) {
        ++r.attempted;
        r.fail(in.path + ": parse error: " + parsed.error());
        continue;
      }
      const auto& h = parsed.value();
      const auto v = duo::checker::evaluate_all(h);
      const auto du = duo::checker::check_du_opacity(h);
      std::optional<std::size_t> at;
      if (du.no()) {
        const double l0 = now_s();
        at = duo::checker::first_bad_prefix(h, Criterion::kDuOpacity);
        locate_ms.add((now_s() - l0) * 1e3);
      }
      const double ms = (now_s() - t0) * 1e3;
      check_trace(r, in, v.du_opaque, du.verdict, at,
                  duo::checker::containment_violations(v));
      all_ms.add(ms);
      if (in.kind == "short") {
        short_ms.add(ms);
      } else {
        long_s += ms / 1e3;
        if (in.kind == "long") long_ms.add(ms);
      }
    }
    const double wall = now_s() - p0;
    pass_eps.add(set_events / wall);
    long_share.add(long_s / wall);
    return wall;
  };

  if (!a.trace) {
    const double until = now_s() + a.seconds;
    do untraced_pass();
    while (now_s() < until);
    r.metrics["setup_s"] = setup.median();
    r.metrics["events_per_s"] = pass_eps.median();
    r.metrics["verdict_ms"] = long_ms.median();
    r.report.num("peak_rss_mb", peak_rss_mb());
    report_timing(r, "check_events_per_s", pass_eps);
    report_timing(r, "check_long_ms", long_ms);
    report_timing(r, "check_short_ms", short_ms);
    report_timing(r, "locate_ms", locate_ms);
    report_timing(r, "check_any_ms", all_ms);
    r.report.num("long_time_share", long_share.median());
    r.report.integer("set_traces", inputs.size())
        .integer("set_events", set_events);
    return;
  }

  // Traced: untraced passes for the overhead baseline, then the same path
  // split at each public entry point (parse_events, History::make, one
  // check_criterion per criterion, check_du_opacity, first_bad_prefix).
  {
    const double until = now_s() + a.seconds * 0.4;
    do untraced_pass();
    while (now_s() < until);
  }
  Tracer tr(true);
  Samples traced_eps, parse_ms, make_ms;
  std::map<Criterion, double> crit_s;
  double checks = 0, graph_routed = 0, dfs_nodes = 0, memo_hits = 0;
  const double until = now_s() + a.seconds * 0.5;
  do {
    const double p0 = now_s();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Input& in = inputs[i];
      const std::uint32_t root = tr.open("check.trace");
      const bool is_long = in.kind != "short";
      std::optional<duo::history::ParsedEvents> pe;
      const double ps = timed(tr, "history.parse_events", root, [&] {
        auto p = duo::history::parse_events(texts[i]);
        if (p) pe = std::move(p).take();
      });
      if (is_long) parse_ms.add(ps * 1e3);
      if (!pe) {
        tr.close(root);
        ++r.attempted;
        r.fail(in.path + ": parse error");
        continue;
      }
      std::optional<duo::history::History> hist;
      const double ms = timed(tr, "history.make", root, [&] {
        auto h = duo::history::History::make(std::move(pe->events),
                                             pe->max_obj + 1);
        if (h) hist = std::move(h).take();
      });
      if (is_long) make_ms.add(ms * 1e3);
      if (!hist) {
        tr.close(root);
        ++r.attempted;
        r.fail(in.path + ": not a well-formed history");
        continue;
      }
      const auto& h = *hist;
      duo::checker::VerdictVector v;
      for (const Criterion c : duo::checker::all_criteria()) {
        duo::checker::CheckResult res;
        crit_s[c] += timed(tr, criterion_metric(c), root,
                           [&] { res = duo::checker::check_criterion(h, c); });
        ++checks;
        if (res.engine.engine.rfind("graph", 0) == 0) ++graph_routed;
        dfs_nodes += static_cast<double>(res.stats.nodes);
        memo_hits += static_cast<double>(res.stats.memo_hits);
        switch (c) {
          case Criterion::kFinalStateOpacity: v.final_state = res.verdict; break;
          case Criterion::kOpacity: v.opaque = res.verdict; break;
          case Criterion::kDuOpacity: v.du_opaque = res.verdict; break;
          case Criterion::kRcoOpacity: v.rco = res.verdict; break;
          case Criterion::kTms2: v.tms2 = res.verdict; break;
          case Criterion::kStrictSerializability: v.strict_ser = res.verdict; break;
        }
      }
      Verdict du = Verdict::kUnknown;
      timed(tr, "checker.check_du_opacity", root,
            [&] { du = duo::checker::check_du_opacity(h).verdict; });
      std::optional<std::size_t> at;
      if (du == Verdict::kNo)
        timed(tr, "checker.first_bad_prefix", root, [&] {
          at = duo::checker::first_bad_prefix(h, Criterion::kDuOpacity);
        });
      tr.close(root);
      check_trace(r, in, v.du_opaque, du, at,
                  duo::checker::containment_violations(v));
    }
    traced_eps.add(set_events / (now_s() - p0));
  } while (now_s() < until);

  auto& m = r.metrics;
  const double passes = static_cast<double>(traced_eps.size());
  const Samples parse_all = tr.durations("history.parse_events");
  m["history.parse_ms"] = parse_ms.median();
  m["history.make_ms"] = make_ms.median();
  m["history.parse_events_per_s"] =
      parse_all.sum() > 0 ? set_events * passes / parse_all.sum() : 0;
  for (const auto& [c, s] : crit_s) m[criterion_metric(c)] = s / passes * 1e3;
  m["checker.graph_routed_ratio"] = checks > 0 ? graph_routed / checks : 0;
  m["checker.dfs_nodes"] = dfs_nodes / passes;
  m["checker.dfs_memo_hits"] = memo_hits / passes;
  set_overhead(r, pass_eps.median(), traced_eps.median());
  write_spans(a, tr, "main", false);
}

// -- live-tap ----------------------------------------------------------------

struct TapRun {
  double setup_s = 0;
  double wall_s = 0;   // run start to final verdict
  double drain_s = 0;  // STM threads joined to final verdict
  std::size_t events = 0;
  duo::stm::WorkloadStats ws;
  Verdict verdict = Verdict::kUnknown;
  bool ok = false;  // every check of the run passed
  duo::monitor::MonitorStats mstats;
  // Traced tap loop only.
  double busy_s = 0;
  std::size_t idle_polls = 0;
  std::size_t backlog = 0;  // estimated events not yet fed at join
};

enum class TapMode { kBare, kRecorded, kTapped, kTappedTraced };

/// Event-level compact text ("R2?(X0) R2!(X0)=1 ..."), written straight
/// from the events: replayable with parse_events, and linear in their
/// number (unlike materializing a History).
std::string events_text(const std::vector<duo::history::Event>& events,
                        duo::history::ObjId objects) {
  using duo::history::OpKind;
  std::ostringstream out;
  out << "objects=" << objects;
  for (const auto& e : events) {
    out << ' ';
    const bool inv = e.is_invocation();
    switch (e.op) {
      case OpKind::kRead:
        out << 'R' << e.txn << (inv ? "?" : "!") << "(X" << e.obj << ')';
        if (!inv) {
          if (e.aborted)
            out << "=A";
          else
            out << '=' << e.value;
        }
        break;
      case OpKind::kWrite:
        out << 'W' << e.txn << (inv ? "?" : "!") << "(X" << e.obj;
        if (inv) out << ',' << e.value;
        out << ')' << (!inv && e.aborted ? "=A" : "");
        break;
      case OpKind::kTryCommit:
        out << 'C' << e.txn << (inv ? "?" : "!") << (!inv && e.aborted ? "=A" : "");
        break;
      case OpKind::kTryAbort:
        out << 'A' << e.txn << (inv ? "?" : "!");
        break;
    }
  }
  out << '\n';
  return out.str();
}

/// A live-tap mismatch: the recorded prefix up to the latched event (or
/// everything the tap fed), written as a replayable trace, and what is
/// known about it so far.
struct Mismatch {
  std::vector<duo::history::Event> prefix;
  duo::history::ObjId objects = 0;
  Json info;
};

Mismatch record_mismatch(const Args& a, const char* backend,
                         std::uint64_t seed, const duo::stm::Recorder& rec,
                         const duo::monitor::OnlineMonitor& mon,
                         duo::history::ObjId objects) {
  Mismatch m;
  m.objects = objects;
  const std::size_t n = mon.first_violation()
                            ? *mon.first_violation() + 1
                            : std::min(rec.count(), mon.events_fed());
  m.prefix.resize(n);
  for (std::size_t i = 0; i < n; ++i) (void)rec.try_read(i, m.prefix[i]);
  m.info.str("backend", backend)
      .integer("run_seed", seed)
      .integer("prefix_events", n)
      .boolean("recorder_overflowed", rec.overflowed())
      .str("gc_on_verdict", duo::checker::to_string(mon.verdict()))
      .str("gc_on_reason", mon.explanation());
  const std::string path = a.out_dir + "/live-tap-" + backend + "-" +
                           std::to_string(seed) + "-prefix.txt";
  if (write_file(path, events_text(m.prefix, objects)))
    m.info.str("replay_trace", path);
  std::fprintf(stderr, "perfbench: live-tap mismatch: %s\n",
               m.info.text().c_str());
  return m;
}

/// Replays a mismatching prefix on the GC-off monitor (and, on prefixes
/// small enough for the batch checker, check_du_opacity). The GC-off
/// monitor can itself fall into slow fallback checks on such prefixes, so
/// the replay feeds one event at a time, stops at its time budget and says
/// how far it got; a single event that stalls is cut by the run deadline.
Json replay_mismatch(Mismatch& m) {
  duo::monitor::OnlineMonitor off;  // GC off
  const double until = now_s() + kReplaySeconds;
  std::string error;
  std::size_t replayed = 0;
  while (replayed < m.prefix.size() && error.empty() &&
         off.verdict() != Verdict::kNo && now_s() < until)
    error = off.feed_batch(&m.prefix[replayed++], 1).error;
  m.info
      .str("gc_off_verdict", !error.empty()
                                 ? "error: " + error
                                 : duo::checker::to_string(off.verdict()))
      .integer("gc_off_replayed_events", replayed);
  if (m.prefix.size() <= 50'000) {
    auto h = duo::history::History::make(m.prefix, m.objects);
    if (h)
      m.info.str("check_du_opacity",
                 duo::checker::to_string(
                     duo::checker::check_du_opacity(h.value()).verdict));
  }
  std::fprintf(stderr, "perfbench: live-tap mismatch replayed: %s\n",
               m.info.text().c_str());
  return m.info;
}

/// Counts a run's logical transactions in `attempted` and the abandoned
/// ones in `failed`, and checks that every one of them ran.
void check_mix(Result& r, const char* backend,
               const duo::stm::WorkloadOptions& wo,
               const duo::stm::WorkloadStats& ws) {
  r.attempted += ws.committed + ws.abandoned;
  if (ws.abandoned > 0) {
    r.failed += ws.abandoned;
    r.failures.push_back(std::string(backend) + ": " +
                         std::to_string(ws.abandoned) +
                         " transactions abandoned");
  }
  if (ws.committed + ws.abandoned != wo.threads * wo.txns_per_thread)
    r.fail(std::string(backend) + ": " + std::to_string(ws.committed) +
           " committed and " + std::to_string(ws.abandoned) +
           " abandoned of " + std::to_string(wo.threads * wo.txns_per_thread) +
           " transactions");
}

/// RecorderTap::pump with a span around every poll: drains `tap` until
/// `done` is seen and nothing is left, adding the time spent in polls that
/// fed events to `busy_s` and counting the polls that fed none.
void traced_pump(duo::monitor::RecorderTap& tap, const std::atomic<bool>& done,
                 Tracer& tr, double& busy_s, std::size_t& idle_polls) {
  for (;;) {
    const bool finished = done.load(std::memory_order_acquire);
    const double p0 = now_s();
    const std::uint32_t id = tr.open("monitor.tap_poll");
    const std::size_t fed = tap.poll();
    tr.close(id);
    if (fed > 0) {
      busy_s += now_s() - p0;
      continue;
    }
    ++idle_polls;
    if (finished) return;
    std::this_thread::yield();
  }
}

/// One run_random_mix on `backend`: bare, recorded (the recording is then
/// checked by draining it into the monitor), or recorded with a tap thread
/// feeding the monitor live. The monitor runs with GC on, as duo_mond's
/// does. Every verdict is checked.
TapRun tap_run(const Args& a, Result& r, const char* backend, TapMode mode,
               std::uint64_t seed, Tracer& stm_tr, Tracer& tap_tr,
               std::optional<Mismatch>* mismatch = nullptr) {
  const duo::stm::WorkloadOptions wo = tap_options(seed);
  const std::uint64_t failed_before = r.failed;
  TapRun t;
  const auto run_mix = [&](duo::stm::Stm& stm) {
    timed(stm_tr, "stm.run_random_mix", 0,
          [&] { t.ws = duo::stm::run_random_mix(stm, wo); });
    check_mix(r, backend, wo, t.ws);
  };
  if (mode == TapMode::kBare) {
    run_mix(*duo::stm::make_stm(backend, wo.objects));
    t.ok = r.failed == failed_before;
    return t;
  }
  // A transaction records 2 events per op plus tryC; aborted attempts add
  // more (contention storms multiply them several times). Overflow would
  // make the verdict inconclusive, which counts as a failure.
  const std::size_t capacity =
      wo.threads * wo.txns_per_thread * (2 * wo.ops_per_txn + 2) * 6;
  const double t0 = now_s();
  auto rec = std::make_unique<duo::stm::Recorder>(capacity);
  auto stm = duo::stm::make_stm(backend, wo.objects, rec.get());
  duo::monitor::MonitorOptions mo;
  mo.gc = true;
  duo::monitor::OnlineMonitor mon(mo);
  duo::monitor::RecorderTap tap(*rec, mon);
  const double t1 = now_s();
  t.setup_s = t1 - t0;

  if (mode == TapMode::kRecorded) {
    run_mix(*stm);
    (void)tap.poll();  // not timed: the check of the recording
  } else {
    std::atomic<bool> done{false};
    std::thread tapper([&] {
      if (mode == TapMode::kTapped) {
        tap.pump(done);
        return;
      }
      traced_pump(tap, done, tap_tr, t.busy_s, t.idle_polls);
    });
    run_mix(*stm);
    const double joined = now_s();
    done.store(true, std::memory_order_release);
    tapper.join();
    const double t2 = now_s();
    t.wall_s = t2 - t1;
    t.drain_s = t2 - joined;
  }
  t.events = rec->count();
  // One poll() drains everything published, so while the producers
  // outpace the tap a single call spans most of the run and the position
  // at join is not observable; estimate the backlog from the drain time.
  if (t.busy_s > 0)
    t.backlog = static_cast<std::size_t>(t.drain_s * t.events / t.busy_s);
  t.verdict = tap.qualified_verdict();
  t.mstats = mon.stats();
  std::fprintf(stderr,
               "%s %s: %zu events in %.3f s (drain %.3f s), %llu commits, "
               "%llu aborts, verdict %s, %zu full checks\n",
               a.workload.c_str(), backend, t.events, t.wall_s, t.drain_s,
               static_cast<unsigned long long>(t.ws.committed),
               static_cast<unsigned long long>(t.ws.aborted),
               duo::checker::to_string(t.verdict).c_str(),
               t.mstats.full_checks);

  ++r.attempted;
  const auto* info = duo::stm::find_backend(backend);
  const Verdict expected =
      info != nullptr && info->expected == duo::stm::DuExpectation::kDuOpaque
          ? Verdict::kYes
          : Verdict::kNo;
  if (t.verdict != expected || tap.position() != t.events) {
    r.fail(std::string(backend) + ": tap verdict " +
           duo::checker::to_string(t.verdict) + " after " +
           std::to_string(tap.position()) + " of " +
           std::to_string(t.events) + " events" +
           (mon.first_violation()
                ? " (latched at event " +
                      std::to_string(*mon.first_violation()) + ": " +
                      mon.explanation() + ")"
                : std::string()));
    Mismatch m = record_mismatch(a, backend, seed, *rec, mon, wo.objects);
    r.report.obj(std::string("mismatch_") + backend, m.info);
    if (mismatch != nullptr) *mismatch = std::move(m);
  }
  t.ok = r.failed == failed_before;
  return t;
}

void write_all(int fd, const std::string& msg) {
  for (std::size_t off = 0; off < msg.size();) {
    const ssize_t w = ::write(fd, msg.data() + off, msg.size() - off);
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

void append_part(std::string& msg, const std::string& part) {
  const std::uint64_t n = part.size();
  msg.append(reinterpret_cast<const char*>(&n), sizeof n);
  msg += part;
}

/// Reads a part append_part wrote at `off`; false if it is incomplete.
bool take_part(const std::string& msg, std::size_t& off, std::string& part) {
  std::uint64_t n = 0;
  if (off + sizeof n > msg.size()) return false;
  std::memcpy(&n, msg.data() + off, sizeof n);
  if (off + sizeof n + n > msg.size()) return false;
  part = msg.substr(off + sizeof n, n);
  off += sizeof n + n;
  return true;
}

/// Runs one recorded or tapped run in a child process, so that a monitor
/// stuck in an expensive fallback (or running out of memory) costs a
/// reported failure and a bounded wait instead of the whole run. The child
/// sends its TapRun, verdict accounting and report back through a pipe,
/// then, after a mismatch, replays the prefix and sends that report too.
TapRun isolated_tap_run(const Args& a, Result& r, const char* backend,
                        TapMode mode, std::uint64_t seed) {
  int fds[2];
  if (::pipe(fds) != 0) usage("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) usage("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the run
    ::close(fds[0]);
    Result cr;
    Tracer stm_tr(a.trace);
    Tracer tap_tr(mode == TapMode::kTappedTraced);
    std::optional<Mismatch> mismatch;
    const TapRun t =
        tap_run(a, cr, backend, mode, seed, stm_tr, tap_tr, &mismatch);
    if (stm_tr.on()) write_spans(a, stm_tr, backend, true);
    if (tap_tr.on())
      write_spans(a, tap_tr, (std::string(backend) + ".tap").c_str(), true);
    std::string msg(reinterpret_cast<const char*>(&t), sizeof t);
    const std::uint64_t counts[3] = {cr.attempted, cr.failed, cr.wrong};
    msg.append(reinterpret_cast<const char*>(counts), sizeof counts);
    std::string failures;
    for (const auto& f : cr.failures) failures += f + '\n';
    append_part(msg, failures);
    append_part(msg, cr.report.text());
    write_all(fds[1], msg);
    if (mismatch) {
      msg.clear();
      append_part(msg, replay_mismatch(*mismatch).text());
      write_all(fds[1], msg);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string msg;
  const double deadline = now_s() + kTapRunTimeout;
  bool timed_out = false;
  for (;;) {
    const double left = deadline - now_s();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[1 << 16];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    msg.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);

  TapRun t;
  std::size_t off = sizeof t + 3 * sizeof(std::uint64_t);
  std::string failures, report, replay;
  if (msg.size() < off || !take_part(msg, off, failures) ||
      !take_part(msg, off, report)) {
    ++r.attempted;
    r.fail(std::string(backend) + ": no verdict: " +
           (timed_out ? "the run exceeded " +
                            std::to_string(static_cast<int>(kTapRunTimeout)) +
                            " s"
                      : "the run died (status " + std::to_string(status) +
                            ")"));
    return t;
  }
  std::memcpy(&t, msg.data(), sizeof t);
  std::uint64_t counts[3] = {};
  std::memcpy(counts, msg.data() + sizeof t, sizeof counts);
  r.attempted += counts[0];
  r.failed += counts[1];
  r.wrong += counts[2];
  for (std::size_t i = 0, j; i < failures.size(); i = j + 1) {
    j = failures.find('\n', i);
    if (r.failures.size() < 20) r.failures.push_back(failures.substr(i, j - i));
  }
  if (report.size() > 2)
    r.report.raw("tap_run_" + std::to_string(++r.tap_reports), report);
  if (take_part(msg, off, replay))
    r.report.raw("tap_replay_" + std::to_string(r.tap_reports), replay);
  else if (timed_out && r.failures.size() < 20)
    r.failures.push_back(std::string(backend) +
                         ": the GC-off replay of the mismatching prefix did "
                         "not finish before the run deadline");
  return t;
}

void run_tap(const Args& a, Result& r) {
  // Runs that passed every check are timed; the rate pools them (each
  // run's event count swings with its aborts), the drain is their median.
  Samples setup, drain_ms;
  double events = 0, wall = 0;
  std::map<std::string, Samples> backend_eps, backend_drain_ms;
  std::uint64_t round = 0;
  const auto tapped_round = [&] {
    for (std::size_t b = 0; b < std::size(kTapBackends); ++b) {
      const char* name = kTapBackends[b];
      const auto t = isolated_tap_run(a, r, name, TapMode::kTapped,
                                      mix_seed(a.seed, 1000 * round + b));
      if (!t.ok) continue;  // counted as a failure, not timed
      setup.add(t.setup_s);
      drain_ms.add(t.drain_s * 1e3);
      events += static_cast<double>(t.events);
      wall += t.wall_s;
      backend_eps[name].add(static_cast<double>(t.events) / t.wall_s);
      backend_drain_ms[name].add(t.drain_s * 1e3);
    }
    ++round;
  };

  if (!a.trace) {
    // Whole rounds (every backend once) for about --seconds.
    const double start = now_s();
    double last = 0;
    do {
      const double r0 = now_s();
      tapped_round();
      last = now_s() - r0;
    } while (now_s() - start + last <= a.seconds);
    r.metrics["setup_s"] = setup.median();
    r.metrics["events_per_s"] = wall > 0 ? events / wall : 0;
    r.metrics["verdict_ms"] = drain_ms.median();
    r.report.num("peak_rss_mb", peak_rss_mb());
    r.report.num("tap_events_per_s", r.metrics["events_per_s"]);
    report_timing(r, "tap_drain_ms", drain_ms);
    for (const char* name : kTapBackends) {
      report_timing(r, std::string("tap_events_per_s.") + name,
                    backend_eps[name]);
      report_timing(r, std::string("tap_drain_ms.") + name,
                    backend_drain_ms[name]);
    }
    return;
  }

  // Traced: untraced rounds (the overhead baseline), then layer rounds that
  // run each backend bare, recorded, and tapped with a span around every
  // poll. Per-layer figures are medians per backend or totals per round.
  write_spans(a, Tracer(), "", false);  // the children append
  const double start = now_s();
  do tapped_round();
  while (now_s() - start < a.seconds * 0.4);
  Tracer main_tr(true);  // bare runs, on this thread
  const double untraced_eps = wall > 0 ? events / wall : 0;
  std::map<std::string, Samples> bare_cps, rec_cps, tap_cps;
  double traced_events = 0, traced_wall = 0;
  double fed = 0, busy = 0, idle = 0, backlog = 0;
  double aborted = 0, attempts = 0, recorded = 0, rounds = 0;
  const double until = now_s() + a.seconds * 0.5;
  do {
    for (std::size_t b = 0; b < std::size(kTapBackends); ++b) {
      const char* name = kTapBackends[b];
      const std::uint64_t seed =
          mix_seed(a.seed, 1000 * static_cast<std::uint64_t>(rounds) + 500 + b);
      const auto bare =
          tap_run(a, r, name, TapMode::kBare, seed, main_tr, main_tr);
      const auto recd = isolated_tap_run(a, r, name, TapMode::kRecorded, seed);
      const auto tapd =
          isolated_tap_run(a, r, name, TapMode::kTappedTraced, seed);
      bare_cps[name].add(bare.ws.throughput());
      rec_cps[name].add(recd.ws.throughput());
      tap_cps[name].add(tapd.ws.throughput());
      recorded += static_cast<double>(recd.events);
      for (const auto* t : {&bare, &recd, &tapd}) {
        aborted += static_cast<double>(t->ws.aborted);
        attempts += static_cast<double>(t->ws.aborted + t->ws.committed +
                                        t->ws.abandoned);
      }
      if (tapd.ok) {
        traced_events += static_cast<double>(tapd.events);
        traced_wall += tapd.wall_s;
      }
      fed += static_cast<double>(tapd.events);
      busy += tapd.busy_s;
      idle += static_cast<double>(tapd.idle_polls);
      backlog += static_cast<double>(tapd.backlog);
      add_monitor_counters(r, tapd.mstats);
    }
    ++rounds;
  } while (now_s() < until);

  auto& m = r.metrics;
  for (const char* name : kTapBackends) {
    m[std::string("stm.bare_commits_per_s.") + name] = bare_cps[name].median();
    m[std::string("stm.recorded_commits_per_s.") + name] =
        rec_cps[name].median();
    m[std::string("stm.tapped_commits_per_s.") + name] =
        tap_cps[name].median();
  }
  // Counts are per round (every backend once), so they do not depend on
  // how many rounds fit in the run.
  for (const char* k :
       {"monitor.full_checks", "monitor.graph_checks", "monitor.deferred_edges",
        "monitor.chain_splices", "monitor.edges_added", "monitor.retired_txns",
        "monitor.sealed_reads", "monitor.gc_passes"})
    m[k] /= rounds;
  m["stm.recorded_events"] = recorded / rounds;
  m["stm.abort_ratio"] = attempts > 0 ? aborted / attempts : 0;
  m["monitor.tap_busy_s"] = busy / rounds;
  m["monitor.tap_idle_polls"] = idle / rounds;
  m["monitor.tap_us_per_event"] = fed > 0 ? busy / fed * 1e6 : 0;
  m["monitor.tap_backlog_at_join"] = backlog / rounds;
  set_overhead(r, untraced_eps,
               traced_wall > 0 ? traced_events / traced_wall : 0);
  write_spans(a, main_tr, "main", true);
}

// -- tap-feed ----------------------------------------------------------------

struct FeedPass {
  double setup_s = 0;
  double wall_s = 0;   // producer start to final verdict
  double drain_s = 0;  // producer done to final verdict
  double busy_s = 0;   // inside poll() calls that fed events
  std::size_t idle_polls = 0;
  std::size_t backlog = 0;  // estimated events not yet fed at join
  duo::monitor::MonitorStats mstats;
};

/// One tap-feed pass: a producer thread records the trace's events into a
/// Recorder while this thread drains it through a RecorderTap into a GC-on
/// monitor, as live-tap's tap thread does. Checks the verdict (yes, every
/// event fed).
FeedPass feed_pass(Result& r, const std::vector<duo::history::Event>& events,
                   Tracer& tr) {
  FeedPass p;
  const double t0 = now_s();
  duo::stm::Recorder rec(events.size());
  duo::monitor::MonitorOptions mo;
  mo.gc = true;
  duo::monitor::OnlineMonitor mon(mo);
  duo::monitor::RecorderTap tap(rec, mon);
  const double t1 = now_s();
  p.setup_s = t1 - t0;

  std::atomic<bool> done{false};
  double produced = 0;  // written before `done`, read after it
  std::thread producer([&] {
    for (const auto& e : events) rec.record(e);
    produced = now_s();
    done.store(true, std::memory_order_release);
  });
  traced_pump(tap, done, tr, p.busy_s, p.idle_polls);
  const double t2 = now_s();
  producer.join();
  p.wall_s = t2 - t1;
  p.drain_s = t2 - produced;
  // The producer outpaces the tap, so one poll() spans most of the pass and
  // the position at join is not observable; as on live-tap, estimate the
  // backlog from the drain time.
  if (p.busy_s > 0)
    p.backlog = static_cast<std::size_t>(p.drain_s * events.size() / p.busy_s);
  p.mstats = mon.stats();

  ++r.attempted;
  if (tap.qualified_verdict() != Verdict::kYes ||
      tap.position() != events.size())
    r.fail("tap-feed: verdict " +
           duo::checker::to_string(tap.qualified_verdict()) + " after " +
           std::to_string(tap.position()) + " of " +
           std::to_string(events.size()) + " events" +
           (mon.first_violation()
                ? " (latched at event " +
                      std::to_string(*mon.first_violation()) + ": " +
                      mon.explanation() + ")"
                : std::string()));
  return p;
}

/// The stm layer: run_random_mix on each backend, bare and recorded, for
/// about `seconds`. Each run is checked (every logical transaction
/// commits), and each recording is verified by check_du_opacity on the
/// recorded history (not by the monitor: live-tap measures that, and the
/// monitor's known defects on such recordings, GC on or off, are reported
/// there).
void stm_layers(const Args& a, Result& r, Tracer& tr, double seconds) {
  std::map<std::string, Samples> bare_cps, rec_cps;
  double aborted = 0, attempts = 0, recorded = 0, rounds = 0;
  const auto account = [&](const duo::stm::WorkloadStats& ws) {
    aborted += static_cast<double>(ws.aborted);
    attempts +=
        static_cast<double>(ws.aborted + ws.committed + ws.abandoned);
  };
  const double until = now_s() + seconds;
  do {
    for (std::size_t b = 0; b < std::size(kTapBackends); ++b) {
      const char* name = kTapBackends[b];
      const auto wo = stm_options(
          mix_seed(a.seed, 1000 * static_cast<std::uint64_t>(rounds) + b));
      duo::stm::WorkloadStats ws;
      {
        auto stm = duo::stm::make_stm(name, wo.objects);
        timed(tr, "stm.run_random_mix", 0,
              [&] { ws = duo::stm::run_random_mix(*stm, wo); });
      }
      check_mix(r, name, wo, ws);
      account(ws);
      bare_cps[name].add(ws.throughput());

      // A transaction records 2 events per op plus tryC; aborted attempts
      // add more. Overflow would leave the verdict open: a failure.
      duo::stm::Recorder rec(wo.threads * wo.txns_per_thread *
                             (2 * wo.ops_per_txn + 2) * 6);
      {
        auto stm = duo::stm::make_stm(name, wo.objects, &rec);
        timed(tr, "stm.run_random_mix", 0,
              [&] { ws = duo::stm::run_random_mix(*stm, wo); });
      }
      check_mix(r, name, wo, ws);
      account(ws);
      rec_cps[name].add(ws.throughput());
      recorded += static_cast<double>(rec.count());

      std::vector<duo::history::Event> events(rec.count());
      for (std::size_t i = 0; i < events.size(); ++i)
        (void)rec.try_read(i, events[i]);
      std::optional<duo::history::History> h;
      timed(tr, "history.make", 0, [&] {
        auto made = duo::history::History::make(std::move(events), wo.objects);
        if (made) h = std::move(made).take();
      });
      Verdict v = Verdict::kUnknown;
      if (h)
        timed(tr, "checker.check_du_opacity", 0,
              [&] { v = duo::checker::check_du_opacity(*h).verdict; });
      ++r.attempted;
      if (!h || rec.overflowed() || v != Verdict::kYes)
        r.fail(std::string("stm layer: ") + name + ": recording " +
               (!h ? "not well-formed"
                   : rec.overflowed() ? "overflowed"
                                      : "judged " + duo::checker::to_string(v)));
    }
    ++rounds;
  } while (now_s() < until);

  auto& m = r.metrics;
  for (const char* name : kTapBackends) {
    m[std::string("stm.bare_commits_per_s.") + name] = bare_cps[name].median();
    m[std::string("stm.recorded_commits_per_s.") + name] =
        rec_cps[name].median();
  }
  m["stm.abort_ratio"] = attempts > 0 ? aborted / attempts : 0;
  // Per round (every backend once), so it does not depend on how many
  // rounds fit in the run.
  m["stm.recorded_events"] = recorded / rounds;
}

void run_feed(const Args& a, Result& r) {
  const std::vector<Input> inputs = load_manifest(a);
  if (inputs.size() != 1) usage("bad tap-feed manifest");
  const Input& in = inputs[0];
  // Input preparation, not timed: the events the producer records.
  const auto text = read_file(in.path);
  if (!text) usage("missing trace file");
  auto parsed = duo::history::parse_events(*text);
  if (!parsed) usage("trace does not parse");
  const std::vector<duo::history::Event> events =
      std::move(parsed).take().events;
  if (events.size() != in.events) usage("trace event count mismatch");

  Samples setup, eps, drain_ms;
  const auto untraced = [&](double seconds) {
    Tracer off;
    const double until = now_s() + seconds;
    do {
      const FeedPass p = feed_pass(r, events, off);
      setup.add(p.setup_s);
      eps.add(static_cast<double>(events.size()) / p.wall_s);
      drain_ms.add(p.drain_s * 1e3);
    } while (now_s() < until);
  };

  if (!a.trace) {
    untraced(a.seconds);
    r.metrics["setup_s"] = setup.median();
    r.metrics["events_per_s"] = eps.median();
    r.metrics["verdict_ms"] = drain_ms.median();
    report_timing(r, "tap_events_per_s", eps);
    report_timing(r, "tap_drain_ms", drain_ms);
    r.report.num("peak_rss_mb", peak_rss_mb());
    r.report.integer("trace_events", in.events);
    return;
  }

  // Traced: untraced passes (the overhead baseline), traced passes with a
  // span around every poll, then the stm layer.
  {
    Tracer off;
    (void)feed_pass(r, events, off);  // warm-up
  }
  untraced(a.seconds * 0.3);
  Tracer tr(true);
  Samples traced_eps, busy, idle, backlog;
  double fed = 0;
  const double until = now_s() + a.seconds * 0.3;
  do {
    const FeedPass p = feed_pass(r, events, tr);
    traced_eps.add(static_cast<double>(events.size()) / p.wall_s);
    busy.add(p.busy_s);
    idle.add(static_cast<double>(p.idle_polls));
    backlog.add(static_cast<double>(p.backlog));
    fed += static_cast<double>(events.size());
    if (traced_eps.size() == 1) add_monitor_counters(r, p.mstats);
  } while (now_s() < until);
  auto& m = r.metrics;
  m["monitor.tap_busy_s"] = busy.median();
  m["monitor.tap_idle_polls"] = idle.median();
  m["monitor.tap_us_per_event"] = fed > 0 ? busy.sum() / fed * 1e6 : 0;
  m["monitor.tap_backlog_at_join"] = backlog.median();
  set_overhead(r, eps.median(), traced_eps.median());
  stm_layers(a, r, tr, a.seconds * 0.3);
  write_spans(a, tr, "main", false);
}

// -- machine probe -----------------------------------------------------------

int cmd_probe() {
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  const auto spin = [] {
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
  };
  const double t0 = now_s();
  spin();
  const double one = now_s() - t0;
  const double t1 = now_s();
  std::vector<std::thread> ts;
  for (std::size_t i = 0; i < n; ++i) ts.emplace_back(spin);
  for (auto& t : ts) t.join();
  const double all = now_s() - t1;
  std::printf("%s\n", Json()
                          .integer("nproc", n)
                          .num("one_thread_s", one)
                          .num("all_threads_s", all)
                          .num("speedup", static_cast<double>(n) * one / all)
                          .text()
                          .c_str());
  return 0;
}

int cmd_run(const Args& a) {
#ifndef __SANITIZE_ADDRESS__  // ASan's shadow mappings alone exceed the cap
  const rlimit cap{kAddressSpaceCap, kAddressSpaceCap};
  ::setrlimit(RLIMIT_AS, &cap);
#endif
  Result r;
  if (a.workload == "mond-stream")
    run_stream(a, r);
  else if (a.workload == "check-offline")
    run_check(a, r);
  else if (a.workload == "tap-feed")
    run_feed(a, r);
  else if (a.workload == "live-tap")
    run_tap(a, r);
  else
    usage("unknown workload");

  // Traced runs print what they measured; run.py reports a per-layer
  // metric a workload did not touch as 0 (that layer did no work).
  Json metrics;
  if (a.trace) {
    for (const auto& [name, v] : r.metrics) metrics.num(name, v);
  } else {
    for (const char* name : {"setup_s", "events_per_s", "verdict_ms"})
      metrics.num(name, r.metrics[name]);
  }
  const double failed_ratio =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  r.report.num("failed_ratio", failed_ratio);
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) failures += ',';
    failures += json_quote(r.failures[i]);
  }
  failures += "]";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"wrong_verdicts\":%llu,\"failures\":%s,\"metrics\":%s,"
              "\"report\":%s}\n",
              r.wrong == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong), failures.c_str(),
              metrics.text().c_str(), r.report.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse_args(argc, argv);
  if (a.cmd == "gen") return perfbench::cmd_gen(a);
  if (a.cmd == "run") return perfbench::cmd_run(a);
  if (a.cmd == "probe") return perfbench::cmd_probe();
  perfbench::usage("unknown subcommand");
}
