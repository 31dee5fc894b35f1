// Service-layer throughput: the ingest pipeline vs single-threaded text
// verification.
//
// BM_PipelineIngest measures the end-to-end ingest rate: tokenizing +
// event decoding on N parse workers, the batched monitor on the applier
// thread. BM_MonitorFeedBatch isolates the monitor-only batched path
// (parse excluded); BM_SingleThreadBaseline is the per-event floor: parse
// and feed(e) one event at a time.
//
// Measured on a shared 4-vCPU x86-64 container (2.1 GHz), Release,
// 100k-event live run, median of 3 repetitions, events/sec:
//
//   feed_batch (monitor only)           ~1.9-2.1M
//   single-thread per-event feed        ~1.4-1.5M  (parse included)
//   pipeline, 1 worker                  ~1.5M
//   pipeline, 2 workers                 ~1.8M
//   pipeline, 4 workers                 ~1.5M
//   pipeline, 4 workers, GC off         ~0.9M   (the graph never shrinks)
//
// GC is on in all ingest benchmarks (the production configuration); the
// GC-off pipeline variant isolates the contrast. CI archives the numbers
// as BENCH_service.json next to BENCH_monitor.json.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "service/pipeline.hpp"
#include "util/assert.hpp"

namespace {

using duo::history::History;

/// Trace text of a deterministic du-opaque live run, pre-cut into
/// submit-sized chunks. Cached: generation and chunking are not part of
/// the timed region.
struct TraceFixture {
  std::vector<std::string> chunks;
  std::size_t events = 0;
};

const TraceFixture& live_trace(std::int64_t target_events) {
  static std::map<std::int64_t, TraceFixture> cache;
  const auto it = cache.find(target_events);
  if (it != cache.end()) return it->second;

  const History h = duo::gen::deterministic_live_run(
      static_cast<std::size_t>(target_events), /*threads=*/4, /*objects=*/8);
  const std::string text = duo::history::compact(h);

  TraceFixture fx;
  fx.events = h.size();
  // ~4 KiB per chunk, cut at token boundaries — the shape duo_mond's
  // FollowReader hands to the pipeline.
  constexpr std::size_t kChunkBytes = 4096;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = std::min(begin + kChunkBytes, text.size());
    while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
    fx.chunks.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return cache.emplace(target_events, std::move(fx)).first->second;
}

/// Pipeline ingest of a 100k-event trace. Arg 0: parse workers. Arg 1:
/// GC on/off.
void BM_PipelineIngest(benchmark::State& state) {
  const TraceFixture& fx = live_trace(100'000);
  for (auto _ : state) {
    duo::service::PipelineOptions opts;
    opts.workers = static_cast<std::size_t>(state.range(0));
    opts.monitor.gc = state.range(1) != 0;
    duo::service::IngestPipeline pipeline(opts);
    for (const auto& chunk : fx.chunks) {
      const bool ok = pipeline.submit(std::string(chunk));
      DUO_ASSERT(ok);
    }
    const auto result = pipeline.finish();
    DUO_ASSERT(!result.error);
    DUO_ASSERT(result.verdict == duo::checker::Verdict::kYes);
    benchmark::DoNotOptimize(result.events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.events));
}
BENCHMARK(BM_PipelineIngest)
    ->ArgsProduct({{1, 2, 4}, {1}})  // worker sweep
    ->Args({4, 0})  // GC-off contrast at the widest worker count
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The monitor-only batched path: chunks pre-parsed outside the timed
/// region, whole chunks handed to feed_batch (BM_SingleThreadBaseline
/// includes parse; this excludes it).
void BM_MonitorFeedBatch(benchmark::State& state) {
  const TraceFixture& fx = live_trace(100'000);
  static std::vector<std::vector<duo::history::Event>> batches;
  if (batches.empty()) {
    for (const auto& chunk : fx.chunks) {
      auto parsed = duo::history::parse_events(chunk);
      DUO_ASSERT(parsed.has_value());
      batches.push_back(std::move(parsed.value().events));
    }
  }
  for (auto _ : state) {
    duo::monitor::MonitorOptions mopts;
    mopts.gc = true;
    duo::monitor::OnlineMonitor monitor(mopts);
    for (const auto& events : batches) {
      const auto out = monitor.feed_batch(events.data(), events.size());
      DUO_ASSERT(out.error.empty());
      DUO_ASSERT(out.consumed == events.size());
    }
    DUO_ASSERT(monitor.verdict() == duo::checker::Verdict::kYes);
    benchmark::DoNotOptimize(monitor.events_fed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.events));
}
BENCHMARK(BM_MonitorFeedBatch)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The no-pipeline floor: parse and feed on the calling thread.
void BM_SingleThreadBaseline(benchmark::State& state) {
  const TraceFixture& fx = live_trace(100'000);
  for (auto _ : state) {
    duo::monitor::MonitorOptions mopts;
    mopts.gc = true;
    duo::monitor::OnlineMonitor monitor(mopts);
    for (const auto& chunk : fx.chunks) {
      const auto parsed = duo::history::parse_events(chunk);
      DUO_ASSERT(parsed.has_value());
      for (const auto& e : parsed.value().events) {
        const auto fed = monitor.feed(e);
        DUO_ASSERT(fed.has_value());
      }
    }
    DUO_ASSERT(monitor.verdict() == duo::checker::Verdict::kYes);
    benchmark::DoNotOptimize(monitor.events_fed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.events));
}
BENCHMARK(BM_SingleThreadBaseline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
