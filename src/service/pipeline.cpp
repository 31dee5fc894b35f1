#include "service/pipeline.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/threading.hpp"

namespace duo::service {

using checker::Verdict;

IngestPipeline::IngestPipeline(const PipelineOptions& opts)
    : opts_(opts), monitor_(opts.monitor) {
  if (opts_.ring_capacity == 0) opts_.ring_capacity = 1;
  const std::size_t n = util::resolve_threads(opts_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_main(); });
  applier_ = std::thread([this] { applier_main(); });
}

IngestPipeline::~IngestPipeline() {
  if (!finished_) finish();
}

std::size_t IngestPipeline::in_flight_locked() const {
  return chunks_.size() + ring_.size();
}

bool IngestPipeline::submit(std::string chunk) {
  util::MutexLock lock(queue_mutex_);
  while (!stopped_ && !input_done_ &&
         in_flight_locked() >= opts_.ring_capacity)
    queue_cv_.wait(queue_mutex_);
  if (stopped_ || input_done_) return false;
  chunks_.push_back(Chunk{next_submit_seq_++, std::move(chunk)});
  queue_cv_.notify_all();
  return true;
}

void IngestPipeline::worker_main() {
  for (;;) {
    Chunk c;
    {
      util::MutexLock lock(queue_mutex_);
      while (chunks_.empty() && !input_done_ && !stopped_)
        queue_cv_.wait(queue_mutex_);
      if (chunks_.empty()) return;  // done or stopped, nothing left to parse
      c = std::move(chunks_.front());
      chunks_.pop_front();
    }
    Parsed p{history::parse_events(c.text)};
    {
      util::MutexLock lock(queue_mutex_);
      ring_.emplace(c.seq, std::move(p));
      ring_cv_.notify_all();
    }
  }
}

void IngestPipeline::stop_locked(std::string why, bool is_error) {
  if (is_error) {
    error_ = true;
    if (diagnostic_.empty()) diagnostic_ = std::move(why);
  }
  util::MutexLock lock(queue_mutex_);
  stopped_ = true;
  chunks_.clear();  // unparsed chunks are beyond the latch; drop them
  queue_cv_.notify_all();
  ring_cv_.notify_all();
}

void IngestPipeline::apply(const history::ParsedEvents& pe) {
  if (pe.declared_objects >= 0) declared_objects_ = pe.declared_objects;
  truncated_ = truncated_ || pe.truncated;
  max_obj_ = std::max(max_obj_, pe.max_obj);
  if (declared_objects_ >= 0 && max_obj_ >= declared_objects_) {
    stop_locked("objects= declares fewer objects than used",
                /*is_error=*/true);
    return;
  }
  // One feed_batch per parsed chunk. Verdicts and first-violation indices
  // are identical to per-event feeding.
  const auto out = monitor_.feed_batch(pe.events.data(), pe.events.size());
  if (!out.error.empty()) {
    stop_locked("malformed event stream: " + out.error, /*is_error=*/true);
    return;
  }
  if (monitor_.verdict() == Verdict::kNo) {
    stop_locked(std::string(), /*is_error=*/false);
    return;
  }
}

void IngestPipeline::applier_main() {
  for (;;) {
    std::optional<Parsed> p;
    {
      util::MutexLock lock(queue_mutex_);
      for (;;) {
        if (stopped_) return;
        const auto it = ring_.find(next_apply_seq_);
        if (it != ring_.end()) {
          p.emplace(std::move(it->second));
          ring_.erase(it);
          ++next_apply_seq_;
          // Ring space freed: a producer blocked at the bound may proceed.
          queue_cv_.notify_all();
          break;
        }
        if (input_done_ && next_apply_seq_ >= next_submit_seq_) return;
        ring_cv_.wait(queue_mutex_);
      }
    }
    util::MutexLock lock(apply_mutex_);
    ++chunks_applied_;
    if (!p->events.has_value()) {
      stop_locked("parse error: " + p->events.error(), /*is_error=*/true);
      return;
    }
    apply(p->events.value());  // may stop the pipeline; the loop head
                               // re-reads stopped_ under queue_mutex_
  }
}

PipelineResult IngestPipeline::finish() {
  if (finished_) return result_;
  {
    util::MutexLock lock(queue_mutex_);
    input_done_ = true;
    queue_cv_.notify_all();
    ring_cv_.notify_all();
  }
  for (auto& w : workers_) w.join();
  {
    // Workers are gone; wake the applier in case it was waiting for a
    // sequence number that will now never arrive (it re-checks input_done_).
    util::MutexLock lock(queue_mutex_);
    ring_cv_.notify_all();
  }
  applier_.join();

  util::MutexLock lock(apply_mutex_);
  PipelineResult r;
  r.verdict = monitor_.verdict();
  r.first_violation = monitor_.first_violation();
  r.explanation = error_ ? diagnostic_ : monitor_.explanation();
  r.error = error_;
  r.truncated = truncated_;
  r.events = monitor_.events_fed();
  r.monitor = monitor_.stats();
  result_ = std::move(r);
  finished_ = true;
  return result_;
}

PipelineSnapshot IngestPipeline::snapshot() const {
  PipelineSnapshot s;
  util::MutexLock lock(apply_mutex_);
  s.events = monitor_.events_fed();
  s.chunks = chunks_applied_;
  s.verdict = monitor_.verdict();
  s.retained_events = monitor_.retained_events();
  s.live_transactions = monitor_.live_transactions();
  s.graph_nodes = monitor_.graph_nodes();
  s.graph_edges = monitor_.graph_edges();
  s.pending_edges = monitor_.pending_edges();
  s.nonuw_debt = monitor_.nonuw_debt();
  s.retired_txns = monitor_.stats().retired_txns;
  s.sealed_reads = monitor_.stats().sealed_reads;
  s.gc_passes = monitor_.stats().gc_passes;
  s.gc_ns = monitor_.stats().gc_ns;
  s.full_checks = monitor_.stats().full_checks;
  {
    util::MutexLock qlock(queue_mutex_);
    s.stopped = stopped_;
  }
  return s;
}

}  // namespace duo::service
