#include "service/daemon.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "checker/verdict.hpp"

namespace duo::service {

namespace {

/// stat() the path; false on failure. Size and inode are what rotation /
/// truncation detection needs.
bool stat_path(const std::string& path, unsigned long long& inode,
               std::size_t& size) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;
  inode = static_cast<unsigned long long>(st.st_ino);
  size = static_cast<std::size_t>(st.st_size);
  return true;
}

}  // namespace

FollowReader::FollowReader(std::string path, const FollowOptions& opts)
    : path_(std::move(path)), opts_(opts) {
  if (opts_.min_poll_ms == 0) opts_.min_poll_ms = 1;
  if (opts_.max_poll_ms < opts_.min_poll_ms)
    opts_.max_poll_ms = opts_.min_poll_ms;
  if (opts_.max_chunk_bytes == 0) opts_.max_chunk_bytes = 256 * 1024;
}

FollowReader::~FollowReader() {
  if (file_ != nullptr) std::fclose(file_);
}

FollowStatus FollowReader::fail(std::string why) {
  error_ = std::move(why);
  terminal_ = FollowStatus::kError;
  terminated_ = true;
  return terminal_;
}

FollowStatus FollowReader::poll(std::string& out) {
  out.clear();
  if (terminated_) return terminal_;

  using clock = std::chrono::steady_clock;
  const auto idle_limit = std::chrono::milliseconds(opts_.idle_ms);
  auto last_growth = clock::now();
  std::uint64_t backoff_ms = opts_.min_poll_ms;

  for (;;) {
    if (opts_.stop != nullptr && *opts_.stop != 0) {
      terminal_ = FollowStatus::kStopped;
      terminated_ = true;
      return terminal_;
    }

    unsigned long long inode = 0;
    std::size_t size = 0;
    if (!stat_path(path_, inode, size)) {
      if (file_ == nullptr)
        return fail("cannot stat " + path_ + ": " + std::strerror(errno));
      // The path vanished under an open file: rotation in progress. The
      // consumed prefix stays sound; everything later is unknowable.
      terminal_ = FollowStatus::kRotated;
      terminated_ = true;
      return terminal_;
    }

    if (file_ == nullptr) {
      file_ = std::fopen(path_.c_str(), "rb");
      if (file_ == nullptr)
        return fail("cannot open " + path_ + ": " + std::strerror(errno));
      inode_ = inode;
    } else if (inode != inode_) {
      terminal_ = FollowStatus::kRotated;
      terminated_ = true;
      return terminal_;
    }

    if (size < consumed_) {
      terminal_ = FollowStatus::kTruncated;
      terminated_ = true;
      return terminal_;
    }

    if (size > consumed_) {
      // Read the newly appended bytes (the writer may append more
      // concurrently; that surplus is picked up next poll), capped at
      // max_chunk_bytes so catching up on a pre-existing multi-megabyte
      // file hands the pipeline a stream of bounded chunks instead of one
      // trace-sized string — the whole point of the service is an RSS
      // bound independent of trace length.
      const std::size_t want =
          std::min(size - consumed_, opts_.max_chunk_bytes);
      std::string buf(want, '\0');
      if (std::fseek(file_, static_cast<long>(consumed_), SEEK_SET) != 0)
        return fail("seek failed on " + path_);
      const std::size_t got = std::fread(buf.data(), 1, buf.size(), file_);
      buf.resize(got);
      if (got == 0) {
        if (std::ferror(file_) != 0)
          return fail("read failed on " + path_);
      } else {
        consumed_ += got;
        // Cut at the last whitespace so out holds only whole tokens; the
        // tail fragment carries into the next poll.
        std::string chunk = carry_ + buf;
        std::size_t cut = chunk.size();
        while (cut > 0 &&
               std::isspace(static_cast<unsigned char>(chunk[cut - 1])) == 0)
          --cut;
        carry_ = chunk.substr(cut);
        chunk.resize(cut);
        if (!chunk.empty()) {
          out = std::move(chunk);
          return FollowStatus::kData;
        }
        // Grew, but only a partial token so far: keep polling, and treat
        // it as growth for the idle clock.
        last_growth = clock::now();
        backoff_ms = opts_.min_poll_ms;
        continue;
      }
    }

    if (opts_.idle_ms > 0 && clock::now() - last_growth >= idle_limit) {
      // Idle cutoff: flush the carried fragment as a final token, if any.
      if (!carry_.empty()) {
        out = std::move(carry_);
        carry_.clear();
        return FollowStatus::kData;
      }
      terminal_ = FollowStatus::kIdle;
      terminated_ = true;
      return terminal_;
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, opts_.max_poll_ms);
  }
}

std::size_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "rb");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t hwm = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      hwm = static_cast<std::size_t>(kb);
      break;
    }
  }
  std::fclose(f);
  return hwm;
}

std::string format_stats_line(const PipelineSnapshot& snap,
                              double events_per_sec, std::size_t hwm_kb,
                              bool json) {
  std::ostringstream ss;
  if (json) {
    ss << "{\"events\":" << snap.events                       //
       << ",\"events_per_sec\":" << static_cast<std::uint64_t>(events_per_sec)
       << ",\"verdict\":\""
       << (snap.verdict == checker::Verdict::kYes ? "yes" : "no") << "\""
       << ",\"live_txns\":" << snap.live_transactions         //
       << ",\"retired_txns\":" << snap.retired_txns           //
       << ",\"retained_events\":" << snap.retained_events     //
       << ",\"graph_nodes\":" << snap.graph_nodes             //
       << ",\"graph_edges\":" << snap.graph_edges             //
       << ",\"pending_edges\":" << snap.pending_edges         //
       << ",\"nonuw_debt\":" << snap.nonuw_debt               //
       << ",\"gc_passes\":" << snap.gc_passes                 //
       << ",\"sealed_reads\":" << snap.sealed_reads           //
       << ",\"gc_ns\":" << snap.gc_ns                         //
       << ",\"full_checks\":" << snap.full_checks;
    // 0 means /proc/self/status was unavailable (non-Linux or a restricted
    // sandbox), not a zero-byte peak; the key is omitted rather than
    // reporting a misleading measurement (see the schema table in
    // docs/service.md).
    if (hwm_kb != 0) ss << ",\"vm_hwm_kb\":" << hwm_kb;
    ss << "}";
  } else {
    ss << "events=" << snap.events << " ev/s="
       << static_cast<std::uint64_t>(events_per_sec)
       << " verdict=" << (snap.verdict == checker::Verdict::kYes ? "yes" : "no")
       << " live=" << snap.live_transactions
       << " retired=" << snap.retired_txns
       << " retained=" << snap.retained_events
       << " nodes=" << snap.graph_nodes << " edges=" << snap.graph_edges
       << " pending=" << snap.pending_edges << " nonuw=" << snap.nonuw_debt
       << " gc=" << snap.gc_passes << " gc_ns=" << snap.gc_ns;
    if (hwm_kb != 0) ss << " hwm_kb=" << hwm_kb;
  }
  return ss.str();
}

DaemonReport run_daemon(const DaemonOptions& opts, std::FILE* out) {
  using clock = std::chrono::steady_clock;
  if (out == nullptr) out = stdout;
  std::FILE* stats_out = opts.stats_out != nullptr ? opts.stats_out : stderr;

  DaemonReport report;
  FollowReader reader(opts.trace_path, opts.follow);
  IngestPipeline pipeline(opts.pipeline);

  const auto stats_interval =
      std::chrono::milliseconds(opts.stats_interval_ms);
  auto last_stats = clock::now();
  std::size_t last_events = 0;

  std::string chunk;
  FollowStatus status = FollowStatus::kData;
  for (;;) {
    status = reader.poll(chunk);
    if (status != FollowStatus::kData) break;
    if (!pipeline.submit(std::move(chunk))) break;  // latched: stop reading

    if (opts.stats_interval_ms > 0) {
      const auto now = clock::now();
      if (now - last_stats >= stats_interval) {
        const PipelineSnapshot snap = pipeline.snapshot();
        const double secs =
            std::chrono::duration<double>(now - last_stats).count();
        const double rate =
            secs > 0 ? static_cast<double>(snap.events - last_events) / secs
                     : 0.0;
        std::fprintf(stats_out, "%s\n",
                     format_stats_line(snap, rate, vm_hwm_kb(),
                                       opts.stats_json)
                         .c_str());
        std::fflush(stats_out);
        last_stats = now;
        last_events = snap.events;
      }
    }
  }

  report.result = pipeline.finish();
  switch (status) {
    case FollowStatus::kIdle:
      report.ended_by = "eof-idle";
      break;
    case FollowStatus::kStopped:
      report.ended_by = "stopped";
      break;
    case FollowStatus::kRotated:
      report.ended_by = "rotated";
      break;
    case FollowStatus::kTruncated:
      report.ended_by = "truncated";
      break;
    case FollowStatus::kError:
      report.ended_by = "read-error";
      break;
    case FollowStatus::kData:
      report.ended_by = "latched";  // submit() refused: verdict is final
      break;
  }

  // Final verdict flush. Mirrors duo_check --stream: a violation is a
  // violation; a clean verdict is confident only if the input ended
  // cleanly (idle cutoff or explicit stop) and was never marked truncated.
  const auto& r = report.result;
  if (status == FollowStatus::kError) {
    std::fprintf(out, "duo_mond: %s\n", reader.error().c_str());
    report.exit_code = 1;
  } else if (r.error) {
    std::fprintf(out, "duo_mond: %s\n", r.explanation.c_str());
    report.exit_code = 1;
  } else if (r.verdict == checker::Verdict::kNo) {
    std::fprintf(out, "VIOLATION at event %zu: %s\n",
                 r.first_violation.has_value() ? *r.first_violation + 1 : 0,
                 r.explanation.c_str());
    report.exit_code = 2;
  } else if (status == FollowStatus::kRotated ||
             status == FollowStatus::kTruncated) {
    std::fprintf(out,
                 "inconclusive after %zu events: trace file %s, so the "
                 "clean verdict covers only the consumed prefix\n",
                 r.events,
                 status == FollowStatus::kRotated ? "was rotated"
                                                  : "was truncated");
    report.exit_code = 2;
  } else if (r.truncated) {
    std::fprintf(out,
                 "inconclusive after %zu events: trace marked truncated, so "
                 "the clean verdict covers only the recorded prefix\n",
                 r.events);
    report.exit_code = 2;
  } else if (r.verdict == checker::Verdict::kYes) {
    std::fprintf(out,
                 "du-opaque after %zu events (%zu retired txns, %zu gc "
                 "passes, %zu full checks, peak rss %zu kB)\n",
                 r.events, r.monitor.retired_txns, r.monitor.gc_passes,
                 r.monitor.full_checks, vm_hwm_kb());
    report.exit_code = 0;
  } else {
    std::fprintf(out, "undecided after %zu events (budget exhausted)\n",
                 r.events);
    report.exit_code = 2;
  }
  std::fflush(out);
  return report;
}

}  // namespace duo::service
