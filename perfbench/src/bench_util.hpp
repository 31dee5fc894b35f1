// Small helpers shared by the benchmark program: clocks, sample statistics,
// an in-memory span recorder and a flat JSON object writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const auto epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

/// A set of timing (or rate) samples.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double sum() const {
    double s = 0;
    for (const double x : v_) s += x;
    return s;
  }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double median() const { return quantile(0.5); }
  /// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
  /// beyond it; 0 when there are fewer than eleven samples.
  double tail_pct() const {
    double best = 0;
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
      if (static_cast<double>(v_.size()) * (1.0 - p / 100.0) >= 10.0) best = p;
    return best;
  }
  double tail() const {
    const double p = tail_pct();
    return p > 0 ? quantile(p / 100.0) : 0.0;
  }

 private:
  std::vector<double> v_;
};

/// In-memory span recorder: name, start, end and the causing span. Only
/// records when enabled; one instance per thread (not thread-safe). Spans
/// are written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  // 1-based span id, 0 = root
    double start;
    double end;
  };

  explicit Tracer(bool on = false) : on_(on) { spans_.reserve(on ? 1 << 16 : 0); }
  bool on() const { return on_; }

  std::uint32_t open(const char* name, std::uint32_t parent = 0) {
    if (!on_) return 0;
    spans_.push_back({name, parent, now_s(), 0.0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end = now_s();
  }

  /// Durations (seconds) of every closed span with this name.
  Samples durations(const std::string& name) const {
    Samples s;
    for (const Span& sp : spans_)
      if (sp.end > 0 && name == sp.name) s.add(sp.end - sp.start);
    return s;
  }

  /// Appends the spans as JSON lines, tagged with `thread`.
  void write(std::FILE* f, const char* thread) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   thread, i + 1, sp.parent, sp.name, sp.start * 1e6,
                   sp.end * 1e6);
    }
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Runs f() inside a span named `name`; returns its wall time in seconds
/// (measured whether or not the tracer records).
template <class F>
double timed(Tracer& tr, const char* name, std::uint32_t parent, F&& f) {
  const double t0 = now_s();
  const std::uint32_t id = tr.open(name, parent);
  f();
  tr.close(id);
  return now_s() - t0;
}

inline std::string json_quote(const std::string& v) {
  std::string q = "\"";
  for (const char c : v) {
    if (static_cast<unsigned char>(c) < 0x20) {
      q += ' ';
      continue;
    }
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + "\"";
}

/// Flat JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return raw(key, buf);
  }
  Json& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, json_quote(v));
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.text()); }
  std::string text() const { return "{" + body_ + "}"; }
  /// Adds `v`, already JSON text, under `key`.
  Json& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + key + "\":" + v;
    return *this;
  }

 private:
  std::string body_;
};

}  // namespace perfbench
