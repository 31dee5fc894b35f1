#include "tracegen.hpp"

#include <charconv>
#include <cmath>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

struct Op {
  int obj = 0;
  bool write = false;
};

enum class Pending { kNone, kRead, kWrite, kTryC };

struct Thread {
  bool active = false;
  long long txn = 0;
  std::vector<Op> ops;
  std::size_t next_op = 0;
  Pending pending = Pending::kNone;
  long long pending_value = 0;  // the write value of a pending write
  bool tryc_invoked = false;
  bool doomed = false;  // its write was read dirty: tryC answers A
  std::vector<std::pair<int, std::uint64_t>> read_set;  // obj, version read
  std::vector<std::pair<int, long long>> writes;        // responded writes
};

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}
  Writer& s(const char* text) {
    out_ += text;
    return *this;
  }
  Writer& c(char ch) {
    out_ += ch;
    return *this;
  }
  Writer& n(long long v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, r.ptr);
    return *this;
  }

 private:
  std::string& out_;
};

class Generator {
 public:
  Generator(const TraceShape& shape, std::uint64_t seed)
      : shape_(shape), rng_(seed), threads_(shape.threads),
        value_(shape.objects, 0), version_(shape.objects, 0) {
    double sum = 0;
    cdf_.reserve(shape.objects);
    for (int r = 0; r < shape.objects; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), shape.zipf_theta);
      cdf_.push_back(sum);
    }
    for (double& p : cdf_) p /= sum;
  }

  GeneratedTrace run(std::size_t target, bool inject, std::size_t after) {
    inject_ = inject;
    inject_after_ = after;
    out_.text.reserve(target * 10);
    bool starting = true;
    std::size_t active = 0;
    for (;;) {
      if (starting && out_.events >= target) starting = false;
      if (!starting && active == 0) break;
      Thread& t = threads_[rng_.below(threads_.size())];
      if (!t.active) {
        if (!starting) continue;
        begin(t);
        ++active;
      }
      step(t);
      if (!t.active) --active;
    }
    out_.text += '\n';
    return std::move(out_);
  }

 private:
  int pick_object() {
    const double u = rng_.unit();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return static_cast<int>(lo);
  }

  long long fresh_value() {
    if (shape_.unique_writes) return ++last_unique_;
    return 1 + static_cast<long long>(rng_.below(shape_.value_range));
  }

  void begin(Thread& t) {
    t.active = true;
    t.txn = ++last_txn_;
    ++out_.txns;
    t.ops.clear();
    t.next_op = 0;
    t.pending = Pending::kNone;
    t.tryc_invoked = false;
    t.doomed = false;
    t.read_set.clear();
    t.writes.clear();
    const int n = shape_.min_ops +
                  static_cast<int>(rng_.below(shape_.max_ops - shape_.min_ops + 1));
    while (static_cast<int>(t.ops.size()) < n) {
      const int obj = pick_object();
      bool dup = false;
      for (const Op& op : t.ops) dup |= op.obj == obj;
      if (!dup) t.ops.push_back({obj, rng_.unit() < shape_.write_prob});
    }
  }

  bool valid(const Thread& t) const {
    for (const auto& [obj, ver] : t.read_set)
      if (version_[obj] != ver) return false;
    return true;
  }

  // Advances `t` by one operation step: an invocation (with its response
  // right behind it unless the op is split) or a pending response.
  void step(Thread& t) {
    Writer w(out_.text);
    if (t.pending != Pending::kNone) {
      respond(t, w, /*merged=*/false);
      return;
    }
    if (!out_.text.empty()) w.c(' ');
    const bool split = rng_.unit() < shape_.split_prob;
    if (t.next_op < t.ops.size()) {
      const Op op = t.ops[t.next_op++];
      if (op.write) {
        t.pending = Pending::kWrite;
        t.pending_value = fresh_value();
        w.c('W').n(t.txn);
        if (split) w.c('?');
        w.s("(X").n(op.obj).c(',').n(t.pending_value).c(')');
      } else {
        t.pending = Pending::kRead;
        w.c('R').n(t.txn);
        if (split) w.c('?');
        w.s("(X").n(op.obj).c(')');
      }
    } else {
      t.pending = Pending::kTryC;
      t.tryc_invoked = true;
      w.c('C').n(t.txn);
      if (split) w.c('?');
    }
    ++out_.events;
    if (!split) respond(t, w, /*merged=*/true);
  }

  void respond(Thread& t, Writer& w, bool merged) {
    const Pending kind = t.pending;
    t.pending = Pending::kNone;
    const std::size_t index = out_.events++;
    if (kind == Pending::kWrite) {
      const int obj = t.ops[t.next_op - 1].obj;
      t.writes.emplace_back(obj, t.pending_value);
      if (!merged) w.s(" W").n(t.txn).s("!(X").n(obj).c(')');
      return;
    }
    if (kind == Pending::kRead) {
      const int obj = t.ops[t.next_op - 1].obj;
      if (!merged) w.s(" R").n(t.txn).s("!(X").n(obj).c(')');
      if (!valid(t)) {
        w.s("=A");
        abort_txn(t);
        return;
      }
      t.read_set.emplace_back(obj, version_[obj]);
      w.c('=').n(injected_value(t, obj, index).value_or(value_[obj]));
      return;
    }
    if (!merged) w.s(" C").n(t.txn).c('!');
    if (t.doomed || !valid(t)) {
      w.s("=A");
      abort_txn(t);
      return;
    }
    for (const auto& [obj, v] : t.writes) {
      value_[obj] = v;
      ++version_[obj];
    }
    ++out_.commits;
    t.active = false;
  }

  void abort_txn(Thread& t) {
    ++out_.aborts;
    t.active = false;
  }

  // The injection: the value another live transaction wrote before
  // invoking tryC; that writer then aborts at tryC.
  std::optional<long long> injected_value(const Thread& reader, int obj,
                                          std::size_t index) {
    if (!inject_ || out_.violation.has_value() || index < inject_after_)
      return std::nullopt;
    for (Thread& other : threads_) {
      if (&other == &reader || !other.active || other.tryc_invoked) continue;
      for (const auto& [wobj, v] : other.writes) {
        if (wobj != obj) continue;
        out_.violation = index;
        other.doomed = true;
        return v;
      }
    }
    return std::nullopt;
  }

  TraceShape shape_;
  Rng rng_;
  std::vector<Thread> threads_;
  std::vector<long long> value_;
  std::vector<std::uint64_t> version_;
  std::vector<double> cdf_;
  long long last_txn_ = 0;
  long long last_unique_ = 0;
  bool inject_ = false;
  std::size_t inject_after_ = 0;
  GeneratedTrace out_;
};

}  // namespace

GeneratedTrace generate_trace(const TraceShape& shape, std::uint64_t seed,
                              std::size_t target_events, bool inject_violation,
                              std::size_t inject_after) {
  return Generator(shape, seed).run(target_events, inject_violation,
                                    inject_after);
}

}  // namespace perfbench
