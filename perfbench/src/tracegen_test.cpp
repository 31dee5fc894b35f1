// Self-test of the benchmark's trace generator: determinism, and that the
// generated traces get the verdicts the benchmark expects from them —
// accepted by check_du_opacity and by the online monitor with GC on and
// off, and, with an injected violation, rejected first at exactly the
// injected event. Exit code 0 when every check passes.
#include <cstdio>
#include <string>

#include "checker/du_opacity.hpp"
#include "checker/engine.hpp"
#include "history/parser.hpp"
#include "monitor/monitor.hpp"
#include "tracegen.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

// Feeds every event; returns the monitor's first violation (or nullopt),
// and whether it reached a clean yes.
std::optional<std::size_t> monitor_first_violation(
    const std::vector<duo::history::Event>& events, bool gc, bool& yes) {
  duo::monitor::MonitorOptions opts;
  opts.gc = gc;
  opts.gc_retain_events = 64;  // collect often on small traces
  duo::monitor::OnlineMonitor m(opts);
  const auto out = m.feed_batch(events.data(), events.size());
  yes = out.error.empty() && m.verdict() == duo::checker::Verdict::kYes;
  return m.first_violation();
}

void check_trace(const perfbench::TraceShape& shape, std::uint64_t seed,
                 std::size_t events, bool inject) {
  const std::string tag = "seed " + std::to_string(seed) +
                          (shape.unique_writes ? " uw" : " non-uw") +
                          (inject ? " injected" : "");
  const auto a = perfbench::generate_trace(shape, seed, events, inject,
                                           events / 3);
  const auto b = perfbench::generate_trace(shape, seed, events, inject,
                                           events / 3);
  expect(a.text == b.text, tag + ": same seed, different text");
  expect(a.aborts > 0 || events < 200, tag + ": no contention aborts");

  auto parsed = duo::history::parse_events(a.text);
  expect(parsed.has_value(), tag + ": does not parse");
  if (!parsed) return;
  const auto& ev = parsed.value().events;
  expect(ev.size() == a.events, tag + ": event count mismatch");
  auto h = duo::history::parse_history(a.text);
  expect(h.has_value(), tag + ": not a well-formed history");
  if (!h) return;

  const auto du = duo::checker::check_du_opacity(h.value());
  if (!inject) {
    expect(du.yes(), tag + ": check_du_opacity does not accept it");
    for (const bool gc : {false, true}) {
      bool yes = false;
      const auto at = monitor_first_violation(ev, gc, yes);
      expect(yes && !at.has_value(),
             tag + ": monitor (gc " + (gc ? "on" : "off") + ") rejects at " +
                 std::to_string(at.value_or(0)));
    }
    return;
  }
  expect(a.violation.has_value(), tag + ": nothing injected");
  if (!a.violation) return;
  expect(du.no(), tag + ": injected trace accepted");
  const auto first = duo::checker::first_bad_prefix(
      h.value(), duo::checker::Criterion::kDuOpacity);
  expect(first == a.violation,
         tag + ": first_bad_prefix " + std::to_string(first.value_or(0)) +
             " != injected " + std::to_string(*a.violation));
  for (const bool gc : {false, true}) {
    bool yes = false;
    const auto at = monitor_first_violation(ev, gc, yes);
    expect(at == a.violation,
           tag + ": monitor (gc " + (gc ? "on" : "off") + ") latched at " +
               std::to_string(at.value_or(0)));
  }
}

}  // namespace

int main() {
  perfbench::TraceShape uw;
  perfbench::TraceShape non_uw;
  non_uw.unique_writes = false;
  non_uw.threads = 3;
  non_uw.objects = 4;
  non_uw.min_ops = 1;
  non_uw.max_ops = 3;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    check_trace(uw, seed, 3000, false);
    check_trace(uw, seed, 3000, true);
    check_trace(non_uw, seed, 40, false);
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench tracegen: all checks passed\n");
  return 0;
}
