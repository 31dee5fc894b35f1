#include "checker/verdict.hpp"

#include <sstream>

#include "checker/du_opacity.hpp"
#include "checker/engine.hpp"
#include "checker/final_state_opacity.hpp"
#include "checker/rco_opacity.hpp"
#include "checker/strict_serializability.hpp"
#include "checker/tms2.hpp"

namespace duo::checker {

std::string VerdictVector::to_string() const {
  std::ostringstream out;
  out << "FSO=" << checker::to_string(final_state)
      << " opaque=" << checker::to_string(opaque)
      << " du=" << checker::to_string(du_opaque)
      << " rco=" << checker::to_string(rco)
      << " tms2=" << checker::to_string(tms2)
      << " sser=" << checker::to_string(strict_ser);
  return out.str();
}

VerdictVector evaluate_all(const History& h, const CheckOptions& opts) {
  VerdictVector v;
  v.final_state = check_final_state_opacity(h, opts).verdict;
  v.opaque = check_criterion(h, Criterion::kOpacity, opts).verdict;
  v.du_opaque = check_du_opacity(h, opts).verdict;
  v.rco = check_rco_opacity(h, opts).verdict;
  v.tms2 = check_tms2(h, opts).verdict;
  v.strict_ser = check_strict_serializability(h, opts).verdict;
  return v;
}

namespace {

bool implies_violated(Verdict a, Verdict b) {
  // a ⇒ b violated only when a is definitely yes and b definitely no.
  return a == Verdict::kYes && b == Verdict::kNo;
}

}  // namespace

std::string containment_violations(const VerdictVector& v) {
  struct Rule {
    Verdict from, to;
    const char* name;
  };
  // Note: the paper's conjecture TMS2 ⊆ DU-Opacity concerns the full TMS2
  // automaton; our check implements only the one-clause conflict-order
  // condition quoted in §4.2, which is weaker (it binds only committed
  // updating readers and, unlike du-opacity, puts no condition on reads of
  // a writer whose tryC has not yet been invoked; Figure 3 is final-state
  // opaque and passes it), so no tms2 ⇒ du rule appears here.
  const Rule rules[] = {
      {v.du_opaque, v.opaque, "du-opaque but not opaque (Thm. 10)"},
      {v.opaque, v.final_state, "opaque but not final-state opaque (Def. 5)"},
      {v.rco, v.du_opaque, "rco-opaque but not du-opaque (§4.2)"},
      {v.final_state, v.strict_ser,
       "final-state opaque but committed projection not serializable"},
  };
  for (const Rule& r : rules)
    if (implies_violated(r.from, r.to)) return r.name;
  return "";
}

CheckResult check_criterion(const History& h, Criterion c,
                            const CheckOptions& opts) {
  return check_with_engine(h, c, opts);
}

}  // namespace duo::checker
