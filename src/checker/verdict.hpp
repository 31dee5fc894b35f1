// Verdict vectors: evaluate a history under every criterion the paper
// compares. Powers the figure benchmark, examples, and EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

#include "checker/criteria.hpp"

namespace duo::checker {

struct VerdictVector {
  Verdict final_state = Verdict::kUnknown;
  Verdict opaque = Verdict::kUnknown;
  Verdict du_opaque = Verdict::kUnknown;
  Verdict rco = Verdict::kUnknown;
  Verdict tms2 = Verdict::kUnknown;
  Verdict strict_ser = Verdict::kUnknown;

  /// "FSO=yes opaque=yes du=no rco=no tms2=no sser=yes"
  std::string to_string() const;
};

VerdictVector evaluate_all(const History& h, const CheckOptions& opts = {});

/// Check a single criterion through the engine router (see engine.hpp):
/// opts.engine selects auto / graph / dfs. On the DFS path the opacity
/// checker's prefix-level result is adapted into a CheckResult (no witness;
/// the first bad prefix index lands in the explanation); the graph engine
/// decides opacity directly via Theorem 11. Used by the duo_check
/// --criterion flag and the CheckerPool.
CheckResult check_criterion(const History& h, Criterion c,
                            const CheckOptions& opts = {});

/// The containment structure the paper proves/conjectures, as a checkable
/// predicate on a verdict vector (ignores kUnknown entries):
///   du ⇒ opaque ⇒ final-state (Thm. 10, Def. 5);
///   rco ⇒ du (§4.2, [6] stronger than du);
///   final-state ⇒ strict serializability of the committed projection.
/// The §4.2 conjecture TMS2 ⊆ du-opacity is not checked: it concerns the
/// full TMS2 automaton, while check_tms2 enforces only the conflict-order
/// clause (see tms2.hpp), which accepts some non-du-opaque histories.
/// Returns an explanation of the first violated implication, or empty.
std::string containment_violations(const VerdictVector& v);

}  // namespace duo::checker
