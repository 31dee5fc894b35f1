// TMS2 ([5, 15], as summarized in the paper's §4.2): a final-state
// serialization must order T_a before T_b whenever they conflict on an
// object X with X ∈ Wset(T_a) ∩ Rset(T_b), T_a successfully commits on X,
// and T_a's tryC response precedes T_b's tryC invocation. T_b ranges over
// committed updating transactions only, as in Doherty et al.'s TMS2 [5]
// (read-only and aborted transactions are checked against some memory
// state since they began, not the latest one); commit-pending readers are
// left unconstrained. See tms2_edges in constraints.hpp. The paper
// conjectures TMS2 ⊆ du-opacity and separates them with Figure 6, whose T2
// is a committed updating reader.
#pragma once

#include "checker/criteria.hpp"

namespace duo::checker {

using Tms2Options = CheckOptions;

/// Routed entry point (engine per opts.engine, see engine.hpp).
CheckResult check_tms2(const History& h, const Tms2Options& opts = {});

/// The DFS implementation, bypassing engine routing (see engine.hpp).
CheckResult check_tms2_dfs(const History& h, const Tms2Options& opts = {});

}  // namespace duo::checker
