// Unit and randomized tests for the shared dynamic constraint graph (used
// by the online monitor and the polynomial graph engine): online cycle
// detection via topological-order maintenance must agree with a from-scratch
// DFS on every insertion, across interleaved insertions and deletions, and
// the order-pruned reachability query must agree with a plain DFS.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/incremental_graph.hpp"
#include "util/rng.hpp"

namespace duo::util {
namespace {

TEST(IncrementalGraph, ForwardEdgesAlwaysSucceed) {
  IncrementalGraph g;
  for (int i = 0; i < 4; ++i) g.add_node();
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_TRUE(g.add_edge(2, 3));
  EXPECT_TRUE(g.add_edge(0, 3));
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(IncrementalGraph, SelfLoopIsACycle) {
  IncrementalGraph g;
  g.add_node();
  EXPECT_FALSE(g.add_edge(0, 0));
}

TEST(IncrementalGraph, TwoCycleRejected) {
  IncrementalGraph g;
  g.add_node();
  g.add_node();
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));
  // The failed insertion must leave the graph unchanged.
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(IncrementalGraph, LongCycleRejectedThroughReordering) {
  IncrementalGraph g;
  for (int i = 0; i < 5; ++i) g.add_node();
  // Insert edges against the initial order so the affected-region
  // reordering path runs.
  EXPECT_TRUE(g.add_edge(4, 3));
  EXPECT_TRUE(g.add_edge(3, 2));
  EXPECT_TRUE(g.add_edge(2, 1));
  EXPECT_TRUE(g.add_edge(1, 0));
  EXPECT_FALSE(g.add_edge(0, 4));
  // Order must be consistent with all present edges.
  EXPECT_LT(g.order_index(4), g.order_index(3));
  EXPECT_LT(g.order_index(3), g.order_index(2));
  EXPECT_LT(g.order_index(2), g.order_index(1));
  EXPECT_LT(g.order_index(1), g.order_index(0));
}

TEST(IncrementalGraph, RemovalReenablesReverseEdge) {
  IncrementalGraph g;
  g.add_node();
  g.add_node();
  ASSERT_TRUE(g.add_edge(0, 1));
  ASSERT_FALSE(g.add_edge(1, 0));
  g.remove_edge(0, 1);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.add_edge(1, 0));
}

TEST(IncrementalGraph, EdgesAreReferenceCounted) {
  IncrementalGraph g;
  g.add_node();
  g.add_node();
  ASSERT_TRUE(g.add_edge(0, 1));
  ASSERT_TRUE(g.add_edge(0, 1));  // second reference (e.g. RT + unique-writer)
  EXPECT_EQ(g.num_edges(), 1u);
  g.remove_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // still cyclic
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 0));
}

TEST(IncrementalGraph, ReachesFollowsPathsNotOrder) {
  IncrementalGraph g;
  for (int i = 0; i < 5; ++i) g.add_node();
  ASSERT_TRUE(g.add_edge(0, 1));
  ASSERT_TRUE(g.add_edge(1, 2));
  ASSERT_TRUE(g.add_edge(3, 4));
  EXPECT_TRUE(g.reaches(0, 0));
  EXPECT_TRUE(g.reaches(0, 2));
  EXPECT_FALSE(g.reaches(2, 0));
  EXPECT_FALSE(g.reaches(0, 4));  // ordered before 4, but no path
  // Queries leave no stale marks: repeat both ways.
  EXPECT_TRUE(g.reaches(0, 2));
  EXPECT_FALSE(g.reaches(0, 4));
}

// Ground truth: would adding (a, b) to `edges` close a cycle? Checked by a
// DFS for a path b -> a.
bool would_cycle(const std::map<std::pair<std::size_t, std::size_t>, int>& edges,
                 std::size_t n, std::size_t a, std::size_t b) {
  if (a == b) return true;
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [e, count] : edges)
    if (count > 0) adj[e.first].push_back(e.second);
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> stack{b};
  seen[b] = true;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    if (u == a) return true;
    for (const std::size_t v : adj[u])
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
  }
  return false;
}

TEST(IncrementalGraph, RetireNodeDropsIncidentEdgesAndReusesId) {
  IncrementalGraph g;
  for (int i = 0; i < 4; ++i) g.add_node();
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_TRUE(g.add_edge(1, 2));  // second reference, one distinct edge
  EXPECT_TRUE(g.add_edge(3, 1));
  EXPECT_EQ(g.num_live_nodes(), 4u);

  // Retiring 1 drops 0->1, 1->2 and 3->1 regardless of refcounts.
  EXPECT_EQ(g.retire_node(1), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_live_nodes(), 3u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(3, 1));

  // The freed id is reused and comes back isolated.
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.num_live_nodes(), 4u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 0));  // no stale edges: 1 -> 0 closes no cycle
  EXPECT_TRUE(g.add_edge(1, 3));
}

TEST(IncrementalGraph, RetirementKeepsCycleDetectionExact) {
  // A chain 0 -> 1 -> 2; retiring 0 (which has no future in-edges) must not
  // disturb detection among the survivors.
  IncrementalGraph g;
  for (int i = 0; i < 3; ++i) g.add_node();
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  g.retire_node(0);
  EXPECT_FALSE(g.add_edge(2, 1));
  EXPECT_TRUE(g.add_edge(1, 2));  // refcount bump on the surviving edge
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(IncrementalGraph, SteadyStateChurnKeepsSlotCountBounded) {
  // A sliding window of live nodes: each round adds a node linked from the
  // previous one and retires the oldest. Slot count must stay at the window
  // size, not grow with rounds — the property the monitor's GC relies on.
  IncrementalGraph g;
  constexpr std::size_t kWindow = 8;
  std::vector<std::size_t> window;
  for (std::size_t i = 0; i < kWindow; ++i) {
    window.push_back(g.add_node());
    if (i > 0) {
      ASSERT_TRUE(g.add_edge(window[i - 1], window[i]));
    }
  }
  for (int round = 0; round < 1000; ++round) {
    const std::size_t fresh = g.add_node();
    ASSERT_TRUE(g.add_edge(window.back(), fresh));
    window.push_back(fresh);
    g.retire_node(window.front());
    window.erase(window.begin());
    ASSERT_EQ(g.num_live_nodes(), kWindow);
    ASSERT_LE(g.num_nodes(), kWindow + 1);
  }
}

class IncrementalGraphRandom : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IncrementalGraphRandom, AgreesWithFromScratchCycleCheck) {
  util::Xoshiro256 rng(GetParam());
  IncrementalGraph g;
  constexpr std::size_t kNodes = 24;
  for (std::size_t i = 0; i < kNodes; ++i) g.add_node();

  std::map<std::pair<std::size_t, std::size_t>, int> reference;
  std::vector<std::pair<std::size_t, std::size_t>> present;  // refs, ordered

  for (int step = 0; step < 2000; ++step) {
    const bool remove = !present.empty() && rng.next() % 4 == 0;
    if (remove) {
      const std::size_t i = rng.next() % present.size();
      const auto [a, b] = present[i];
      present.erase(present.begin() + static_cast<std::ptrdiff_t>(i));
      --reference[{a, b}];
      g.remove_edge(a, b);
    } else {
      const std::size_t a = rng.next() % kNodes;
      const std::size_t b = rng.next() % kNodes;
      const bool expect_ok = !would_cycle(reference, kNodes, a, b);
      ASSERT_EQ(g.add_edge(a, b), expect_ok)
          << "step " << step << " edge " << a << "->" << b;
      if (expect_ok) {
        ++reference[{a, b}];
        present.emplace_back(a, b);
      }
    }
    // The maintained order must stay consistent with every present edge.
    if (step % 100 == 0) {
      for (const auto& [e, count] : reference) {
        if (count > 0) {
          ASSERT_LT(g.order_index(e.first), g.order_index(e.second));
        }
      }
      // The order-pruned reachability query must agree with a from-scratch
      // DFS: would_cycle(edges, n, a, b) searches from b for a, i.e. it
      // decides "path b -> a exists", which is reaches(b, a) for b != a.
      for (int probe = 0; probe < 16; ++probe) {
        const std::size_t a = rng.next() % kNodes;
        const std::size_t b = rng.next() % kNodes;
        const bool expect = a == b || would_cycle(reference, kNodes, a, b);
        ASSERT_EQ(g.reaches(b, a), expect)
            << "step " << step << " reaches " << b << "->" << a;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalGraphRandom,
                         ::testing::Values(1ull, 7ull, 42ull, 2026ull));

}  // namespace
}  // namespace duo::util
