// Dynamic directed graph with online cycle detection.
//
// Two subsystems build their necessary-edges constraint sets on top of this
// structure. The online safety monitor (monitor/monitor.hpp) maintains, per
// event, the serialization edges every du-opaque witness of the current
// prefix must satisfy; edges come and go as transactions change status — a
// unique candidate writer loses its edge when a second candidate invokes
// tryC — so the structure must support both insertion with incremental
// cycle detection and deletion. The polynomial graph engine
// (checker/graph_engine.hpp) uses the same machinery plus the `reaches`
// query to saturate forced version-order edges to a fixpoint.
//
// Cycle detection uses topological-order maintenance (Pearce & Kelly, "A
// dynamic topological sort algorithm for directed acyclic graphs", JEA
// 2007): a total order `ord` over nodes is kept consistent with all edges;
// inserting an edge (a, b) with ord[a] < ord[b] is O(1), otherwise only the
// "affected region" — nodes whose order index lies between ord[b] and
// ord[a] — is searched and locally reordered. Deleting an edge never
// invalidates the order (any topological order of a graph is one of every
// subgraph), so deletion is a pure refcount decrement.
//
// Edges are reference-counted: the monitor derives the same pair from
// independent rules (a real-time edge and a unique-writer edge may
// coincide) and releases them independently.
//
// Adjacency is flat sorted vectors of (neighbor, refcount), not per-node
// trees: the per-edge constant is the hot cost of the monitor's ingest
// path, degrees are small (a few edges per transaction), and a
// binary search plus a short memmove beats a red-black tree at these sizes
// while keeping neighbor iteration deterministic (sorted by id).
//
// Nodes can be retired (retire_node) once the caller guarantees no future
// edge will name them — the monitor's settled-prefix GC retires a
// transaction's node when it can no longer be referenced — and retired ids
// are reused by later add_node calls, so long-running monitors hold
// O(live nodes) rather than O(all nodes ever created).
#pragma once

#include <cstdint>
#include <vector>

namespace duo::util {

class IncrementalGraph {
 public:
  /// Adds a node and returns its id. Ids of retired nodes are reused
  /// (most-recently-retired first); otherwise ids are dense, starting at 0.
  /// A new node is isolated, so any position in the maintained topological
  /// order is consistent; fresh ids are appended at the end of the order,
  /// reused ids keep the retired node's old slot.
  std::size_t add_node();

  /// Preallocates per-node arrays for `nodes` nodes. Purely an
  /// optimization for callers that know the final size up front (the graph
  /// engine's saturation pass); add_node still defines actual membership.
  void reserve(std::size_t nodes);

  /// Adds one reference to the edge a -> b. Returns false iff the edge
  /// would close a cycle — in that case the graph is left unchanged. A
  /// self-loop is reported as a cycle.
  bool add_edge(std::size_t a, std::size_t b);

  /// Releases one reference to the edge a -> b; the edge disappears when
  /// its count reaches zero. The edge must currently exist.
  void remove_edge(std::size_t a, std::size_t b);

  bool has_edge(std::size_t a, std::size_t b) const;

  /// True iff b is reachable from a (a == b included). Uses the maintained
  /// topological order to prune: only nodes with order index in
  /// [ord(a), ord(b)] can lie on a path, so a query touches the affected
  /// region, not the whole graph, and ord(a) > ord(b) is an O(1) "no".
  bool reaches(std::size_t a, std::size_t b);

  /// Removes the node and every edge incident to it (regardless of
  /// refcounts), and frees its id for reuse by add_node. Sound for cycle
  /// detection only under the caller's guarantee that no future add_edge
  /// will name this node: a node without future in-edges cannot lie on any
  /// future cycle, so its edges impose no constraint the remaining graph
  /// needs. Returns the number of distinct edges removed.
  std::size_t retire_node(std::size_t n);

  /// Node-array slots allocated (valid id range is [0, num_nodes()),
  /// including retired slots awaiting reuse).
  std::size_t num_nodes() const noexcept { return out_.size(); }
  /// Nodes currently alive (allocated minus retired).
  std::size_t num_live_nodes() const noexcept {
    return out_.size() - free_.size();
  }
  /// Number of distinct present edges (ignoring reference counts).
  std::size_t num_edges() const noexcept { return num_edges_; }

  /// Current topological index of a node (for tests: every edge a -> b
  /// satisfies order_index(a) < order_index(b)).
  std::size_t order_index(std::size_t node) const;

 private:
  /// One adjacency entry: neighbor id + edge refcount. Rows are sorted by
  /// `to`, so lookup is a binary search and iteration is deterministic.
  struct HalfEdge {
    std::size_t to;
    std::uint32_t count;
  };
  using Row = std::vector<HalfEdge>;

  /// Iterator to the entry for `node` in `row`, or end() if absent.
  static Row::iterator find_in(Row& row, std::size_t node);
  static Row::const_iterator find_in(const Row& row, std::size_t node);

  /// Forward DFS from `from`, visiting only nodes with ord <= `limit`.
  /// Returns false if `target` was reached (cycle); visited nodes are
  /// appended to `out`.
  bool forward_reach(std::size_t from, std::size_t limit, std::size_t target,
                     std::vector<std::size_t>& out);
  /// Backward DFS from `from`, visiting only nodes with ord >= `limit`.
  void backward_reach(std::size_t from, std::size_t limit,
                      std::vector<std::size_t>& out);

  std::vector<Row> out_;
  std::vector<Row> in_;
  std::vector<std::size_t> ord_;  // node -> topological priority (unique)
  std::size_t next_ord_ = 0;      // every new/reused node enters at the top
  std::vector<bool> mark_;        // scratch for the DFS passes
  std::vector<std::size_t> free_;  // retired node ids awaiting reuse
  // Scratch buffers reused across add_edge/reaches calls. The online
  // monitor performs a handful of insertions per streamed event, so the
  // per-call allocations of the affected-region search were a measurable
  // slice of its steady-state cost.
  std::vector<std::size_t> stack_;
  std::vector<std::size_t> delta_f_;
  std::vector<std::size_t> delta_b_;
  std::vector<std::size_t> slots_;
  std::size_t num_edges_ = 0;
};

}  // namespace duo::util
