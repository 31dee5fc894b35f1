#include "util/incremental_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace duo::util {

IncrementalGraph::Row::iterator IncrementalGraph::find_in(Row& row,
                                                          std::size_t node) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), node,
      [](const HalfEdge& e, std::size_t n) { return e.to < n; });
  if (it == row.end() || it->to != node) return row.end();
  return it;
}

IncrementalGraph::Row::const_iterator IncrementalGraph::find_in(
    const Row& row, std::size_t node) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), node,
      [](const HalfEdge& e, std::size_t n) { return e.to < n; });
  if (it == row.end() || it->to != node) return row.end();
  return it;
}

std::size_t IncrementalGraph::add_node() {
  if (!free_.empty()) {
    // Reuse the most recently retired slot, re-entering at the TOP of the
    // order. The isolated node is consistent at any position, but keeping
    // its stale (low) priority would make every future edge from an older
    // node an order violation — a Pearce-Kelly reorder per insertion, with
    // an affected region spanning the whole live graph. At the top, edges
    // from existing nodes are already in order and insertion stays O(1).
    const std::size_t id = free_.back();
    free_.pop_back();
    DUO_ASSERT(out_[id].empty() && in_[id].empty());
    ord_[id] = next_ord_++;
    return id;
  }
  const std::size_t id = out_.size();
  out_.emplace_back();
  in_.emplace_back();
  ord_.push_back(next_ord_++);  // the top of the order: no edges yet
  mark_.push_back(false);
  return id;
}

void IncrementalGraph::reserve(std::size_t nodes) {
  out_.reserve(nodes);
  in_.reserve(nodes);
  ord_.reserve(nodes);
  mark_.reserve(nodes);
}

bool IncrementalGraph::forward_reach(std::size_t from, std::size_t limit,
                                     std::size_t target,
                                     std::vector<std::size_t>& out) {
  std::vector<std::size_t>& stack = stack_;
  stack.clear();
  stack.push_back(from);
  mark_[from] = true;
  out.push_back(from);
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (const HalfEdge& e : out_[u]) {
      const std::size_t v = e.to;
      if (v == target) return false;
      if (mark_[v] || ord_[v] > limit) continue;
      mark_[v] = true;
      out.push_back(v);
      stack.push_back(v);
    }
  }
  return true;
}

void IncrementalGraph::backward_reach(std::size_t from, std::size_t limit,
                                      std::vector<std::size_t>& out) {
  std::vector<std::size_t>& stack = stack_;
  stack.clear();
  stack.push_back(from);
  mark_[from] = true;
  out.push_back(from);
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (const HalfEdge& e : in_[u]) {
      const std::size_t v = e.to;
      if (mark_[v] || ord_[v] < limit) continue;
      mark_[v] = true;
      out.push_back(v);
      stack.push_back(v);
    }
  }
}

bool IncrementalGraph::add_edge(std::size_t a, std::size_t b) {
  DUO_EXPECTS(a < out_.size() && b < out_.size());
  if (a == b) return false;
  if (const auto it = find_in(out_[a], b); it != out_[a].end()) {
    // Edge already present: acyclicity unchanged, just bump the refcount.
    ++it->count;
    const auto rit = find_in(in_[b], a);
    DUO_ASSERT(rit != in_[b].end());
    ++rit->count;
    return true;
  }
  if (ord_[a] > ord_[b]) {
    // Affected region: nodes ordered between b and a. deltaF = nodes
    // reachable from b inside the region; if a is among them the new edge
    // closes a cycle. deltaB = nodes reaching a inside the region. The
    // region is reordered by giving deltaB's nodes the smallest of the
    // combined order slots (in their existing relative order), then
    // deltaF's — which puts a and everything before it ahead of b and
    // everything after it, restoring topological consistency.
    std::vector<std::size_t>& delta_f = delta_f_;
    delta_f.clear();
    const bool acyclic = forward_reach(b, ord_[a], a, delta_f);
    for (const std::size_t v : delta_f) mark_[v] = false;
    if (!acyclic) return false;

    std::vector<std::size_t>& delta_b = delta_b_;
    delta_b.clear();
    backward_reach(a, ord_[b], delta_b);
    for (const std::size_t v : delta_b) mark_[v] = false;

    const auto by_ord = [this](std::size_t x, std::size_t y) {
      return ord_[x] < ord_[y];
    };
    std::sort(delta_f.begin(), delta_f.end(), by_ord);
    std::sort(delta_b.begin(), delta_b.end(), by_ord);

    std::vector<std::size_t>& slots = slots_;
    slots.clear();
    slots.reserve(delta_f.size() + delta_b.size());
    for (const std::size_t v : delta_b) slots.push_back(ord_[v]);
    for (const std::size_t v : delta_f) slots.push_back(ord_[v]);
    std::sort(slots.begin(), slots.end());

    std::size_t next = 0;
    for (const std::size_t v : delta_b) ord_[v] = slots[next++];
    for (const std::size_t v : delta_f) ord_[v] = slots[next++];
  }
  const auto pos = std::lower_bound(
      out_[a].begin(), out_[a].end(), b,
      [](const HalfEdge& e, std::size_t n) { return e.to < n; });
  out_[a].insert(pos, HalfEdge{b, 1});
  const auto rpos = std::lower_bound(
      in_[b].begin(), in_[b].end(), a,
      [](const HalfEdge& e, std::size_t n) { return e.to < n; });
  in_[b].insert(rpos, HalfEdge{a, 1});
  ++num_edges_;
  return true;
}

void IncrementalGraph::remove_edge(std::size_t a, std::size_t b) {
  DUO_EXPECTS(a < out_.size() && b < out_.size());
  const auto it = find_in(out_[a], b);
  DUO_EXPECTS(it != out_[a].end());
  if (--it->count == 0) {
    out_[a].erase(it);
    const auto rit = find_in(in_[b], a);
    DUO_ASSERT(rit != in_[b].end());
    in_[b].erase(rit);
    --num_edges_;
    // The maintained order remains a valid topological order of the
    // smaller graph; nothing to recompute.
  } else {
    const auto rit = find_in(in_[b], a);
    DUO_ASSERT(rit != in_[b].end());
    --rit->count;
  }
}

std::size_t IncrementalGraph::retire_node(std::size_t n) {
  DUO_EXPECTS(n < out_.size());
  std::size_t removed = 0;
  for (const HalfEdge& e : out_[n]) {
    const auto rit = find_in(in_[e.to], n);
    DUO_ASSERT(rit != in_[e.to].end());
    in_[e.to].erase(rit);
    ++removed;
  }
  for (const HalfEdge& e : in_[n]) {
    const auto fit = find_in(out_[e.to], n);
    DUO_ASSERT(fit != out_[e.to].end());
    out_[e.to].erase(fit);
    ++removed;
  }
  num_edges_ -= removed;
  // Release the heap memory too: a reused slot regrows to its working-set
  // degree, and retired slots must not pin peak-degree arrays forever.
  Row().swap(out_[n]);
  Row().swap(in_[n]);
  free_.push_back(n);
  return removed;
}

bool IncrementalGraph::has_edge(std::size_t a, std::size_t b) const {
  DUO_EXPECTS(a < out_.size() && b < out_.size());
  return find_in(out_[a], b) != out_[a].end();
}

bool IncrementalGraph::reaches(std::size_t a, std::size_t b) {
  DUO_EXPECTS(a < out_.size() && b < out_.size());
  if (a == b) return true;
  if (ord_[a] > ord_[b]) return false;  // order contradicts any a -> b path
  std::vector<std::size_t>& visited = delta_f_;
  visited.clear();
  const bool missed = forward_reach(a, ord_[b], b, visited);
  for (const std::size_t v : visited) mark_[v] = false;
  return !missed;
}

std::size_t IncrementalGraph::order_index(std::size_t node) const {
  DUO_EXPECTS(node < ord_.size());
  return ord_[node];
}

}  // namespace duo::util
