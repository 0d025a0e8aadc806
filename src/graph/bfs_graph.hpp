/// \file bfs_graph.hpp
/// \brief A graph renumbered in BFS discovery order, as flat CSR arrays.
///
/// Generated placements number nodes at random, so the adjacency rows a
/// k-hop ball or a broadcast wave touches lie scattered across the whole
/// graph.  `BfsGraph` copies a `Graph` once, numbering its nodes in BFS
/// discovery order (every component, seeds in ascending original id), so
/// nodes that are close in the graph get close internal ids and rows: a
/// ball of a few dozen members reads a few contiguous stretches of memory.
/// Each row keeps the order of the original sorted row (ascending
/// *original* ids), so iterating a row visits neighbours in the order the
/// original graph does.  The copy holds offsets, one edge array and the
/// internal -> original id map; nothing refers back to the source graph.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "graph/graph.hpp"

namespace adhoc {

class BfsGraph {
  public:
    BfsGraph() = default;

    /// Numbers `g`'s nodes in BFS discovery order and writes the CSR in one
    /// pass.  Requires 2|E| < 2^32 (32-bit offsets); callers check it.
    explicit BfsGraph(const Graph& g);

    [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
    [[nodiscard]] bool contains(NodeId v) const noexcept { return v < n_; }

    /// Internal ids of v's neighbours, in ascending order of their
    /// original ids.
    [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
        return {edges_.get() + offsets_[v], edges_.get() + offsets_[v + 1]};
    }
    [[nodiscard]] std::size_t degree(NodeId v) const noexcept {
        return offsets_[v + 1] - offsets_[v];
    }

    /// The original id of internal node `v`.
    [[nodiscard]] NodeId original(NodeId v) const noexcept { return original_[v]; }
    /// The internal id of original node `v` (< node_count()): a linear
    /// search, for the few ids that cross the boundary per run.
    [[nodiscard]] NodeId internal(NodeId v) const noexcept;

    /// Bytes of the offsets, edges and id map.
    [[nodiscard]] std::size_t bytes() const noexcept;

  private:
    std::size_t n_ = 0;
    std::unique_ptr<std::uint32_t[]> offsets_;
    std::unique_ptr<NodeId[]> edges_;
    std::unique_ptr<NodeId[]> original_;
};

}  // namespace adhoc
