/// \file compact_view.hpp
/// \brief A View's per-decision kernel input plus the per-thread scratch arena.
///
/// The decision kernels (coverage condition, LENWB connectivity, MAX_MIN)
/// are invoked once per node per broadcast, and a naive implementation pays
/// O(n) per call — full-size masks, distance arrays and component labels —
/// even though the information they consume is bounded by the k-hop
/// neighborhood.  Every View already holds its topology as a LocalTopology
/// over *local* ids 0..m-1 (m = number of visible nodes), so
/// `LocalViewScratch::compile` only aliases that CSR and adds what changes
/// between decisions:
///
///  - the per-node `Priority`, evaluated exactly once per compilation
///    (instead of once per `view.priority(x)` call inside the kernels),
///  - the per-node `NodeStatus`.
///
/// Local ids are assigned in ascending global-id order, so iterating
/// locals 0..m-1 visits the same node sequence the naive kernels produce
/// by scanning globals 0..n-1 and skipping invisible nodes — the property
/// that makes the optimized kernels return the same verdicts and witnesses
/// as the `reference::` implementations (the full coverage condition on a
/// view of at most 64 members computes no component labels at all).
///
/// The arena is thread-local and reused across calls: every buffer only
/// ever grows, so steady-state kernel evaluation performs no heap
/// allocation.  Component-membership sets are word-parallel bitsets
/// (`bits::` helpers) instead of sorted vectors.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/priority.hpp"
#include "core/view.hpp"

namespace adhoc {

/// Word-parallel bitset helpers over caller-provided uint64 buffers.
namespace bits {

inline constexpr std::size_t kWordBits = 64;

[[nodiscard]] inline std::size_t word_count(std::size_t nbits) noexcept {
    return (nbits + kWordBits - 1) / kWordBits;
}

/// Ensures `w` holds >= word_count(nbits) words, all zero.
inline void reset(std::vector<std::uint64_t>& w, std::size_t nbits) {
    const std::size_t words = word_count(nbits);
    if (w.size() < words) w.resize(words);
    std::fill(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(words), 0);
}

inline void set(std::uint64_t* w, std::size_t i) noexcept {
    w[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

[[nodiscard]] inline bool test(const std::uint64_t* w, std::size_t i) noexcept {
    return (w[i / kWordBits] >> (i % kWordBits)) & 1;
}

inline void clear(std::uint64_t* w, std::size_t i) noexcept {
    w[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

[[nodiscard]] inline bool any(const std::uint64_t* w, std::size_t words) noexcept {
    for (std::size_t i = 0; i < words; ++i) {
        if (w[i] != 0) return true;
    }
    return false;
}

/// True iff a AND b is nonzero — the word-parallel replacement for the
/// sorted-vector intersection test of the naive kernels.
[[nodiscard]] inline bool intersects(const std::uint64_t* a, const std::uint64_t* b,
                                     std::size_t words) noexcept {
    for (std::size_t i = 0; i < words; ++i) {
        if ((a[i] & b[i]) != 0) return true;
    }
    return false;
}

inline void and_inplace(std::uint64_t* a, const std::uint64_t* b, std::size_t words) noexcept {
    for (std::size_t i = 0; i < words; ++i) a[i] &= b[i];
}

}  // namespace bits

/// A View compiled to dense local ids (see file comment).
///
/// The topology is the View's LocalTopology (or, in the ScaleEngine, a
/// `compile_ball` output), borrowed.  Status and priorities are
/// re-evaluated per compilation — they change between decisions.
struct CompactLocalView {
    const LocalTopology* topo = nullptr;  ///< members + CSR, borrowed
    std::uint32_t size = 0;               ///< m = number of visible nodes
    std::span<const NodeId> members;      ///< local -> global id, ascending
    std::vector<Priority> priority;       ///< Pr(x) under the view, cached
    std::vector<NodeStatus> status;       ///< view status per local node

    /// Borrows `t` and sizes the per-node arrays for it.
    void bind(const LocalTopology& t) {
        topo = &t;
        size = static_cast<std::uint32_t>(t.size());
        members = t.members;
        priority.resize(size);
        status.resize(size);
    }

    /// Neighbor row of local node `x`.
    [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t x) const noexcept {
        return topo->row(x);
    }
    [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t w) const noexcept {
        return topo->has_edge(u, w);
    }
};

/// Thread-local reusable workspace for the decision kernels.
class LocalViewScratch {
  public:
    /// The calling thread's arena (one per worker thread, reused forever).
    [[nodiscard]] static LocalViewScratch& tls();

    /// Compiles `view` into `compact`: O(|members|), aliasing the view's
    /// CSR.
    void compile(const View& view);

    CompactLocalView compact;

    // Reusable kernel buffers (sized to the compiled view on demand).
    std::vector<std::uint32_t> dist;    ///< BFS depth / bounded-reach depth
    std::vector<std::uint32_t> labels;  ///< component labels
    std::vector<std::uint32_t> queue;   ///< BFS queue (head index, no pops)
    std::vector<std::uint32_t> order;   ///< sorted candidate list (maxmin)
    std::vector<std::uint32_t> parent;  ///< union-find parents (maxmin)
    std::vector<char> active;           ///< activation flags (maxmin)
    std::vector<std::uint64_t> in_h;    ///< higher-priority membership bitset
    std::vector<std::uint64_t> mark;    ///< generic label/visited bitset
    std::vector<std::uint64_t> acc;     ///< running intersection accumulator
    std::vector<std::uint64_t> row_bits; ///< one node's neighbor row, as a bitset
    /// Per-neighbor label sets, flat: neighbor i's set is the `words`-word
    /// run starting at i * words.
    std::vector<std::uint64_t> comp_bits;
};

}  // namespace adhoc
