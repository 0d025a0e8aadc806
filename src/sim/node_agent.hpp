/// \file node_agent.hpp
/// \brief Shared per-node protocol state for dynamic broadcast agents.
///
/// Every dynamic algorithm in the paper maintains the same two kinds of
/// local state (Section 4.3): long-lived k-hop topology (from periodic
/// "hello" messages — compiled here on a node's first use) and short-lived
/// broadcast state (visited/designated nodes learned by snooping neighbor
/// transmissions and from piggybacked packet history).  `KnowledgeBase`
/// centralizes both so each algorithm only implements its decision rule.
///
/// Storage is structure-of-arrays: the visited/designated masks are flat
/// word-parallel bitsets (one `words_per_node` stride per node — 1 bit per
/// peer instead of the old per-node `std::vector<char>`, 8x smaller with
/// zero per-node heap allocations), and the scalar flags
/// (received/decided/designated_self) are n-bit bitsets.  The SoA layout
/// is what lets a 10^5-node run fit in cache-friendly flat memory; call
/// sites keep the ergonomic `at(v)` style through a cheap `KnowledgeRef`
/// proxy.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/priority.hpp"
#include "core/view.hpp"
#include "graph/khop.hpp"
#include "sim/packet.hpp"

namespace adhoc {

/// Word-parallel bitset helpers over caller-provided uint64 buffers (the
/// KnowledgeBase's flat masks).
namespace bits {

inline constexpr std::size_t kWordBits = 64;

[[nodiscard]] inline std::size_t word_count(std::size_t nbits) noexcept {
    return (nbits + kWordBits - 1) / kWordBits;
}

inline void set(std::uint64_t* w, std::size_t i) noexcept {
    w[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

[[nodiscard]] inline bool test(const std::uint64_t* w, std::size_t i) noexcept {
    return (w[i / kWordBits] >> (i % kWordBits)) & 1;
}

}  // namespace bits

class KnowledgeBase;

/// Lightweight handle on one node's slice of the SoA store.  Copyable,
/// borrows the KnowledgeBase — do not outlive it.
template <typename KB>
class BasicKnowledgeRef {
  public:
    BasicKnowledgeRef(KB* kb, NodeId v) noexcept : kb_(kb), v_(v) {}

    /// Mutable handles convert to const handles.
    operator BasicKnowledgeRef<const KB>() const noexcept
        requires(!std::is_const_v<KB>)
    {
        return {kb_, v_};
    }

    [[nodiscard]] const LocalTopology& topology() const { return kb_->topology(v_); }

    [[nodiscard]] bool received() const { return kb_->received(v_); }
    [[nodiscard]] bool decided() const { return kb_->decided(v_); }
    [[nodiscard]] bool designated_self() const { return kb_->designated_self(v_); }
    [[nodiscard]] NodeId first_sender() const { return kb_->first_sender(v_); }
    [[nodiscard]] const BroadcastState& first_state() const {
        return kb_->first_state(v_);
    }
    [[nodiscard]] std::size_t receipts() const { return kb_->receipts(v_); }
    [[nodiscard]] bool visited(NodeId x) const { return kb_->visited(v_, x); }
    [[nodiscard]] bool designated(NodeId x) const { return kb_->designated(v_, x); }

    void mark_received() const
        requires(!std::is_const_v<KB>)
    {
        kb_->mark_received(v_);
    }
    void mark_decided() const
        requires(!std::is_const_v<KB>)
    {
        kb_->mark_decided(v_);
    }
    void mark_designated_self() const
        requires(!std::is_const_v<KB>)
    {
        kb_->mark_designated_self(v_);
    }
    void mark_visited(NodeId x) const
        requires(!std::is_const_v<KB>)
    {
        kb_->mark_visited(v_, x);
    }
    void mark_designated(NodeId x) const
        requires(!std::is_const_v<KB>)
    {
        kb_->mark_designated(v_, x);
    }

  private:
    KB* kb_;
    NodeId v_;
};

using KnowledgeRef = BasicKnowledgeRef<KnowledgeBase>;
using ConstKnowledgeRef = BasicKnowledgeRef<const KnowledgeBase>;

/// Per-run knowledge store for all nodes (structure-of-arrays).
class KnowledgeBase {
  public:
    /// Views G_k(v) of `g` (k == 0 -> global information).  A node's view
    /// is compiled on its first `topology(v)` or `view_of(v)`, into the
    /// node's slot, where it stays; an agent that never reads a view pays
    /// for none.  `g` must outlive the KnowledgeBase.
    KnowledgeBase(const Graph& g, std::size_t k);

    /// Uses externally assembled views (e.g. from a simulated hello
    /// protocol, possibly lossy).  Throws std::invalid_argument, naming
    /// the offending value, unless there is one view per node, views[v]
    /// is centered at v and contains v, its members are ids of `g` in
    /// strictly ascending order, and its CSR has members+1 offsets.
    KnowledgeBase(const Graph& g, std::vector<LocalTopology> views);

    [[nodiscard]] KnowledgeRef at(NodeId v) { return {this, v}; }
    [[nodiscard]] ConstKnowledgeRef at(NodeId v) const { return {this, v}; }
    [[nodiscard]] std::size_t hops() const noexcept { return k_; }
    [[nodiscard]] std::size_t node_count() const noexcept { return topologies_.size(); }

    // ---- direct SoA accessors (the proxy forwards here) --------------
    /// The node's view (compiled on first use; the reference stays valid
    /// for the KnowledgeBase's lifetime).  Not thread-safe: one run, one
    /// thread.
    [[nodiscard]] const LocalTopology& topology(NodeId v) const {
        const LocalTopology& t = topologies_[v];
        return t.members.empty() ? compile(v) : t;  // a compiled view holds its center
    }

    [[nodiscard]] bool received(NodeId v) const { return bits::test(received_.data(), v); }
    [[nodiscard]] bool decided(NodeId v) const { return bits::test(decided_.data(), v); }
    [[nodiscard]] bool designated_self(NodeId v) const {
        return bits::test(designated_self_.data(), v);
    }
    [[nodiscard]] NodeId first_sender(NodeId v) const { return first_sender_[v]; }
    [[nodiscard]] const BroadcastState& first_state(NodeId v) const {
        return first_state_[v];
    }
    [[nodiscard]] std::size_t receipts(NodeId v) const { return receipts_[v]; }

    [[nodiscard]] bool visited(NodeId v, NodeId x) const {
        return bits::test(visited_row(v), x);
    }
    [[nodiscard]] bool designated(NodeId v, NodeId x) const {
        return bits::test(designated_row(v), x);
    }

    void mark_received(NodeId v) { bits::set(received_.data(), v); }
    void mark_decided(NodeId v) { bits::set(decided_.data(), v); }
    void mark_designated_self(NodeId v) { bits::set(designated_self_.data(), v); }
    void mark_visited(NodeId v, NodeId x) { bits::set(visited_row(v), x); }
    void mark_designated(NodeId v, NodeId x) { bits::set(designated_row(v), x); }

    /// Bulk-loads a full visited/designated mask for one node (benchmark
    /// and test fixture hook; the protocol path uses observe()).
    void load_visited(NodeId v, const std::vector<char>& mask);
    void load_designated(NodeId v, const std::vector<char>& mask);

    /// Folds one overheard transmission into `observer`'s knowledge:
    ///  - the sender is visited (snooping, Section 4.3);
    ///  - every history node is visited (piggybacking);
    ///  - every node in a piggybacked D(v_i) is designated;
    ///  - if the *sender* designated the observer, `designated_self` is set.
    /// On the first receipt, also latches `first_sender`/`first_state`.
    /// Returns true iff this was the first receipt.
    bool observe(NodeId observer, const Transmission& tx);

    /// The observer's current dynamic view (topology + broadcast state).
    /// The returned view borrows the cached topology and a status buffer
    /// shared across nodes — no allocation or copying per decision — so it
    /// is invalidated by the next `view_of(...)` call on *any* node and
    /// must not outlive the KnowledgeBase.  (Decision code evaluates one
    /// borrowed view at a time, which is exactly this contract.)
    [[nodiscard]] View view_of(NodeId v, const PriorityKeys& keys) const;

  private:
    void init_state(std::size_t n);
    const LocalTopology& compile(NodeId v) const;

    [[nodiscard]] std::uint64_t* visited_row(NodeId v) {
        return visited_bits_.data() + static_cast<std::size_t>(v) * words_per_node_;
    }
    [[nodiscard]] const std::uint64_t* visited_row(NodeId v) const {
        return visited_bits_.data() + static_cast<std::size_t>(v) * words_per_node_;
    }
    [[nodiscard]] std::uint64_t* designated_row(NodeId v) {
        return designated_bits_.data() + static_cast<std::size_t>(v) * words_per_node_;
    }
    [[nodiscard]] const std::uint64_t* designated_row(NodeId v) const {
        return designated_bits_.data() + static_cast<std::size_t>(v) * words_per_node_;
    }

    const Graph* graph_;
    /// One slot per node; an empty slot is not compiled yet.
    mutable std::vector<LocalTopology> topologies_;
    std::size_t k_;
    std::size_t words_per_node_ = 0;

    // Flat per-node masks, `words_per_node_` words per node.
    std::vector<std::uint64_t> visited_bits_;
    std::vector<std::uint64_t> designated_bits_;

    // One bit per node.
    std::vector<std::uint64_t> received_;
    std::vector<std::uint64_t> decided_;
    std::vector<std::uint64_t> designated_self_;

    std::vector<NodeId> first_sender_;
    std::vector<BroadcastState> first_state_;
    std::vector<std::uint32_t> receipts_;

    /// One status buffer shared by all nodes' borrowed views.  Member
    /// slots of the previously served view are reset to kInvisible before
    /// the next view is written, so non-member slots always read
    /// kInvisible — the invariant the coverage kernels rely on.
    mutable std::vector<NodeStatus> status_scratch_;
    mutable NodeId last_view_node_ = kInvalidNode;
};

}  // namespace adhoc
