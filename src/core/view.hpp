/// \file view.hpp
/// \brief Views: snapshots of topology + broadcast state (paper Section 2).
///
/// A view is the information a status decision is made against:
/// View(t) = (G(t), Pr(V, t)).  A *local* view at node v restricts the
/// topology to G_k(v) (Definition 2) and clamps priorities of invisible
/// nodes to the bottom of the order, so local views are always <= the
/// global view — the property Theorem 2's correctness argument rests on.
///
/// Views come in two flavors with identical semantics; both hold the
/// topology as a `LocalTopology` (members plus a local-id CSR):
///  - *owning*: the view carries its own LocalTopology (views built from
///    scratch, e.g. `make_static_view`);
///  - *borrowing*: the view references a long-lived LocalTopology and a
///    status buffer owned by the caller — the hot path for simulation
///    agents, which would otherwise copy the topology on every decision.
///    The referenced objects must outlive the view.
/// Statuses stay in the global id space (size n); node ids passed to a
/// View are global.

#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "core/priority.hpp"
#include "graph/graph.hpp"
#include "graph/khop.hpp"

namespace adhoc {

/// An immutable snapshot a coverage decision is evaluated against.
class View {
  public:
    /// Builds an owning view.
    /// \param topo    the visible topology
    /// \param status  per-node status over all topo.id_space ids; ignored
    ///                for invisible nodes
    /// \param keys    static priority keys (shared, must outlive the view)
    View(LocalTopology topo, std::vector<NodeStatus> status, const PriorityKeys* keys)
        : owned_(std::move(topo)), status_storage_(std::move(status)), keys_(keys) {
        assert(keys_ != nullptr);
        assert(status_storage_.size() == owned_.id_space);
    }

    /// Borrowing view: topology and status both live outside (the
    /// KnowledgeBase fast path — zero copies per decision).  Both must
    /// outlive the view.
    View(const LocalTopology* topo, const std::vector<NodeStatus>* status,
         const PriorityKeys* keys)
        : borrowed_(topo), status_ptr_(status), keys_(keys) {
        assert(borrowed_ != nullptr && status != nullptr && keys_ != nullptr);
        assert(status->size() == borrowed_->id_space);
    }

    /// The visible topology, owned or borrowed.
    [[nodiscard]] const LocalTopology& local() const noexcept {
        return borrowed_ != nullptr ? *borrowed_ : owned_;
    }
    [[nodiscard]] std::size_t node_count() const noexcept { return local().id_space; }
    [[nodiscard]] bool visible(NodeId v) const noexcept {
        return local().local_of(v) != kNoLocal;
    }

    /// True iff (u, w) is a visible link.
    [[nodiscard]] bool has_edge(NodeId u, NodeId w) const noexcept {
        const std::uint32_t a = local().local_of(u);
        const std::uint32_t b = local().local_of(w);
        return a != kNoLocal && b != kNoLocal && local().has_edge(a, b);
    }

    /// Visible neighbors of `v`, ascending (empty when `v` is invisible).
    [[nodiscard]] std::vector<NodeId> neighbors(NodeId v) const {
        std::vector<NodeId> out;
        if (const std::uint32_t l = local().local_of(v); l != kNoLocal) {
            for (const std::uint32_t y : local().row(l)) out.push_back(local().members[y]);
        }
        return out;
    }

    /// Status as captured by this view (kInvisible for invisible nodes).
    [[nodiscard]] NodeStatus status(NodeId v) const noexcept {
        return visible(v) ? member_status(v) : NodeStatus::kInvisible;
    }

    /// Status of a member, read without the membership test.
    [[nodiscard]] NodeStatus member_status(NodeId v) const noexcept {
        return status_ptr_ != nullptr ? (*status_ptr_)[v] : status_storage_[v];
    }

    /// Full priority Pr(v) under this view; invisible nodes get the bottom
    /// status so they never appear on replacement paths.
    [[nodiscard]] Priority priority(NodeId v) const {
        return keys_->evaluate(v, status(v));
    }

    [[nodiscard]] const PriorityKeys& keys() const noexcept { return *keys_; }

  private:
    LocalTopology owned_;                                 ///< used when not borrowing
    const LocalTopology* borrowed_ = nullptr;             ///< borrowed topology
    std::vector<NodeStatus> status_storage_;              ///< used when not borrowing
    const std::vector<NodeStatus>* status_ptr_ = nullptr;  ///< borrowed status
    const PriorityKeys* keys_;
};

/// Builds the *static* local view at `center` with k-hop information
/// (k == 0 means global): no broadcast state, everything visible is
/// kUnvisited.  This is the view static algorithms (Section 6.1) decide on.
[[nodiscard]] View make_static_view(const Graph& g, NodeId center, std::size_t k,
                                    const PriorityKeys& keys);

/// Builds a *dynamic* local view at `center`: k-hop topology plus the
/// caller's knowledge of visited/designated nodes (global id space; entries
/// for invisible nodes are ignored per the local-view clamping rule).
[[nodiscard]] View make_dynamic_view(const Graph& g, NodeId center, std::size_t k,
                                     const PriorityKeys& keys, const std::vector<char>& visited,
                                     const std::vector<char>& designated);

}  // namespace adhoc
