/// \file fault_session.hpp
/// \brief Runtime fault state for one simulated broadcast.
///
/// A `FaultSession` is the mutable counterpart of a `FaultPlan`: the
/// simulator applies the plan's timed events to it as they pop out of the
/// event queue, and consults it on every delivery.  Per-delivery asymmetric
/// loss draws come from a *counter-based* splitmix64 stream seeded by the
/// plan (never from the run's shared mt19937), so fault outcomes cannot
/// perturb — or be perturbed by — the medium's jitter/loss draws.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "faults/fault_plan.hpp"
#include "graph/graph.hpp"
#include "runner/seed.hpp"

namespace adhoc::faults {

/// Mutable up/down state plus the deterministic directed-loss stream.
class FaultSession {
  public:
    FaultSession() = default;

    /// Arms the session for a run over an n-node topology.  Everything is
    /// up initially; `plan` must outlive the session.
    void reset(const FaultPlan& plan, std::size_t n);

    /// True once reset() has been called with a non-empty plan.
    [[nodiscard]] bool active() const noexcept { return plan_ != nullptr; }

    /// Applies one timed event (the simulator pops it from the queue).
    void apply(const FaultEvent& event);

    [[nodiscard]] bool node_up(NodeId v) const noexcept { return node_up_[v] != 0; }

    /// True iff the undirected link currently carries packets (both
    /// endpoints up and the link itself not churned down).  One hash
    /// lookup, none while no link is down.
    [[nodiscard]] bool link_up(NodeId a, NodeId b) const noexcept {
        if (!node_up_[a] || !node_up_[b]) return false;
        return down_links_.empty() || !down_slot_.contains(link_key(canonical(Edge{a, b})));
    }

    /// Deterministic Bernoulli draw for one directed delivery attempt
    /// `from -> to`.  Counter-based: the i-th query of a session always
    /// sees the same stream position, independent of any other RNG.
    [[nodiscard]] bool drop_directed(NodeId from, NodeId to);

    /// Nodes currently down, as a 0/1 mask (empty when inactive).
    [[nodiscard]] std::vector<char> down_mask() const;

    /// Undirected links currently churned down, in canonical form.  A set:
    /// each link appears once, in no specified order (removals swap the
    /// last entry into the freed slot).
    [[nodiscard]] const std::vector<Edge>& down_links() const noexcept { return down_links_; }

  private:
    const FaultPlan* plan_ = nullptr;
    std::vector<char> node_up_;
    std::vector<Edge> down_links_;  ///< dense set of down links
    /// link_key -> slot in down_links_.
    std::unordered_map<std::uint64_t, std::uint32_t> down_slot_;
    /// link_key -> index of the link's first plan.asymmetry entry.
    std::unordered_map<std::uint64_t, std::uint32_t> asymmetry_;
    std::uint64_t draw_counter_ = 0;
};

/// The down mask / down links a plan leaves behind once every event has
/// fired — what the topology looks like "at the end of time".  Used by
/// outcome classification without needing the live session.
struct FinalFaultState {
    std::vector<char> node_down;  ///< 1 = down at end of run
    std::vector<Edge> links_down;  ///< canonical, sorted ascending (binary-searchable)
};

[[nodiscard]] FinalFaultState final_fault_state(const FaultPlan& plan, std::size_t n);

}  // namespace adhoc::faults
