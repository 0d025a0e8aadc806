/// \file hello.hpp
/// \brief The periodic "hello" protocol that builds k-hop local views.
///
/// Everywhere else in the library, G_k(v) is extracted analytically from
/// the global graph (Definition 2).  This module *earns* those views the
/// way a deployment would: k synchronous rounds in which every node
/// broadcasts one HELLO carrying its accumulated adjacency knowledge, and
/// receivers merge.  Inductively, after round r a node knows exactly
/// E ∩ (N_{r-1}(v) × N_r(v)) — the lossless run reproduces Definition 2
/// bit-for-bit (validated by tests), and lossy runs produce strict
/// sub-views, which Theorem 2 tolerates by design.
///
/// The module also meters the control overhead (messages and bytes per
/// round), giving the Section 4.3/4.4 cost discussion measured numbers.

#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_plan.hpp"
#include "graph/graph.hpp"
#include "graph/khop.hpp"
#include "stats/rng.hpp"

namespace adhoc {

struct HelloConfig {
    std::size_t rounds = 2;          ///< k: rounds to run
    double loss_probability = 0.0;   ///< independent per-link HELLO loss

    /// Exempt round 1 (neighbor discovery) from loss.  Theorem 2 tolerates
    /// arbitrary *edge* under-knowledge but requires every node to know its
    /// complete 1-hop neighbor set — a node unaware of a neighbor may prune
    /// while that neighbor depends on it (tests demonstrate the coverage
    /// hole).  Periodic hellos make neighbor discovery converge in
    /// practice; this flag models that.  Disable only to study the hole.
    bool reliable_neighbor_discovery = true;

    /// Neighbor liveness (Section 6 mobility discussion): a direct-neighbor
    /// entry ages out of a node's view after this many *consecutive* missed
    /// HELLO rounds, marking the view stale.  0 disables aging (the
    /// historical behavior).  Aging only removes links a node had learned —
    /// never knowledge relayed about remote edges.
    std::size_t liveness_timeout = 0;
};

/// Synchronous hello-exchange simulation over one topology.
class HelloProtocol {
  public:
    /// `faults` (optional, must outlive the protocol) contributes HELLO
    /// drop bursts: every HELLO `burst.node` sends during its burst rounds
    /// is lost at all receivers, which is what drives liveness aging.
    explicit HelloProtocol(const Graph& g, HelloConfig config = {},
                           const faults::FaultPlan* faults = nullptr);
    // The graph is held by reference; a temporary would dangle before run().
    explicit HelloProtocol(Graph&&, HelloConfig = {},
                           const faults::FaultPlan* = nullptr) = delete;

    /// Runs the configured number of rounds (idempotent per instance:
    /// call once).
    void run(Rng& rng);

    /// The view node `v` assembled: the nodes it heard of and the links it
    /// knows among them (same form as `local_topology`).
    [[nodiscard]] LocalTopology view_of(NodeId v) const;

    /// Total HELLO messages sent (n per round).
    [[nodiscard]] std::size_t total_messages() const noexcept { return messages_; }

    /// Total payload bytes across all HELLOs (4 bytes per node id: each
    /// message carries the sender id plus its known adjacency lists).
    [[nodiscard]] std::size_t total_bytes() const noexcept { return bytes_; }

    /// Rounds actually executed.
    [[nodiscard]] std::size_t rounds_run() const noexcept { return rounds_run_; }

    /// Direct-neighbor entries removed by liveness aging (across all nodes).
    [[nodiscard]] std::size_t aged_out() const noexcept { return aged_out_; }

    /// HELLO copies destroyed by fault-plan bursts.
    [[nodiscard]] std::size_t burst_drops() const noexcept { return burst_drops_; }

    /// True iff aging removed at least one entry from `v`'s view.
    [[nodiscard]] bool view_stale(NodeId v) const noexcept { return stale_[v] != 0; }

  private:
    [[nodiscard]] bool burst_active(NodeId sender, std::size_t round) const;

    const Graph* graph_;
    HelloConfig config_;
    const faults::FaultPlan* faults_;
    /// known_[v] = adjacency knowledge of node v (graph in original id
    /// space; edge present iff v has learned it).
    std::vector<Graph> known_;
    std::vector<std::vector<char>> heard_of_;  ///< node visibility per node
    /// last_heard_[v][u] = last round v got a HELLO directly from graph
    /// neighbor u (SIZE_MAX = never).  Drives liveness aging.
    std::vector<std::vector<std::size_t>> last_heard_;
    std::vector<char> stale_;  ///< aging removed something from this view
    std::size_t messages_ = 0;
    std::size_t bytes_ = 0;
    std::size_t rounds_run_ = 0;
    std::size_t aged_out_ = 0;
    std::size_t burst_drops_ = 0;
};

/// Convenience: lossless hello-built views for every node (k rounds).
[[nodiscard]] std::vector<LocalTopology> hello_views(const Graph& g, std::size_t k, Rng& rng);

}  // namespace adhoc
