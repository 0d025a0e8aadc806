/// \file scale_reference.hpp
/// \brief Shared inputs of the scale-engine differential tests: the
/// Simulator twin of `ScalePolicy::kSelfPrune`, and a graph whose BFS
/// numbering (the engine's internal ids) crosses several components.

#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "graph/unit_disk.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace adhoc {

/// Sim-side twin of ScalePolicy::kSelfPrune: on first receipt, forward iff
/// N(v) is not covered by N(u) u {u}.
class SelfPruneAgent : public Agent {
  public:
    explicit SelfPruneAgent(const Graph& g) : g_(&g), seen_(g.node_count(), 0) {}

    void start(Simulator& sim, NodeId source, Rng& /*rng*/) override {
        seen_[source] = 1;
        sim.transmit(source, chain_state(BroadcastState{}, source, {}, 1));
    }

    void on_receive(Simulator& sim, NodeId node, const Transmission& tx,
                    Rng& /*rng*/) override {
        if (seen_[node]) return;
        seen_[node] = 1;
        if (!covered(node, tx.sender)) {
            sim.transmit(node, chain_state(tx.state, node, {}, 1));
        }
    }

  private:
    [[nodiscard]] bool covered(NodeId v, NodeId u) const {
        const auto nu = g_->neighbors(u);
        auto it = nu.begin();
        for (NodeId x : g_->neighbors(v)) {
            if (x == u) continue;
            while (it != nu.end() && *it < x) ++it;
            if (it == nu.end() || *it != x) return false;
        }
        return true;
    }

    const Graph* g_;
    std::vector<char> seen_;
};

class SelfPruneAlgorithm : public BroadcastAlgorithm {
  public:
    [[nodiscard]] std::string name() const override { return "SelfPrune"; }

  protected:
    [[nodiscard]] std::unique_ptr<Agent> make_agent(const Graph& g) const override {
        return std::make_unique<SelfPruneAgent>(g);
    }
};

/// Unit-disk components of 40, 60 and 90 nodes, a 12-node path and six
/// isolated nodes on one id space, ids shuffled across all of them.  Every
/// component but the 90-node one holds one of the ids 0..8, and the
/// 90-node one holds none of them, so the engine, which numbers
/// components in BFS order from seeds in ascending id, numbers it last,
/// after every other component's nodes.
struct ScatteredComponents {
    Graph graph;
    std::vector<NodeId> last;  ///< the nodes of the component numbered last
};

inline ScatteredComponents scattered_components(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Graph> parts;
    for (const std::size_t size : {40, 60}) {
        UnitDiskParams params;
        params.node_count = size;
        params.average_degree = 6.0;
        parts.push_back(generate_network_checked(params, rng).graph);
    }
    parts.push_back(path_graph(12));
    for (int i = 0; i < 6; ++i) parts.emplace_back(1);
    UnitDiskParams params;
    params.node_count = 90;
    params.average_degree = 7.0;
    parts.push_back(generate_network_checked(params, rng).graph);  // numbered last

    std::size_t n = 0;
    for (const Graph& p : parts) n += p.node_count();
    const std::size_t low = parts.size() - 1;  // ids 0..low-1 seed the others
    std::vector<NodeId> pool;
    for (NodeId id = static_cast<NodeId>(low); id < n; ++id) pool.push_back(id);
    for (std::size_t i = pool.size(); i > 1; --i) std::swap(pool[i - 1], pool[rng.index(i)]);

    ScatteredComponents out{Graph(n), {}};
    std::size_t next = 0;
    for (std::size_t c = 0; c < parts.size(); ++c) {
        const Graph& p = parts[c];
        std::vector<NodeId> id(p.node_count());
        for (std::size_t v = 0; v < id.size(); ++v) {
            id[v] = c < low && v == id.size() / 2 ? static_cast<NodeId>(c) : pool[next++];
        }
        for (NodeId v = 0; v < p.node_count(); ++v) {
            for (const NodeId w : p.neighbors(v)) {
                if (v < w) out.graph.add_edge(id[v], id[w]);
            }
        }
        if (c == low) out.last = id;
    }
    return out;
}

}  // namespace adhoc
