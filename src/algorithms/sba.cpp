#include "algorithms/sba.hpp"

#include <algorithm>
#include <sstream>

#include "graph/traversal.hpp"
#include "sim/node_agent.hpp"

namespace adhoc {

namespace {

class SbaAgent final : public Agent {
  public:
    SbaAgent(const Graph& g, SbaConfig config)
        : graph_(&g), config_(config), knowledge_(g, config.hops) {
        max_neighbor_degree_.assign(g.node_count(), 0);
        for (NodeId v = 0; v < g.node_count(); ++v) {
            for (NodeId u : g.neighbors(v)) {
                max_neighbor_degree_[v] = std::max(max_neighbor_degree_[v], g.degree(u));
            }
        }
    }

    void start(Simulator& sim, NodeId source, Rng& /*rng*/) override {
        knowledge_.mark_received(source);
        sim.transmit(source, chain_state({}, source, {}, config_.history));
    }

    void on_receive(Simulator& sim, NodeId node, const Transmission& tx, Rng& rng) override {
        const bool first = knowledge_.observe(node, tx);
        if (!first || sim.has_transmitted(node)) return;
        // Backoff scaled by (1 + max neighbor degree)/(1 + own degree):
        // well-covered, low-degree nodes wait longer.
        const double scale = (1.0 + static_cast<double>(max_neighbor_degree_[node])) /
                             (1.0 + static_cast<double>(graph_->degree(node)));
        sim.schedule_timer(node, rng.uniform(0.0, config_.backoff_window * scale));
    }

    void on_timer(Simulator& sim, NodeId node, std::size_t /*timer_kind*/,
                  Rng& /*rng*/) override {
        if (sim.has_transmitted(node)) return;
        if (uncovered_neighbor_exists(node)) {
            sim.transmit(node, chain_state(knowledge_.first_state(node), node, {},
                                           config_.history));
        } else {
            sim.note_prune(node);
        }
    }

  private:
    /// True iff some neighbor of `node` is not dominated by a known visited
    /// node whose neighborhood is fully visible in the local view.
    bool uncovered_neighbor_exists(NodeId node) const {
        const ConstKnowledgeRef kn = knowledge_.at(node);
        const LocalTopology& local = kn.topology();
        // Distances within the local view tell which visited nodes have a
        // fully known neighborhood (dist <= k-1).
        std::vector<std::uint32_t> dist(local.size(), kNoLocal);
        std::vector<std::uint32_t> queue{local.local_of(node)};
        dist[queue[0]] = 0;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (const std::uint32_t y : local.row(queue[head])) {
                if (dist[y] != kNoLocal) continue;
                dist[y] = dist[queue[head]] + 1;
                queue.push_back(y);
            }
        }

        const std::size_t radius =
            knowledge_.hops() == 0 ? kUnreachable - 1 : knowledge_.hops() - 1;
        std::vector<char> covered(local.size(), 0);
        for (std::uint32_t x = 0; x < local.size(); ++x) {
            if (!kn.visited(local.members[x])) continue;
            if (dist[x] == kNoLocal || dist[x] > radius) continue;
            covered[x] = 1;
            for (const std::uint32_t y : local.row(x)) covered[y] = 1;
        }
        for (NodeId y : graph_->neighbors(node)) {
            const std::uint32_t l = local.local_of(y);
            if (l == kNoLocal || !covered[l]) return true;
        }
        return false;
    }

    const Graph* graph_;
    SbaConfig config_;
    KnowledgeBase knowledge_;
    std::vector<std::size_t> max_neighbor_degree_;
};

}  // namespace

std::string SbaAlgorithm::name() const {
    std::ostringstream out;
    out << "SBA (k=" << config_.hops << ")";
    return out.str();
}

std::unique_ptr<Agent> SbaAlgorithm::make_agent(const Graph& g) const {
    return std::make_unique<SbaAgent>(g, config_);
}

}  // namespace adhoc
