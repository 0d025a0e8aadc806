#include "algorithms/dominant_pruning.hpp"

#include <algorithm>

#include "core/designation.hpp"
#include "graph/khop.hpp"

namespace adhoc {

std::string to_string(DominantPruningVariant variant) {
    switch (variant) {
        case DominantPruningVariant::kDp: return "DP";
        case DominantPruningVariant::kTdp: return "TDP";
        case DominantPruningVariant::kPdp: return "PDP";
        case DominantPruningVariant::kAhbp: return "AHBP";
    }
    return "?";
}

namespace {

class DominantPruningAgent final : public Agent {
  public:
    DominantPruningAgent(const Graph& g, DominantPruningVariant variant)
        : graph_(&g), variant_(variant) {}

    void start(Simulator& sim, NodeId source, Rng& /*rng*/) override {
        forward(sim, source, kInvalidNode, BroadcastState{});
    }

    void on_receive(Simulator& sim, NodeId node, const Transmission& tx, Rng& /*rng*/) override {
        if (sim.has_transmitted(node)) return;
        // The sender's record is the last history entry; check whether it
        // designated us.  Undesignated nodes never forward.
        const auto& hist = tx.state.history;
        if (hist.empty() || hist.back().node != tx.sender) return;
        const auto& d = hist.back().designated;
        if (std::find(d.begin(), d.end(), node) == d.end()) {
            sim.note_prune(node);
            return;
        }
        forward(sim, node, tx.sender, tx.state);
    }

  private:
    void forward(Simulator& sim, NodeId v, NodeId u, const BroadcastState& received) {
        const Graph& g = *graph_;

        // Uncovered 2-hop targets Y: N(N(v)) − N[v], the nodes at distance
        // exactly 2.  `in_y_` is all zero between forwards; the nodes it
        // marks are listed in `targets`, which also resets it.
        if (in_y_.size() != g.node_count()) in_y_.assign(g.node_count(), 0);
        std::vector<NodeId> targets;
        for (NodeId w : g.neighbors(v)) {
            for (NodeId y : g.neighbors(w)) {
                if (!in_y_[y]) {
                    in_y_[y] = 1;
                    targets.push_back(y);
                }
            }
        }
        in_y_[v] = 0;
        for (NodeId w : g.neighbors(v)) in_y_[w] = 0;
        if (u != kInvalidNode) {
            in_y_[u] = 0;
            for (NodeId y : g.neighbors(u)) in_y_[y] = 0;  // DP: minus N(u)
            switch (variant_) {
                case DominantPruningVariant::kDp:
                    break;
                case DominantPruningVariant::kPdp:
                    // Minus N(w) for every common neighbor w of u and v.
                    for (NodeId w : g.neighbors(u)) {
                        if (!g.has_edge(w, v)) continue;
                        for (NodeId y : g.neighbors(w)) in_y_[y] = 0;
                    }
                    break;
                case DominantPruningVariant::kTdp:
                    // Minus the piggybacked N2(u).
                    for (NodeId y : received.sender_two_hop) in_y_[y] = 0;
                    break;
                case DominantPruningVariant::kAhbp:
                    // Minus N[d] for the sender's other gateways: they
                    // will cover their own neighborhoods.
                    if (!received.history.empty() && received.history.back().node == u) {
                        for (NodeId d : received.history.back().designated) {
                            if (d == v) continue;
                            in_y_[d] = 0;
                            for (NodeId y : g.neighbors(d)) in_y_[y] = 0;
                        }
                    }
                    break;
            }
        }
        std::erase_if(targets, [this](NodeId y) {  // greedy_cover reads a set
            const bool keep = in_y_[y] != 0;
            in_y_[y] = 0;
            return !keep;
        });

        // Candidates X = N(v) − N[u].
        std::vector<NodeId> candidates;
        for (NodeId w : g.neighbors(v)) {
            if (u != kInvalidNode && (w == u || g.has_edge(w, u))) continue;
            candidates.push_back(w);
        }

        std::vector<NodeId> designated = greedy_cover(g, candidates, targets);
        for (NodeId d : designated) sim.note_designation(v, d);

        BroadcastState st = chain_state(received, v, std::move(designated), /*h=*/1);
        if (variant_ == DominantPruningVariant::kTdp) {
            st.sender_two_hop = k_hop_nodes(g, v, 2);  // piggyback N2(v)
        }
        sim.transmit(v, std::move(st));
    }

    const Graph* graph_;
    DominantPruningVariant variant_;
    std::vector<char> in_y_;  ///< target marks, all zero between forwards
};

}  // namespace

std::unique_ptr<Agent> DominantPruningAlgorithm::make_agent(const Graph& g) const {
    return std::make_unique<DominantPruningAgent>(g, variant_);
}

}  // namespace adhoc
