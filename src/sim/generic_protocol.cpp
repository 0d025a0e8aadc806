#include "sim/generic_protocol.hpp"

#include <cassert>
#include <sstream>

#include "graph/khop.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc {

namespace {

namespace tel = telemetry;

const tel::MetricId kDecisions = tel::counter("protocol.decisions", "events");
const tel::MetricId kStaleDecisions = tel::counter("protocol.stale_view_decisions", "events");
const tel::MetricId kPrunes = tel::counter("protocol.prunes", "events");
const tel::MetricId kForwards = tel::counter("protocol.forwards", "events");
const tel::MetricId kDesignations = tel::counter("protocol.designations", "nodes");
const tel::MetricId kPullbacks = tel::counter("protocol.designation_pullbacks", "events");
const tel::MetricId kDesignationsPerForward =
    tel::histogram("protocol.designations_per_forward", {0, 1, 2, 3, 4, 6, 8, 12}, "nodes");

}  // namespace

std::vector<char> generic_static_forward_set(const Graph& g, std::size_t hops,
                                             const PriorityKeys& keys,
                                             const CoverageOptions& opts) {
    std::vector<char> forward(g.node_count(), 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        const View view = make_static_view(g, v, hops, keys);
        forward[v] = coverage_condition_holds(view, v, opts) ? 0 : 1;
    }
    return forward;
}

GenericAgent::GenericAgent(const Graph& g, GenericConfig config)
    : graph_(&g),
      config_(config),
      keys_(g, config.priority),
      knowledge_(g, config.hops) {
    if (config_.timing == Timing::kStatic) {
        assert(config_.selection == Selection::kSelfPruning &&
               "static timing implies self-pruning (static ND is MPR)");
        static_forward_ = generic_static_forward_set(g, config_.hops, keys_, config_.coverage);
    }
}

GenericAgent::GenericAgent(const Graph& g, GenericConfig config,
                           std::vector<LocalTopology> views)
    : graph_(&g),
      config_(config),
      keys_(g, config.priority),
      knowledge_(g, std::move(views)) {
    if (config_.timing == Timing::kStatic) {
        assert(config_.selection == Selection::kSelfPruning);
        // Static status from the supplied views: no broadcast state yet,
        // so every view serves all of its members as unvisited.
        static_forward_.assign(g.node_count(), 0);
        for (NodeId v = 0; v < g.node_count(); ++v) {
            const View view = knowledge_.view_of(v, keys_);
            static_forward_[v] = coverage_condition_holds(view, v, config_.coverage) ? 0 : 1;
        }
    }
}

void GenericAgent::start(Simulator& sim, NodeId source, Rng& /*rng*/) {
    // The source always forwards (Section 5).
    forward_now(sim, source);
}

double GenericAgent::backoff_delay(NodeId v, Rng& rng) const {
    switch (config_.timing) {
        case Timing::kStatic:
        case Timing::kFirstReceipt:
            return 0.0;
        case Timing::kRandomBackoff:
            return rng.uniform(0.0, config_.backoff_window);
        case Timing::kDegreeBackoff: {
            // Proportional to the inverse of node degree (high-coverage
            // nodes fire first), normalized by the local maximum degree so
            // the window stays comparable to FRB's, with a small random
            // factor to break ties between equal-degree neighbors.
            const double deg = static_cast<double>(graph_->degree(v));
            std::size_t local_max = graph_->degree(v);
            for (NodeId u : graph_->neighbors(v)) {
                local_max = std::max(local_max, graph_->degree(u));
            }
            const double scale = (1.0 + static_cast<double>(local_max)) / (1.0 + deg);
            return config_.backoff_window * (0.8 + 0.2 * rng.uniform()) * scale / 2.0;
        }
    }
    return 0.0;
}

void GenericAgent::on_receive(Simulator& sim, NodeId node, const Transmission& tx, Rng& rng) {
    const bool first = knowledge_.observe(node, tx);
    const KnowledgeRef kn = knowledge_.at(node);

    if (config_.timing == Timing::kStatic) {
        if (first && static_forward_[node]) forward_now(sim, node);
        return;
    }

    if (first) {
        if (config_.timing == Timing::kFirstReceipt) {
            // "The status is determined right after the first receipt":
            // decide inline, before any other same-time delivery is seen.
            decide(sim, node);
        } else {
            sim.schedule_timer(node, backoff_delay(node, rng), /*timer_kind=*/0);
        }
        return;
    }

    // A node that already decided non-forward can still be pulled back in
    // by a *later* designation — it has not yet announced any status.
    // Under the strict rule it must forward; under the relaxed rule it
    // must *re-evaluate* at the designated priority S=1.5 (its earlier
    // prune used S=1, a weaker requirement than neighbors who see it as
    // designated will assume).
    if (kn.decided() && kn.designated_self() && !sim.has_transmitted(node) &&
        config_.selection != Selection::kSelfPruning) {
        if (config_.strict_designation) {
            tel::count(kPullbacks);
            forward_now(sim, node);
        } else {
            const View view = knowledge_.view_of(node, keys_);
            if (!coverage_condition_holds(view, node, config_.coverage,
                                          NodeStatus::kDesignated)) {
                tel::count(kPullbacks);
                forward_now(sim, node);
            }
        }
    }
}

void GenericAgent::on_timer(Simulator& sim, NodeId node, std::size_t /*timer_kind*/,
                            Rng& /*rng*/) {
    decide(sim, node);
}

void GenericAgent::decide(Simulator& sim, NodeId v) {
    const KnowledgeRef kn = knowledge_.at(v);
    if (kn.decided() || sim.has_transmitted(v)) return;
    kn.mark_decided();
    tel::count(kDecisions);
    // Liveness aging marked this node's hello view stale: the decision
    // below runs on weaker information than Definition 2 promises.
    if (kn.topology().stale) tel::count(kStaleDecisions);

    bool forward = false;
    if (config_.selection == Selection::kNeighborDesignating) {
        // Pure neighbor-designating: only designated nodes forward.
        forward = kn.designated_self();
        if (forward && !config_.strict_designation) {
            const View view = knowledge_.view_of(v, keys_);
            forward = !coverage_condition_holds(view, v, config_.coverage,
                                                NodeStatus::kDesignated);
        }
    } else if (kn.designated_self() && config_.strict_designation) {
        forward = true;
    } else {
        const NodeStatus self =
            kn.designated_self() ? NodeStatus::kDesignated : NodeStatus::kUnvisited;
        const View view = knowledge_.view_of(v, keys_);
        forward = !coverage_condition_holds(view, v, config_.coverage, self);
    }

    if (!forward) {
        tel::count(kPrunes);
        sim.note_prune(v);
        return;
    }
    forward_now(sim, v);
}

void GenericAgent::forward_now(Simulator& sim, NodeId v) {
    if (sim.has_transmitted(v)) return;
    const KnowledgeRef kn = knowledge_.at(v);
    std::vector<NodeId> designated = pick_designations(v);
    tel::count(kForwards);
    if (!designated.empty()) tel::count(kDesignations, designated.size());
    tel::observe(kDesignationsPerForward, designated.size());
    for (NodeId d : designated) sim.note_designation(v, d);
    sim.transmit(v, chain_state(kn.first_state(), v, std::move(designated), config_.history));
}

std::vector<NodeId> GenericAgent::pick_designations(NodeId v) const {
    if (config_.selection == Selection::kSelfPruning || config_.timing == Timing::kStatic) {
        return {};
    }
    const ConstKnowledgeRef kn = knowledge_.at(v);
    // Local ids throughout; k >= 2 sees all N(w), w in N(v).
    const LocalTopology& local = kn.topology();
    const std::uint32_t lv = local.local_of(v);
    const NodeId u = kn.first_sender();  // kInvalidNode at the source
    auto known = [&kn](NodeId x) { return kn.visited(x) || kn.designated(x); };

    // Uncovered 2-hop targets Y: nodes at exactly 2 hops in the local view
    // that are not already covered by a known visited/designated node.
    std::vector<char> uncovered(local.size(), 0);
    for (const std::uint32_t w : local.row(lv)) {
        for (const std::uint32_t y : local.row(w)) {
            if (y != lv && !local.has_edge(lv, y)) uncovered[y] = 1;  // 1-hop: covered by v
        }
    }
    // Anything adjacent to (or equal to) a known visited/designated node is
    // already handled by that node's own transmission.
    for (std::uint32_t x = 0; x < local.size(); ++x) {
        if (!known(local.members[x])) continue;
        uncovered[x] = 0;
        for (const std::uint32_t y : local.row(x)) uncovered[y] = 0;
    }
    std::vector<NodeId> targets;
    for (std::uint32_t y = 0; y < local.size(); ++y) {
        if (uncovered[y]) targets.push_back(y);
    }

    // Candidates X: our neighbors that are not the sender and not already
    // visited/designated.
    std::vector<NodeId> candidates;
    for (const std::uint32_t w : local.row(lv)) {
        if (local.members[w] == u || known(local.members[w])) continue;
        candidates.push_back(w);
    }

    switch (config_.selection) {
        case Selection::kNeighborDesignating: {
            std::vector<NodeId> picked = greedy_cover(LocalIdGraph{local}, candidates, targets);
            for (NodeId& w : picked) w = local.members[w];
            return picked;
        }
        case Selection::kHybridMaxDegree:
        case Selection::kHybridMinId: {
            const HybridPolicy policy = (config_.selection == Selection::kHybridMaxDegree)
                                            ? HybridPolicy::kMaxDegree
                                            : HybridPolicy::kMinId;
            const NodeId w = designate_single(LocalIdGraph{local}, candidates, uncovered, policy);
            if (w == kInvalidNode) return {};
            return {local.members[w]};
        }
        case Selection::kSelfPruning:
            break;
    }
    return {};
}

}  // namespace adhoc
