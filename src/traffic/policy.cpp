#include "traffic/policy.hpp"

#include "algorithms/wu_li.hpp"
#include "core/view.hpp"
#include "sim/generic_protocol.hpp"

namespace adhoc::traffic {

CoveragePolicy::CoveragePolicy(const Graph& g, std::size_t hops, PriorityScheme priority,
                               CoverageOptions coverage, std::string name)
    : name_(name.empty() ? "Generic FR/SP" : std::move(name)),
      keys_(g, priority),
      coverage_(coverage),
      status_(g.node_count(), NodeStatus::kUnvisited) {
    views_.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) views_.push_back(local_topology(g, v, hops));
    touched_.reserve(8);
}

bool CoveragePolicy::should_forward(NodeId v, std::span<const NodeId> visited) const {
    for (const NodeId u : visited) {
        if (u < status_.size() && status_[u] == NodeStatus::kUnvisited) {
            status_[u] = NodeStatus::kVisited;
            touched_.push_back(u);
        }
    }
    const View view(&views_[v], &status_, &keys_);
    const bool covered = coverage_condition_holds(view, v, coverage_);
    for (const NodeId u : touched_) status_[u] = NodeStatus::kUnvisited;
    touched_.clear();
    return !covered;
}

std::unique_ptr<ForwardPolicy> make_policy(const Graph& g, const std::string& key) {
    if (key == "flooding") return std::make_unique<FloodingPolicy>();
    if (key == "generic-static") {
        const PriorityKeys keys(g, PriorityScheme::kNcr);
        return std::make_unique<StaticMaskPolicy>(
            "Generic Static", generic_static_forward_set(g, 2, keys, CoverageOptions{}));
    }
    if (key == "generic-fr") {
        return std::make_unique<CoveragePolicy>(g, 2, PriorityScheme::kDegree);
    }
    if (key == "wu-li") {
        return std::make_unique<StaticMaskPolicy>("Wu-Li", wu_li_forward_set(g, WuLiConfig{}));
    }
    return nullptr;
}

}  // namespace adhoc::traffic
