#include "core/priority.hpp"

#include "graph/metrics.hpp"

namespace adhoc {

std::string to_string(PriorityScheme scheme) {
    switch (scheme) {
        case PriorityScheme::kId: return "ID";
        case PriorityScheme::kDegree: return "Degree";
        case PriorityScheme::kNcr: return "NCR";
    }
    return "?";
}

std::string to_string(NodeStatus status) {
    switch (status) {
        case NodeStatus::kInvisible: return "invisible";
        case NodeStatus::kUnvisited: return "unvisited";
        case NodeStatus::kDesignated: return "designated";
        case NodeStatus::kVisited: return "visited";
    }
    return "?";
}

PriorityKeys::PriorityKeys(const Graph& g, PriorityScheme scheme) : scheme_(scheme) {
    const std::size_t n = g.node_count();
    key1_.assign(n, 0.0);
    key2_.assign(n, 0.0);
    switch (scheme) {
        case PriorityScheme::kId:
            break;  // id tiebreak inside Priority is enough
        case PriorityScheme::kDegree:
            for (NodeId v = 0; v < n; ++v) key1_[v] = static_cast<double>(g.degree(v));
            break;
        case PriorityScheme::kNcr:
            key1_ = all_ncr(g);
            for (NodeId v = 0; v < n; ++v) key2_[v] = static_cast<double>(g.degree(v));
            break;
    }
}

BfsPriorityKeys::BfsPriorityKeys(const BfsGraph& g, PriorityScheme scheme)
    : g_(&g), scheme_(scheme) {
    if (scheme == PriorityScheme::kNcr) ncr_ = all_ncr(g);
}

std::size_t PriorityKeys::extra_rounds() const noexcept {
    switch (scheme_) {
        case PriorityScheme::kId: return 0;
        case PriorityScheme::kDegree: return 1;
        case PriorityScheme::kNcr: return 2;
    }
    return 0;
}

}  // namespace adhoc
