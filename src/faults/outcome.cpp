#include "faults/outcome.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace adhoc::faults {

const char* to_string(DeliveryOutcome outcome) noexcept {
    switch (outcome) {
        case DeliveryOutcome::kDelivered: return "delivered";
        case DeliveryOutcome::kDegraded: return "degraded";
        case DeliveryOutcome::kPartitioned: return "partitioned";
    }
    return "?";
}

ResilienceSummary classify_outcome(const Graph& g, NodeId source,
                                   const BroadcastResult& result, const FaultPlan& plan) {
    return classify_outcome(g, source, result.received, plan);
}

ResilienceSummary classify_outcome(const Graph& g, NodeId source,
                                   const std::vector<char>& received, const FaultPlan& plan) {
    const std::size_t n = g.node_count();
    assert(received.size() == n);
    const FinalFaultState final_state = final_fault_state(plan, n);

    const auto link_severed = [&](NodeId a, NodeId b) {
        return std::binary_search(final_state.links_down.begin(), final_state.links_down.end(),
                                  canonical(Edge{a, b}));
    };

    // BFS from the source over the final faulted topology.
    std::vector<char> reachable(n, 0);
    if (!final_state.node_down[source]) {
        std::vector<NodeId> frontier{source};
        reachable[source] = 1;
        while (!frontier.empty()) {
            const NodeId v = frontier.back();
            frontier.pop_back();
            for (NodeId u : g.neighbors(v)) {
                if (reachable[u] || final_state.node_down[u] || link_severed(v, u)) continue;
                reachable[u] = 1;
                frontier.push_back(u);
            }
        }
    }

    ResilienceSummary summary;
    for (NodeId v = 0; v < n; ++v) {
        if (final_state.node_down[v]) continue;
        ++summary.up_count;
        if (received[v]) ++summary.delivered_up;
        if (reachable[v]) {
            ++summary.reachable_count;
            if (!received[v]) ++summary.missed_reachable;
        }
    }
    summary.delivery_ratio =
        summary.reachable_count == 0
            ? 1.0
            : static_cast<double>(summary.reachable_count - summary.missed_reachable) /
                  static_cast<double>(summary.reachable_count);

    if (summary.missed_reachable > 0) {
        summary.outcome = DeliveryOutcome::kDegraded;
    } else if (summary.delivered_up < summary.up_count) {
        summary.outcome = DeliveryOutcome::kPartitioned;
    } else {
        summary.outcome = DeliveryOutcome::kDelivered;
    }
    return summary;
}

}  // namespace adhoc::faults
