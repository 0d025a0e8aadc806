#include "core/view.hpp"

namespace adhoc {

namespace {

std::vector<NodeStatus> status_from_masks(const LocalTopology& topo,
                                          const std::vector<char>* visited,
                                          const std::vector<char>* designated) {
    std::vector<NodeStatus> status(topo.id_space, NodeStatus::kInvisible);
    for (const NodeId v : topo.members) {
        if (visited != nullptr && (*visited)[v]) {
            status[v] = NodeStatus::kVisited;
        } else if (designated != nullptr && (*designated)[v]) {
            status[v] = NodeStatus::kDesignated;
        } else {
            status[v] = NodeStatus::kUnvisited;
        }
    }
    return status;
}

}  // namespace

View make_static_view(const Graph& g, NodeId center, std::size_t k, const PriorityKeys& keys) {
    LocalTopology topo = local_topology(g, center, k);
    auto status = status_from_masks(topo, nullptr, nullptr);
    return View(std::move(topo), std::move(status), &keys);
}

View make_dynamic_view(const Graph& g, NodeId center, std::size_t k, const PriorityKeys& keys,
                       const std::vector<char>& visited, const std::vector<char>& designated) {
    // The LocalTopology is a temporary here, so the view must own it.
    LocalTopology topo = local_topology(g, center, k);
    auto status = status_from_masks(topo, &visited, &designated);
    return View(std::move(topo), std::move(status), &keys);
}

}  // namespace adhoc
