// Route discovery: the workload the paper's introduction motivates.
// On-demand routing protocols (AODV/DSR-style) flood a route request
// (RREQ) through the network; efficient broadcasting directly reduces
// route-discovery overhead.  This example runs RREQ floods with plain
// flooding vs the generic protocol, reconstructs the discovered route from
// the broadcast trace, and compares overhead.
//
//   $ example_route_discovery [seed]

#include <algorithm>
#include <iostream>
#include <map>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "graph/traversal.hpp"
#include "graph/unit_disk.hpp"

using namespace adhoc;

namespace {

/// Replays a broadcast trace and extracts the reverse path a RREQ builds:
/// each node remembers the first neighbor it heard the request from.
std::vector<NodeId> discovered_route(const Trace& trace, NodeId source, NodeId destination) {
    std::map<NodeId, NodeId> first_heard_from;
    for (const TraceEvent& e : trace.events()) {
        if (e.kind == TraceKind::kReceive && !first_heard_from.contains(e.node)) {
            first_heard_from[e.node] = e.other;
        }
    }
    std::vector<NodeId> route;
    NodeId at = destination;
    while (at != source) {
        route.push_back(at);
        const auto it = first_heard_from.find(at);
        if (it == first_heard_from.end()) return {};  // request never arrived
        at = it->second;
    }
    route.push_back(source);
    std::reverse(route.begin(), route.end());
    return route;
}

void discover(const char* label, const BroadcastAlgorithm& algo, const Graph& g,
              NodeId source, NodeId destination, std::uint64_t seed) {
    Rng rng(seed);
    const auto result = algo.broadcast_traced(g, source, rng, {});
    const auto route = discovered_route(result.trace, source, destination);
    std::cout << label << ": " << result.forward_count << " RREQ transmissions, route ";
    if (route.empty()) {
        std::cout << "NOT FOUND\n";
        return;
    }
    for (std::size_t i = 0; i < route.size(); ++i) {
        std::cout << (i ? "->" : "") << route[i];
    }
    std::cout << " (" << route.size() - 1 << " hops)\n";
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11u;
    Rng rng(seed);
    UnitDiskParams params;
    params.node_count = 100;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, rng);

    // Pick the destination as a node far from the source.
    const NodeId source = 0;
    const auto dist = bfs_distances(net.graph, source);
    NodeId destination = 0;
    for (NodeId v = 0; v < net.graph.node_count(); ++v) {
        if (dist[v] != kUnreachable && dist[v] > dist[destination]) destination = v;
    }
    std::cout << "route discovery " << source << " -> " << destination << " ("
              << dist[destination] << " hops shortest) on " << net.graph.node_count()
              << " nodes\n\n";

    const FloodingAlgorithm flooding;
    const GenericBroadcast generic(generic_fr_config(2));
    const GenericBroadcast generic_frb(generic_frb_config(2));
    discover("flooding   ", flooding, net.graph, source, destination, seed);
    discover("generic FR ", generic, net.graph, source, destination, seed);
    discover("generic FRB", generic_frb, net.graph, source, destination, seed);

    std::cout << "\nEvery scheme finds a route; the pruned broadcasts pay a fraction of\n"
                 "the RREQ overhead (the broadcast-storm problem the paper addresses).\n";
    return 0;
}
