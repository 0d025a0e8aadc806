// hello_views: watch local views being built by the hello protocol.
//
//   $ example_hello_views
//
// Demonstrates Definition 2 operationally: runs k hello rounds on a small
// network, shows one node's growing view per round, verifies the lossless
// run equals the analytic G_k(v), then degrades the exchange with loss and
// shows the broadcast compensating with extra forwards (Theorem 2 keeps it
// correct).

#include <iostream>

#include "algorithms/generic.hpp"
#include "graph/unit_disk.hpp"
#include "sim/generic_protocol.hpp"
#include "sim/hello.hpp"

using namespace adhoc;

int main() {
    Rng rng(7);
    UnitDiskParams params;
    params.node_count = 30;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, rng);
    const NodeId v = 0;

    std::cout << "network: 30 nodes, " << net.graph.edge_count() << " links; watching node "
              << v << " (degree " << net.graph.degree(v) << ")\n\n";

    std::cout << "view growth per hello round:\n";
    for (std::size_t k = 1; k <= 4; ++k) {
        HelloProtocol hello(net.graph, HelloConfig{.rounds = k});
        Rng hrng(1);
        hello.run(hrng);
        const auto view = hello.view_of(v);
        const bool matches = (view == local_topology(net.graph, v, k));
        std::cout << "  after round " << k << ": sees " << view.size() << " nodes, "
                  << view.edges.size() / 2 << " links"
                  << (matches ? "  == analytic G_k(v)" : "  (MISMATCH!)") << "; protocol sent "
                  << hello.total_bytes() << " bytes total\n";
    }

    std::cout << "\nbroadcast from node 0 over hello-built 2-hop views:\n";
    for (double loss : {0.0, 0.5}) {
        HelloProtocol hello(net.graph, HelloConfig{.rounds = 2, .loss_probability = loss});
        Rng hrng(2);
        hello.run(hrng);
        std::vector<LocalTopology> views;
        for (NodeId u = 0; u < net.graph.node_count(); ++u) views.push_back(hello.view_of(u));

        GenericAgent agent(net.graph, generic_fr_config(2), std::move(views));
        Simulator sim(net.graph);
        Rng brng(3);
        const auto result = sim.run(0, agent, brng);
        std::cout << "  hello loss " << loss << ": " << result.forward_count
                  << " forward nodes, delivery "
                  << (result.full_delivery ? "complete" : "INCOMPLETE")
                  << " (worse views => less pruning, never a coverage hole)\n";
    }
    return 0;
}
