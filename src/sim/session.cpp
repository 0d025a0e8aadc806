#include "sim/session.hpp"

#include <cassert>
#include <limits>

namespace adhoc {

SessionResult run_session(const Graph& g, std::vector<BroadcastRequest> requests, Rng& rng,
                          MediumConfig medium) {
    SessionResult result;

    // One steppable simulator per broadcast, all driven on one global
    // clock: at each step the globally earliest pending event (ties broken
    // by request order) is processed.
    std::vector<std::unique_ptr<Simulator>> sims;
    std::vector<Rng> streams;
    sims.reserve(requests.size());
    streams.reserve(requests.size());
    // Workload-derived sizing: one broadcast keeps roughly a propagation
    // window's worth of packets in flight (a node plus its forwarding
    // neighbors, ~1 + avg degree), each fanning out ~avg degree deliveries.
    const std::size_t avg_degree =
        g.node_count() > 0 ? 2 * g.edge_count() / g.node_count() : 0;
    const std::size_t in_flight = 2 * (1 + avg_degree);
    for ([[maybe_unused]] const BroadcastRequest& req : requests) {
        assert(req.agent != nullptr && g.contains(req.source));
        sims.push_back(std::make_unique<Simulator>(g, medium));
        sims.back()->reserve_hint(in_flight, in_flight * (1 + avg_degree));
        streams.push_back(rng.fork());
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
        sims[i]->begin(requests[i].source, *requests[i].agent, streams[i],
                       requests[i].start_time);
    }

    double clock = 0.0;
    for (;;) {
        std::size_t next = requests.size();
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < sims.size(); ++i) {
            if (!sims[i]->has_pending()) continue;
            const double t = sims[i]->next_time();
            if (t < best) {
                best = t;
                next = i;
            }
        }
        if (next == requests.size()) break;  // all drained
        sims[next]->step();
        clock = best;
    }

    result.broadcasts.reserve(requests.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
        result.broadcasts.push_back(sims[i]->finish());
        result.completion_time = std::max(result.completion_time,
                                          result.broadcasts.back().completion_time);
    }
    (void)clock;
    return result;
}

}  // namespace adhoc
