#include "sim/hello.hpp"

#include <cassert>
#include <limits>

#include "telemetry/telemetry.hpp"

namespace adhoc {

namespace {

namespace tel = telemetry;

const tel::MetricId kAgedLinks = tel::counter("hello.aged_links", "links");
const tel::MetricId kBurstDrops = tel::counter("hello.burst_drops", "messages");

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

}  // namespace

HelloProtocol::HelloProtocol(const Graph& g, HelloConfig config, const faults::FaultPlan* faults)
    : graph_(&g), config_(config), faults_(faults) {
    const std::size_t n = g.node_count();
    known_.assign(n, Graph(n));
    heard_of_.assign(n, std::vector<char>(n, 0));
    last_heard_.assign(n, std::vector<std::size_t>(n, kNever));
    stale_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) heard_of_[v][v] = 1;
}

bool HelloProtocol::burst_active(NodeId sender, std::size_t round) const {
    if (faults_ == nullptr) return false;
    for (const faults::HelloBurst& burst : faults_->hello_bursts) {
        if (burst.node != sender) continue;
        if (round >= burst.first_round && round < burst.first_round + burst.rounds) return true;
    }
    return false;
}

void HelloProtocol::run(Rng& rng) {
    assert(rounds_run_ == 0 && "run() is one-shot per instance");
    const std::size_t n = graph_->node_count();

    for (std::size_t round = 0; round < config_.rounds; ++round) {
        // Snapshot of everyone's knowledge at the start of the round: a
        // HELLO carries what the sender knew *before* this round.
        const std::vector<Graph> snapshot = known_;
        const std::vector<std::vector<char>> heard_snapshot = heard_of_;

        for (NodeId sender = 0; sender < n; ++sender) {
            // Message payload: sender id + its known adjacency lists.
            std::size_t payload_ids = 1;  // own id
            for (NodeId x = 0; x < n; ++x) {
                if (heard_snapshot[sender][x]) {
                    payload_ids += 1 + snapshot[sender].degree(x);
                }
            }
            bytes_ += payload_ids * 4;
            ++messages_;

            const bool bursting = burst_active(sender, round);
            const bool lossless_round = (round == 0 && config_.reliable_neighbor_discovery);
            for (NodeId receiver : graph_->neighbors(sender)) {
                if (bursting) {
                    ++burst_drops_;
                    tel::count(kBurstDrops);
                    continue;  // the whole burst is lost on the air
                }
                if (!lossless_round && config_.loss_probability > 0.0 &&
                    rng.chance(config_.loss_probability)) {
                    continue;  // this copy is lost
                }
                // Receiving a HELLO reveals the link (receiver, sender)...
                heard_of_[receiver][sender] = 1;
                known_[receiver].add_edge(receiver, sender);
                last_heard_[receiver][sender] = round;
                // ...and everything the sender knew.
                for (NodeId x = 0; x < n; ++x) {
                    if (!heard_snapshot[sender][x]) continue;
                    heard_of_[receiver][x] = 1;
                    for (NodeId y : snapshot[sender].neighbors(x)) {
                        known_[receiver].add_edge(x, y);
                        heard_of_[receiver][y] = 1;
                    }
                }
            }
        }

        // Neighbor liveness: a direct entry a node once learned ages out
        // after `liveness_timeout` consecutive silent rounds.
        if (config_.liveness_timeout > 0) {
            for (NodeId v = 0; v < n; ++v) {
                for (NodeId u : graph_->neighbors(v)) {
                    if (!known_[v].has_edge(v, u)) continue;
                    const std::size_t last = last_heard_[v][u];
                    const std::size_t missed = (last == kNever) ? round + 1 : round - last;
                    if (missed >= config_.liveness_timeout) {
                        known_[v].remove_edge(v, u);
                        stale_[v] = 1;
                        ++aged_out_;
                        tel::count(kAgedLinks);
                    }
                }
            }
        }
        ++rounds_run_;
    }
}

LocalTopology HelloProtocol::view_of(NodeId v) const {
    std::vector<NodeId> members;
    for (NodeId x = 0; x < heard_of_[v].size(); ++x) {
        if (heard_of_[v][x]) members.push_back(x);
    }
    LocalTopology view = induced_topology(known_[v], v, rounds_run_, std::move(members));
    view.stale = (stale_[v] != 0);
    return view;
}

std::vector<LocalTopology> hello_views(const Graph& g, std::size_t k, Rng& rng) {
    HelloProtocol hello(g, HelloConfig{.rounds = k});
    hello.run(rng);
    std::vector<LocalTopology> views;
    views.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) views.push_back(hello.view_of(v));
    return views;
}

}  // namespace adhoc
