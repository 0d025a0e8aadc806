#include "faults/recovery.hpp"

#include "sim/packet.hpp"

namespace adhoc::faults {

/// The machine's view of the Simulator: holders are the nodes the agent saw
/// receive, recovery timers sit at/above kTimerBase, and a repair carries
/// the holder's first received state re-chained at the recovery depth.
struct RecoveryAgent::Port {
    Simulator& sim;
    RecoveryAgent& agent;

    [[nodiscard]] bool holds(NodeId v) const { return agent.holder_[v] != 0; }
    void schedule_timer(NodeId v, double delay, std::uint32_t kind) {
        sim.schedule_timer(v, delay, kTimerBase + kind);
    }
    void send_control(NodeId v, std::uint32_t kind, NodeId target) {
        sim.send_control(v, kind, target);
    }
    void resend(NodeId v) {
        sim.resend(v, chain_state(agent.state_[v], v, {}, agent.machine_.config().history));
    }
};

RecoveryAgent::RecoveryAgent(Agent& inner, RecoveryConfig config)
    : inner_(&inner), machine_(config) {}

void RecoveryAgent::start(Simulator& sim, NodeId source, Rng& rng) {
    const std::size_t n = sim.graph().node_count();
    holder_.assign(n, 0);
    state_.assign(n, BroadcastState{});
    machine_.reset(n);

    inner_->start(sim, source, rng);
    // The source holds the packet by construction, whether or not its
    // initial transmission survived (it beacons so stranded neighbors can
    // pull the packet back out of it).
    note_holder(sim, source, BroadcastState{});
}

void RecoveryAgent::note_holder(Simulator& sim, NodeId v, const BroadcastState& state) {
    if (holder_[v]) return;
    holder_[v] = 1;
    state_[v] = state;
    Port port{sim, *this};
    machine_.on_hold(port, v);
}

void RecoveryAgent::on_receive(Simulator& sim, NodeId node, const Transmission& tx, Rng& rng) {
    note_holder(sim, node, tx.state);
    inner_->on_receive(sim, node, tx, rng);
}

void RecoveryAgent::on_timer(Simulator& sim, NodeId node, std::size_t timer_kind, Rng& rng) {
    if (timer_kind < kTimerBase) {
        inner_->on_timer(sim, node, timer_kind, rng);
        return;
    }
    Port port{sim, *this};
    machine_.on_timer(port, node, static_cast<std::uint32_t>(timer_kind - kTimerBase));
}

void RecoveryAgent::on_control(Simulator& sim, NodeId node, const ControlMessage& msg,
                               Rng& /*rng*/) {
    Port port{sim, *this};
    machine_.on_control(port, node, static_cast<std::uint32_t>(msg.kind), msg.sender);
}

}  // namespace adhoc::faults
