#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hpp"

namespace adhoc {

namespace {

namespace tel = telemetry;

// Static registration (see telemetry.hpp): ids are process-stable, and
// recording against them is a no-op while telemetry is disabled.
const tel::MetricId kRunTimer = tel::timer("sim.run");
const tel::MetricId kNodesGauge = tel::gauge("sim.nodes", "nodes");
const tel::MetricId kDeliveryEvents = tel::counter("sim.events.delivery", "events");
const tel::MetricId kTimerEvents = tel::counter("sim.events.timer", "events");
const tel::MetricId kControlEvents = tel::counter("sim.events.control", "events");
const tel::MetricId kFaultEvents = tel::counter("sim.events.fault", "events");
const tel::MetricId kCollisions = tel::counter("sim.collisions", "events");
const tel::MetricId kSinrRejections = tel::counter("medium.sinr_rejections", "events");
const tel::MetricId kCaptures = tel::counter("medium.captures", "events");
const tel::MetricId kTransmissions = tel::counter("sim.transmissions", "packets");
const tel::MetricId kRetransmissions = tel::counter("sim.retransmissions", "packets");
const tel::MetricId kControlSends = tel::counter("sim.control_messages", "packets");
const tel::MetricId kFaultSuppressed = tel::counter("sim.fault_suppressed", "events");
const tel::MetricId kQueueLen = tel::histogram(
    "sim.queue_len", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, "events");

}  // namespace

void Agent::on_timer(Simulator&, NodeId, std::size_t, Rng&) {
    // Default: protocols without timers ignore them.
}

void Agent::on_control(Simulator&, NodeId, const ControlMessage&, Rng&) {
    // Default: data-plane agents never see the recovery plane.
}

Simulator::Simulator(const Graph& graph, MediumConfig medium)
    : graph_(&graph), medium_(std::move(medium)) {
    if (!medium_.ideal() &&
        medium_.config().positions.size() != graph_->node_count()) {
        throw std::invalid_argument(
            "MediumConfig.positions holds " +
            std::to_string(medium_.config().positions.size()) +
            " points but the graph has " + std::to_string(graph_->node_count()) +
            " nodes");
    }
}

void Simulator::attach_faults(const faults::FaultPlan* plan) {
    if (plan != nullptr) faults::validate_plan(*plan, graph_->node_count());
    fault_plan_ = plan;
}

void Simulator::reset(std::size_t n) {
    queue_.clear();
    transmissions_.clear();
    control_messages_.clear();
    if (medium_.config().collisions) {
        arrivals_.resize(n);
        for (auto& times : arrivals_) times.clear();  // keep per-node capacity
    } else {
        arrivals_.clear();
    }
    if (!medium_.ideal()) {
        tx_times_.resize(n);
        for (auto& times : tx_times_) times.clear();
    } else {
        tx_times_.clear();
    }
    sinr_rejections_ = 0;
    captures_ = 0;
    transmitted_.assign(n, 0);
    received_.assign(n, 0);
    retransmitted_.assign(n, 0);
    retransmit_count_ = 0;
    control_count_ = 0;
    fault_suppressed_ = 0;
    now_ = 0.0;
    trace_.clear();
    if (trace_enabled_) trace_.enable();
}

BroadcastResult Simulator::run(NodeId source, Agent& agent, Rng& rng) {
    tel::ScopedTimer span(kRunTimer);
    begin(source, agent, rng);
    while (has_pending()) step();
    return finish();
}

void Simulator::begin(NodeId source, Agent& agent, Rng& rng, double start_time) {
    if (!graph_->contains(source)) {
        throw std::invalid_argument("Simulator::begin: source " + std::to_string(source) +
                                    " is not a node of the " +
                                    std::to_string(graph_->node_count()) + "-node graph");
    }
    reset(graph_->node_count());
    source_ = source;
    rng_ = &rng;
    agent_ = &agent;
    now_ = start_time;
    if (fault_plan_ != nullptr) {
        fault_session_.reset(*fault_plan_, graph_->node_count());
        // Queue the whole schedule up front: fault events at time t carry
        // the lowest insertion sequence among time-t events, so a crash
        // always beats same-instant deliveries (a node cannot receive at
        // the very instant it dies).
        for (std::size_t i = 0; i < fault_plan_->events.size(); ++i) {
            const double at = std::max(fault_plan_->events[i].time, start_time);
            queue_.push(at, EventKind::kFault, fault_plan_->events[i].node, i);
        }
    } else {
        fault_session_ = faults::FaultSession{};
    }
    tel::gauge_sample(kNodesGauge, graph_->node_count());
    agent.start(*this, source, rng);
}

double Simulator::next_time() const { return queue_.peek().time; }

void Simulator::note_arrival(NodeId node, double at) {
    auto& times = arrivals_[node];
    times.insert(std::upper_bound(times.begin(), times.end(), at), at);
}

void Simulator::note_transmission(NodeId v) {
    if (!medium_.ideal()) tx_times_[v].push_back(now_);  // now_ is non-decreasing
}

double Simulator::interference_at(NodeId sender, NodeId receiver, double at) const {
    const MediumConfig& cfg = medium_.config();
    // A transmission at t reaches the receiver around t + propagation_delay;
    // it overlaps the arrival iff that lands within the vulnerability window.
    const double lo = at - cfg.propagation_delay - cfg.sinr.vulnerability_window;
    const double hi = at - cfg.propagation_delay + cfg.sinr.vulnerability_window;
    double sum = 0.0;
    // Deterministic enumeration order (cell row-major, bucket slot) keeps
    // the floating-point summation order — and with it the accept/reject
    // decision — bit-stable across runs and --jobs values.
    medium_.grid()->for_each_in_ball(
        cfg.positions[receiver], cfg.sinr.interference_range, [&](NodeId u) {
            if (u == sender) return;  // the arrival's own signal is not interference
            const auto& times = tx_times_[u];
            const auto first = std::lower_bound(times.begin(), times.end(), lo);
            const auto last = std::upper_bound(first, times.end(), hi);
            if (first != last) {
                sum += static_cast<double>(last - first) * medium_.signal(u, receiver);
            }
        });
    return sum;
}

bool Simulator::medium_accepts(NodeId sender, NodeId receiver, double at) {
    const MediumConfig& cfg = medium_.config();
    const double signal = medium_.signal(sender, receiver);
    const double interference = interference_at(sender, receiver, at);
    if (cfg.backend == MediumBackend::kSinr) {
        // signal / (N + I) >= beta, multiplied out so zero noise and zero
        // interference stay exact (beta = 0 accepts unconditionally).
        if (signal >= cfg.sinr.beta * (cfg.sinr.noise + interference)) {
            if (interference > 0.0) {
                ++captures_;
                tel::count(kCaptures);
            }
            return true;
        }
        return false;
    }
    // kUniformPowerGraph: static zero-interference margin check, and any
    // concurrent interference kills reception outright (no capture).
    if (interference > 0.0) return false;
    return signal >= cfg.sinr.beta * (1.0 + cfg.sinr.margin) * cfg.sinr.noise;
}

bool Simulator::arrival_collided(NodeId node, double at) const {
    const double w = medium_.config().collision_window;
    const auto& times = arrivals_[node];
    const auto lo = std::lower_bound(times.begin(), times.end(), at - w);
    const auto hi = std::upper_bound(times.begin(), times.end(), at + w);
    assert(hi - lo >= 1 && "the arrival being processed must be recorded");
    return (hi - lo) > 1;
}

void Simulator::step() {
    assert(agent_ != nullptr && rng_ != nullptr);
    tel::observe(kQueueLen, queue_.size());
    const Event e = queue_.pop();
    now_ = e.time;
    switch (e.kind) {
        case EventKind::kDelivery: {
            tel::count(kDeliveryEvents);
            if (medium_.config().collisions && arrival_collided(e.node, e.time)) {
                tel::count(kCollisions);
                transmissions_.release_one(e.payload);
                break;  // nothing is received
            }
            if (!medium_.ideal() &&
                !medium_accepts(transmissions_[e.payload].sender, e.node, e.time)) {
                ++sinr_rejections_;
                tel::count(kSinrRejections);
                transmissions_.release_one(e.payload);
                break;  // drowned by interference / below the noise floor
            }
            if (fault_session_.active() && !fault_session_.node_up(e.node)) {
                ++fault_suppressed_;
                tel::count(kFaultSuppressed);
                transmissions_.release_one(e.payload);
                break;  // the receiver is down
            }
            // Copy: this was the slot's last reference if release_one
            // recycles it, and the callback may acquire (overwrite) it.
            const Transmission tx = transmissions_[e.payload];
            transmissions_.release_one(e.payload);
            received_[e.node] = 1;
            trace_.record(now_, TraceKind::kReceive, e.node, tx.sender);
            agent_->on_receive(*this, e.node, tx, *rng_);
            break;
        }
        case EventKind::kTimer:
            tel::count(kTimerEvents);
            if (fault_session_.active() && !fault_session_.node_up(e.node)) {
                ++fault_suppressed_;
                tel::count(kFaultSuppressed);
                break;  // timers die with their node
            }
            agent_->on_timer(*this, e.node, e.payload, *rng_);
            break;
        case EventKind::kControl: {
            tel::count(kControlEvents);
            if (medium_.config().collisions && arrival_collided(e.node, e.time)) {
                tel::count(kCollisions);
                control_messages_.release_one(e.payload);
                break;
            }
            if (!medium_.ideal() &&
                !medium_accepts(control_messages_[e.payload].sender, e.node, e.time)) {
                ++sinr_rejections_;
                tel::count(kSinrRejections);
                control_messages_.release_one(e.payload);
                break;
            }
            if (fault_session_.active() && !fault_session_.node_up(e.node)) {
                ++fault_suppressed_;
                tel::count(kFaultSuppressed);
                control_messages_.release_one(e.payload);
                break;
            }
            const ControlMessage msg = control_messages_[e.payload];
            control_messages_.release_one(e.payload);
            agent_->on_control(*this, e.node, msg, *rng_);
            break;
        }
        case EventKind::kFault:
            tel::count(kFaultEvents);
            assert(fault_plan_ != nullptr && e.payload < fault_plan_->events.size());
            fault_session_.apply(fault_plan_->events[e.payload]);
            break;
    }
}

BroadcastResult Simulator::finish() {
    rng_ = nullptr;
    agent_ = nullptr;

    BroadcastResult result;
    result.transmitted = transmitted_;
    result.received = received_;
    for (std::size_t v = 0; v < transmitted_.size(); ++v) {
        if (transmitted_[v]) ++result.forward_count;
        if (received_[v]) ++result.received_count;
    }
    result.completion_time = now_;
    result.full_delivery = (result.received_count == graph_->node_count());
    result.trace = std::move(trace_);
    result.retransmitted = retransmitted_;
    result.retransmit_count = retransmit_count_;
    result.control_count = control_count_;
    result.fault_suppressed = fault_suppressed_;
    result.sinr_rejections = sinr_rejections_;
    result.captures = captures_;
    if (fault_session_.active()) result.down = fault_session_.down_mask();
    return result;
}

std::size_t Simulator::schedule_deliveries(NodeId sender, EventKind kind,
                                           std::size_t payload, NodeId only_target) {
    assert(rng_ != nullptr);
    std::size_t fanout = 0;
    for (NodeId nbr : graph_->neighbors(sender)) {
        if (only_target != kInvalidNode && nbr != only_target) continue;
        if (fault_session_.active()) {
            if (!fault_session_.link_up(sender, nbr) ||
                fault_session_.drop_directed(sender, nbr)) {
                ++fault_suppressed_;
                tel::count(kFaultSuppressed);
                continue;
            }
        }
        if (const auto at = medium_.delivery_time(now_, *rng_)) {
            queue_.push(*at, kind, nbr, payload);
            ++fanout;
            if (medium_.config().collisions) {
                assert(medium_.config().propagation_delay >
                           medium_.config().collision_window &&
                       "collision accounting needs delay > window");
                note_arrival(nbr, *at);
            }
        }
    }
    return fanout;
}

void Simulator::transmit(NodeId v, BroadcastState state) {
    assert(graph_->contains(v));
    if (transmitted_[v]) return;  // a node forwards at most once
    if (fault_session_.active() && !fault_session_.node_up(v)) return;  // dead air
    transmitted_[v] = 1;
    received_[v] = 1;  // the forwarder trivially holds the packet
    tel::count(kTransmissions);
    trace_.record(now_, TraceKind::kTransmit, v);
    note_transmission(v);

    const std::size_t slot = transmissions_.acquire(Transmission{v, now_, std::move(state)});
    transmissions_.set_pending(slot, schedule_deliveries(v, EventKind::kDelivery, slot));
}

void Simulator::resend(NodeId v, BroadcastState state) {
    assert(graph_->contains(v));
    if (fault_session_.active() && !fault_session_.node_up(v)) return;
    retransmitted_[v] = 1;
    received_[v] = 1;
    ++retransmit_count_;
    tel::count(kRetransmissions);
    trace_.record(now_, TraceKind::kRetransmit, v);
    note_transmission(v);

    const std::size_t slot = transmissions_.acquire(Transmission{v, now_, std::move(state)});
    transmissions_.set_pending(slot, schedule_deliveries(v, EventKind::kDelivery, slot));
}

void Simulator::send_control(NodeId v, std::size_t kind, NodeId target) {
    assert(graph_->contains(v));
    if (fault_session_.active() && !fault_session_.node_up(v)) return;
    ++control_count_;
    tel::count(kControlSends);
    trace_.record(now_, TraceKind::kControl, v, target);
    note_transmission(v);  // control packets radiate interference too

    const std::size_t slot = control_messages_.acquire(ControlMessage{v, kind, target, now_});
    control_messages_.set_pending(
        slot, schedule_deliveries(v, EventKind::kControl, slot, target));
}

void Simulator::schedule_timer(NodeId v, double delay, std::size_t timer_kind) {
    assert(delay >= 0.0);
    queue_.push(now_ + delay, EventKind::kTimer, v, timer_kind);
}

void Simulator::note_prune(NodeId v) { trace_.record(now_, TraceKind::kPrune, v); }

void Simulator::note_designation(NodeId designator, NodeId designee) {
    trace_.record(now_, TraceKind::kDesignate, designee, designator);
}

}  // namespace adhoc
