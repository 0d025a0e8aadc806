/// \file simulator.hpp
/// \brief Discrete-event broadcast simulator and the protocol agent API.
///
/// One `Simulator` drives one broadcast over one topology.  All protocol
/// behavior lives in an `Agent` (one object managing the per-node state of
/// every node — the simulator tells it *which* node an event is for).  The
/// medium is collision-free by default, matching the paper's evaluation
/// setup; loss/jitter can be injected for robustness tests.
///
/// Faults: a seed-derived `faults::FaultPlan` can be attached before a run.
/// Its events (node crash/recover, link churn) are injected through the
/// same deterministic event queue; down nodes neither transmit, receive nor
/// fire timers, and down links carry nothing.  A control plane
/// (`send_control` / `Agent::on_control`) and a non-idempotent `resend`
/// primitive support NACK-driven recovery layers on top of any agent.
///
/// Determinism: events at equal times fire in scheduling order, and all
/// randomness flows through the caller-provided Rng (fault timing comes
/// pre-computed in the plan; per-link asymmetric loss uses the plan's own
/// counter-based stream), so a (seed, topology, agent, plan) tuple always
/// reproduces the same run.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "faults/fault_session.hpp"
#include "graph/graph.hpp"
#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/medium.hpp"
#include "sim/packet.hpp"
#include "sim/trace.hpp"
#include "stats/rng.hpp"

namespace adhoc {

class Simulator;

/// A recovery-plane message (beacon, NACK, ...).  Content is opaque to the
/// simulator; `kind` discriminates at the protocol layer.
struct ControlMessage {
    NodeId sender = kInvalidNode;
    std::size_t kind = 0;
    NodeId target = kInvalidNode;  ///< kInvalidNode = local broadcast
    double sent_at = 0.0;
};

/// Protocol behavior.  One Agent instance serves all nodes of a run.
class Agent {
  public:
    virtual ~Agent() = default;

    /// Called once, before any event.  The source always forwards (paper
    /// Section 5); typical implementations call `sim.transmit(source, ...)`
    /// here with the algorithm's initial designated set.
    virtual void start(Simulator& sim, NodeId source, Rng& rng) = 0;

    /// A copy of the packet arrived at `node` (every neighbor of a sender
    /// receives every transmission — receiving *is* snooping under a
    /// collision-free medium).
    virtual void on_receive(Simulator& sim, NodeId node, const Transmission& tx, Rng& rng) = 0;

    /// A timer scheduled via `sim.schedule_timer` fired.
    virtual void on_timer(Simulator& sim, NodeId node, std::size_t timer_kind, Rng& rng);

    /// A control message arrived at `node`.  Default: ignored (data-plane
    /// agents never see the recovery plane).
    virtual void on_control(Simulator& sim, NodeId node, const ControlMessage& msg, Rng& rng);
};

/// Outcome of one simulated broadcast.
struct BroadcastResult {
    std::vector<char> transmitted;  ///< nodes that forwarded (incl. source)
    std::vector<char> received;     ///< nodes that got at least one copy
    std::size_t forward_count = 0;  ///< paper's metric: |transmitted|
    std::size_t received_count = 0;
    double completion_time = 0.0;   ///< time of last event
    bool full_delivery = false;     ///< received_count == n
    Trace trace;                    ///< populated when tracing enabled

    // ---- Fault/recovery accounting (zero / empty for fault-free runs) --
    std::vector<char> retransmitted;    ///< nodes that re-sent via resend()
    std::vector<char> down;             ///< nodes down at end of run (empty: no faults)
    std::size_t retransmit_count = 0;   ///< resend() calls that went out
    std::size_t control_count = 0;      ///< control messages sent
    std::size_t fault_suppressed = 0;   ///< deliveries/timers eaten by faults

    // ---- Physical-layer accounting (zero under the kIdeal backend) ----
    std::size_t sinr_rejections = 0;  ///< arrivals the reception model rejected
    std::size_t captures = 0;         ///< arrivals accepted despite interference
};

class Simulator {
  public:
    /// Throws std::invalid_argument (via Medium) on an invalid medium
    /// config, and when a non-ideal backend's positions count does not
    /// match the graph's node count.
    explicit Simulator(const Graph& graph, MediumConfig medium = {});

    /// Runs one broadcast from `source` under `agent` (begin + drain +
    /// finish).
    BroadcastResult run(NodeId source, Agent& agent, Rng& rng);

    // ---- Steppable API (used by sessions and debuggers) --------------

    /// Arms a broadcast without processing events.  `agent` and `rng`
    /// must outlive the stepping phase.  Throws std::invalid_argument when
    /// `source` is not a node of the graph (`run` too).
    void begin(NodeId source, Agent& agent, Rng& rng, double start_time = 0.0);

    /// True while events remain.
    [[nodiscard]] bool has_pending() const noexcept { return !queue_.empty(); }

    /// Timestamp of the next event.  Precondition: has_pending().
    [[nodiscard]] double next_time() const;

    /// Processes exactly one event.  Precondition: has_pending().
    void step();

    /// Collects the result (normally after the queue drains).
    [[nodiscard]] BroadcastResult finish();

    /// Enables event tracing for subsequent runs.
    void enable_trace() { trace_enabled_ = true; }

    /// Attaches a fault schedule for subsequent runs (nullptr detaches).
    /// The plan must outlive the simulator; its timed events are queued at
    /// begin() and applied in event order.  Throws `std::invalid_argument`
    /// (via `faults::validate_plan`) on a structurally invalid plan.
    void attach_faults(const faults::FaultPlan* plan);

    // ---- API available to agents during callbacks -------------------

    /// Queues a transmission by `v` at the current time carrying `state`.
    /// Idempotent: a node transmits at most once; later calls are ignored.
    /// No-op while `v` is crashed.
    void transmit(NodeId v, BroadcastState state);

    /// Re-sends the data packet from `v` (recovery repair).  Unlike
    /// `transmit` this is *not* idempotent and does not mark `v` as a
    /// forward node — retransmissions are accounted separately.
    void resend(NodeId v, BroadcastState state);

    /// Sends a control message from `v`.  `target == kInvalidNode` reaches
    /// every current neighbor (local broadcast); otherwise only `target`
    /// (which must be a neighbor) can receive it.
    void send_control(NodeId v, std::size_t kind, NodeId target = kInvalidNode);

    /// Schedules an `on_timer(node, timer_kind)` callback after `delay`.
    void schedule_timer(NodeId v, double delay, std::size_t timer_kind = 0);

    /// Records a pruning decision in the trace (bookkeeping only).
    void note_prune(NodeId v);

    /// Records a designation in the trace (bookkeeping only).
    void note_designation(NodeId designator, NodeId designee);

    [[nodiscard]] double now() const noexcept { return now_; }
    [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
    [[nodiscard]] bool has_transmitted(NodeId v) const noexcept { return transmitted_[v] != 0; }
    [[nodiscard]] bool has_received(NodeId v) const noexcept { return received_[v] != 0; }
    [[nodiscard]] NodeId source() const noexcept { return source_; }

    /// True iff `v` is currently up (always true without an attached plan).
    [[nodiscard]] bool node_up(NodeId v) const noexcept {
        return !fault_session_.active() || fault_session_.node_up(v);
    }

  private:
    void reset(std::size_t n);
    /// Fans one packet (data or control) out of `sender`: per-link fault
    /// gating, medium loss/jitter, and collision bookkeeping.  Returns the
    /// number of delivery events queued (the packet slot's refcount).
    std::size_t schedule_deliveries(NodeId sender, EventKind kind, std::size_t payload,
                                    NodeId only_target = kInvalidNode);
    void note_arrival(NodeId node, double at);
    [[nodiscard]] bool arrival_collided(NodeId node, double at) const;
    /// Records a non-ideal-backend transmission at the current time (the
    /// node radiates regardless of how many links carry the packet).
    void note_transmission(NodeId v);
    /// SINR-family reception decision for an arrival from `sender` at
    /// `receiver` popping at time `at`.  Consumes no randomness; bumps the
    /// capture counter on accept-under-interference.
    [[nodiscard]] bool medium_accepts(NodeId sender, NodeId receiver, double at);
    /// Sum of interfering received powers at `receiver` over the arrival's
    /// vulnerability interval, truncated at `sinr.interference_range`.
    [[nodiscard]] double interference_at(NodeId sender, NodeId receiver, double at) const;

    const Graph* graph_;
    Medium medium_;
    EventQueue queue_;
    /// In-flight packet arenas: a slot lives exactly while delivery events
    /// reference it, so memory is bounded by concurrent packets, not by
    /// the total sent over the run.
    SlotArena<Transmission> transmissions_;
    SlotArena<ControlMessage> control_messages_;
    std::vector<char> transmitted_;
    std::vector<char> received_;
    std::vector<char> retransmitted_;
    double now_ = 0.0;
    NodeId source_ = kInvalidNode;
    bool trace_enabled_ = false;
    Trace trace_;
    Rng* rng_ = nullptr;      ///< valid between begin() and finish()
    Agent* agent_ = nullptr;  ///< likewise
    const faults::FaultPlan* fault_plan_ = nullptr;
    faults::FaultSession fault_session_;
    std::size_t retransmit_count_ = 0;
    std::size_t control_count_ = 0;
    std::size_t fault_suppressed_ = 0;
    /// All scheduled arrival times per node, kept sorted and retained for
    /// the whole run.  Only populated when the collision model is on; an
    /// arrival is destroyed iff another lands within `collision_window` of
    /// it (window 0 = exact tie, the historical semantics).  Completeness:
    /// any event processed at time t can only schedule arrivals at
    /// >= t + propagation_delay > t + collision_window, so every arrival's
    /// window is fully known by the time it pops.
    std::vector<std::vector<double>> arrivals_;
    /// Transmission instants per node, retained for the whole run.  Only
    /// populated for the non-ideal backends; kept sorted for free because
    /// a run's transmit times are non-decreasing.  Completeness: an
    /// arrival at T is only interfered with by transmissions at
    /// t <= T - propagation_delay + vulnerability_window < T, all of which
    /// are processed (hence recorded) before T pops.
    std::vector<std::vector<double>> tx_times_;
    std::size_t sinr_rejections_ = 0;
    std::size_t captures_ = 0;
};

}  // namespace adhoc
