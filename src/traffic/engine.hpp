/// \file engine.hpp
/// \brief The continuous-traffic engine: thousands of concurrent broadcast
/// sessions multiplexed through one long-lived network.
///
/// The one-shot `sim::Simulator` runs one broadcast per instance; a
/// saturation workload would construct thousands of simulators, agents and
/// RNG forks.  The `TrafficEngine` instead runs every session of a
/// `Workload` through **one** event queue over **one** topology:
///
///   - per-session state is two flat bit arenas (received / forwarded,
///     `sessions x nodes` bits) plus small per-session counters — no
///     per-session allocation;
///   - protocol decisions go through a shared `ForwardPolicy` (static
///     masks or the generic coverage kernel), built once per topology;
///   - duplicate suppression is the bounded per-node `DupCache` (LRU +
///     seq-window), replacing the one-shot `received` flag;
///   - the recovery plane beacons `SummaryVector`s on a HELLO cadence and
///     pulls advertised-but-missing sessions from the beaconing neighbor —
///     a targeted NACK/retransmit exchange with bounded budgets (each
///     (session, node) pulls at most once; each node serves at most
///     `pull_budget` repairs), so the event queue always drains;
///   - `src/faults/` plans apply unchanged: crash/recover and link churn
///     events gate every delivery, and each finished session is classified
///     delivered / degraded / partitioned against the final faulted
///     topology exactly like `faults::classify_outcome`.
///
/// Crash semantics: the duplicate cache models a persistent DTN-style
/// store, so a recovered node still holds (and re-advertises) what it had
/// before crashing — that store-carry-forward behavior is what lets
/// summary-vector exchange heal partitions the fault plan opens and
/// closes.  Determinism: a run is a pure function of (graph, policy,
/// config, workload, plan, rng seed); runs shard across threads at the
/// bench layer with one engine per run.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/fault_session.hpp"
#include "faults/outcome.hpp"
#include "graph/graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/medium.hpp"
#include "stats/rng.hpp"
#include "traffic/dup_cache.hpp"
#include "traffic/policy.hpp"
#include "traffic/summary_vector.hpp"
#include "traffic/workload.hpp"

namespace adhoc::traffic {

struct EngineConfig {
    MediumConfig medium;       ///< collision-free MAC (paper assumption 1)
    DupCacheConfig cache;
    std::size_t history = 2;   ///< piggybacked visited ids per data packet (max kMaxHistory)

    bool recovery = true;      ///< summary-vector beacons + gap pulls
    double sv_interval = 4.0;  ///< beacon period (HELLO cadence)
    double sv_slack = 24.0;    ///< beacons continue this long past the last arrival
    std::size_t pull_batch = 16;   ///< max gap pulls sent per received beacon
    std::size_t pull_budget = 256; ///< max repairs served per node per run
};

/// Final accounting of one session (every session gets exactly one).
struct SessionOutcome {
    NodeId source = kInvalidNode;
    std::uint32_t seq = 0;
    double start_time = 0.0;
    faults::DeliveryOutcome outcome = faults::DeliveryOutcome::kDelivered;
    std::size_t up_count = 0;         ///< nodes up at end of run
    std::size_t reachable_count = 0;  ///< up nodes reachable from source (final topology)
    std::size_t delivered_up = 0;     ///< up nodes holding the session
    std::size_t missed_reachable = 0; ///< reachable up nodes without it
    double last_delivery = 0.0;       ///< time of the last fresh delivery
    std::size_t forwards = 0;         ///< nodes that relayed this session
};

/// Completion-latency histogram bucket upper bounds (simulated time units,
/// inclusive; one overflow bucket beyond).  Shared with the telemetry
/// metric and the saturation bench's percentile computation.
[[nodiscard]] const std::vector<std::uint64_t>& latency_bounds();

struct TrafficResult {
    std::vector<SessionOutcome> sessions;

    std::size_t delivered = 0;
    std::size_t degraded = 0;
    std::size_t partitioned = 0;

    std::size_t data_transmissions = 0;  ///< session packets put on the air
    std::size_t data_bytes = 0;
    std::size_t fresh_deliveries = 0;    ///< first receipts (includes sources)
    std::size_t duplicates_suppressed = 0;

    std::size_t sv_beacons = 0;
    std::size_t control_bytes = 0;       ///< beacon + pull-request bytes
    std::size_t pulls_sent = 0;          ///< gap ids requested
    std::size_t repairs_served = 0;      ///< targeted retransmissions sent

    std::size_t cache_evictions = 0;
    std::size_t window_slides = 0;
    std::size_t cache_peak_bytes = 0;    ///< max per-node cache footprint
    std::size_t cache_ceiling_bytes = 0; ///< configured per-node hard bound

    /// Session completion latency (last fresh delivery - start), bucketed
    /// per `latency_bounds()`; `bounds.size() + 1` slots.
    std::vector<std::uint64_t> latency_hist;

    double completion_time = 0.0;        ///< time of the last processed event
};

class TrafficEngine {
  public:
    /// `g` and `policy` must outlive the engine.  Throws
    /// std::invalid_argument when `config.history` exceeds kMaxHistory.
    TrafficEngine(const Graph& g, const ForwardPolicy& policy, EngineConfig config = {});

    /// Attaches a fault plan for subsequent runs (nullptr = fault-free).
    /// The plan must outlive the engine.
    void attach_faults(const faults::FaultPlan* plan) { plan_ = plan; }

    /// Runs every session of `wl` to completion.  Always terminates: all
    /// recovery budgets are bounded and beacons stop after the horizon.
    /// Starts with `policy.begin_run()`, so a reused policy answers as a
    /// fresh one would.
    [[nodiscard]] TrafficResult run(const Workload& wl, Rng& rng);

  private:
    struct Packet {
        std::uint32_t session = 0;
        NodeId sender = kInvalidNode;
        std::uint8_t hist_count = 0;
        std::array<NodeId, kMaxHistory> hist{};
    };

    struct Control {
        enum Type : std::uint8_t { kSummary, kPull };
        Type type = kSummary;
        NodeId sender = kInvalidNode;
        SummaryVector sv;               ///< kSummary
        std::vector<SessionKey> wants;  ///< kPull
    };

    struct RunState;  // defined in engine.cpp; one per run() call

    void transmit_data(RunState& rs, std::uint32_t session, NodeId sender,
                       std::span<const NodeId> hist, double now, Rng& rng);
    void deliver_data(RunState& rs, NodeId node, const Packet& packet, double now, Rng& rng);
    void beacon(RunState& rs, NodeId node, double now, Rng& rng);
    void deliver_control(RunState& rs, NodeId node, std::size_t index, double now, Rng& rng);
    void classify(RunState& rs);

    const Graph* graph_;
    const ForwardPolicy* policy_;
    EngineConfig config_;
    Medium medium_;
    const faults::FaultPlan* plan_ = nullptr;
};

}  // namespace adhoc::traffic
