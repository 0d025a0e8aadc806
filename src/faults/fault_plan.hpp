/// \file fault_plan.hpp
/// \brief Deterministic, seed-derived fault schedules for robustness runs.
///
/// The paper assumes error-free transmission over a collision-free MAC
/// (Section 7, assumption 1); its correctness claim (Theorem 2) is about
/// surviving *inconsistent local views*.  A `FaultPlan` makes that claim
/// testable at system level: node crash/recover schedules, link up/down
/// churn, per-link *asymmetric* loss and HELLO drop bursts, all fixed
/// before the run starts.
///
/// Determinism contract (the same one the campaign runner keeps): a plan is
/// a pure function of (base seed, topology shape, run index) — generation
/// seeds flow through `runner::derive_run_seed` substreams and never
/// through shared RNG state, so enabling telemetry, changing `--jobs` or
/// reordering workers can never perturb fault timing.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace adhoc::faults {

/// What a scheduled fault event does when its time arrives.
enum class FaultKind : std::uint8_t {
    kNodeCrash,    ///< node goes down: no tx/rx/timers until recovery
    kNodeRecover,  ///< node comes back up (with empty short-lived state)
    kLinkDown,     ///< link stops carrying packets in both directions
    kLinkUp,       ///< link carries packets again
};

/// One timed fault.  `node` is used by node events, `link` by link events.
struct FaultEvent {
    double time = 0.0;
    FaultKind kind = FaultKind::kNodeCrash;
    NodeId node = kInvalidNode;
    Edge link;

    friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Static per-link asymmetric loss: packets a->b drop with `loss_ab`,
/// b->a with `loss_ba` (independent of the medium's symmetric loss).
struct LinkAsymmetry {
    Edge link;  ///< canonical (a <= b)
    double loss_ab = 0.0;
    double loss_ba = 0.0;

    friend bool operator==(const LinkAsymmetry&, const LinkAsymmetry&) = default;
};

/// A burst of dropped HELLOs: every HELLO `node` sends during rounds
/// [first_round, first_round + rounds) is lost at all receivers.  Feeds the
/// hello layer's neighbor-liveness aging (see sim/hello.hpp).
struct HelloBurst {
    NodeId node = kInvalidNode;
    std::size_t first_round = 0;
    std::size_t rounds = 1;

    friend bool operator==(const HelloBurst&, const HelloBurst&) = default;
};

/// A complete fault schedule for one run.
struct FaultPlan {
    /// Timed events, sorted by (time, generation order).
    std::vector<FaultEvent> events;
    /// Static asymmetric loss assignments (at most one entry per link).
    std::vector<LinkAsymmetry> asymmetry;
    /// HELLO drop bursts (hello-phase only; no effect on the broadcast).
    std::vector<HelloBurst> hello_bursts;
    /// Seeds the counter-based per-delivery loss stream (fault_session.hpp).
    /// Zero is valid: the stream is still deterministic.
    std::uint64_t loss_stream_seed = 0;

    [[nodiscard]] bool empty() const noexcept {
        return events.empty() && asymmetry.empty() && hello_bursts.empty();
    }

    friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Fault intensity knobs.  All rates are expected *fractions* of the node
/// or link population; windows are simulated-time spans.
struct FaultSpec {
    double crash_rate = 0.0;          ///< fraction of nodes that crash
    double crash_window = 10.0;       ///< crash times uniform in [0, window)
    double recover_probability = 0.5; ///< chance a crashed node recovers
    double recover_delay_min = 2.0;   ///< recovery at crash + U[min, max)
    double recover_delay_max = 8.0;
    bool protect_source = true;       ///< never crash the broadcast source

    double link_churn_rate = 0.0;     ///< fraction of links that flap once
    double churn_window = 10.0;       ///< down time uniform in [0, window)
    double churn_down_min = 1.0;      ///< outage duration U[min, max)
    double churn_down_max = 5.0;

    double asymmetry_rate = 0.0;      ///< fraction of links with asym loss
    double asymmetry_loss_max = 0.8;  ///< directed loss uniform in (0, max]

    double hello_burst_rate = 0.0;    ///< fraction of nodes with a burst
    std::size_t hello_rounds = 2;     ///< hello-phase length being targeted
};

/// 64-bit key `(a << 32) | b` of the link exactly as given.  Pass canonical
/// pairs (`canonical(e)`), so one undirected link has one key.
[[nodiscard]] constexpr std::uint64_t link_key(Edge e) noexcept {
    return (static_cast<std::uint64_t>(e.a) << 32) | static_cast<std::uint64_t>(e.b);
}

/// Generates the plan for one run.  Pure function of its arguments: the
/// RNG is seeded by `runner::derive_run_seed(base_seed, |V|, crash_rate,
/// run_index)` xor a fixed fault-stream tag, a substream disjoint from the
/// run's simulation RNG.
[[nodiscard]] FaultPlan make_fault_plan(const FaultSpec& spec, const Graph& g, NodeId source,
                                        std::uint64_t base_seed, std::uint64_t run_index);

/// Structural validation against an `n`-node topology.  Throws
/// `std::invalid_argument` (naming the offending entry and value) on:
/// negative or non-finite event times, out-of-range node/link ids,
/// a recover without a preceding crash, a duplicate crash while the node
/// is already down, link events whose endpoints are not a canonical pair
/// (a < b), asymmetry entries with loss outside [0, 1] or duplicated
/// links, and hello bursts with out-of-range nodes or zero rounds.
/// Plans built by `make_fault_plan` always pass.
void validate_plan(const FaultPlan& plan, std::size_t n);

/// Copy of `plan` with every event time rounded *up* to the next multiple
/// of `window` (the scale engine's delivery delay), re-sorted stably.
/// This is the window-bucketing contract documented in docs/SCALING.md:
/// a bucketed plan fires identically in the serial simulator and in
/// `ScaleEngine`, because every event lands exactly on a window boundary.
/// Throws `std::invalid_argument` when `window` is not positive/finite.
[[nodiscard]] FaultPlan bucket_plan(const FaultPlan& plan, double window);

}  // namespace adhoc::faults
