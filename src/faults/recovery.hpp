/// \file recovery.hpp
/// \brief NACK-driven retransmission: one recovery state machine, run by
/// the reference Simulator and by the windowed ScaleEngine alike.
///
/// The paper's scheme (like all CDS broadcasts) is fire-and-forget: one
/// lost forward can strand a whole subtree.  `RecoveryMachine` is a small
/// repair plane beside any forwarding rule, without touching its decision
/// logic:
///
///   holder   -- a node that has the packet.  Emits up to `max_beacons`
///               periodic beacons (control messages) advertising the
///               packet.
///   gap      -- a node that hears a beacon for a packet it never received
///               has detected a sequence gap.  It schedules a NACK to the
///               beaconing holder under bounded exponential backoff
///               (`nack_delay * backoff_factor^i`, at most `max_nacks`).
///   repair   -- a holder answering a NACK re-sends the data packet, at
///               most `retransmit_budget` times.
///
/// The machine owns the per-node counters and every transition, and counts
/// the `recovery.*` telemetry metrics.  The plane it runs on is its *port*,
/// a template parameter (no virtual call) with four calls: `holds(v)`,
/// `schedule_timer(v, delay, kind)`, `send_control(v, kind, target)`
/// (target kInvalidNode: every neighbor) and `resend(v)`.  `RecoveryAgent`
/// below is the `Simulator` port; `ScaleEngine` is the windowed one
/// (src/sim/scale_engine.hpp), so both planes run these very transitions.
///
/// Every budget is finite, every timer is scheduled at most a bounded
/// number of times per node, so the event queue always drains: runs
/// terminate cleanly even under 100% loss or a partitioning crash, and
/// the caller classifies what remains (see outcome.hpp).

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc::faults {

struct RecoveryConfig {
    bool enabled = true;
    double beacon_interval = 4.0;     ///< holder beacon period
    std::size_t max_beacons = 3;      ///< beacons per holder
    double nack_delay = 0.5;          ///< first NACK backoff
    double backoff_factor = 2.0;      ///< exponential NACK backoff base
    std::size_t max_nacks = 3;        ///< NACKs per gap node
    std::size_t retransmit_budget = 2;///< repairs per holder
    std::size_t history = 2;          ///< piggybacked history depth of repairs
};

/// The beacon/NACK/repair state machine over a port (see the file comment).
class RecoveryMachine {
  public:
    /// Timer kinds and control-message kinds alike: a beacon timer sends a
    /// beacon, a NACK timer a NACK.
    static constexpr std::uint32_t kBeacon = 0;
    static constexpr std::uint32_t kNack = 1;

    explicit RecoveryMachine(const RecoveryConfig& config) : config_(config) {}

    [[nodiscard]] const RecoveryConfig& config() const noexcept { return config_; }

    void reset(std::size_t n) {
        beacons_.assign(n, 0);
        nacks_.assign(n, 0);
        armed_.assign(n, 0);
        gap_source_.assign(n, kInvalidNode);
        repairs_.assign(n, 0);
    }

    /// `v` has just come to hold the packet: its first receipt, or the
    /// source at start.  Arms its first beacon.
    template <class Port>
    void on_hold(Port& port, NodeId v) {
        // The flag first: no NACK-count read per first receipt while off.
        if (telemetry::enabled() && nacks_[v] > 0) telemetry::count(kGapsHealed);
        if (config_.enabled && config_.max_beacons > 0) {
            port.schedule_timer(v, config_.beacon_interval, kBeacon);
        }
    }

    /// A timer of `kind` fired at `v`, which is up.
    template <class Port>
    void on_timer(Port& port, NodeId v, std::uint32_t kind) {
        if (!config_.enabled) return;
        if (kind == kBeacon) {
            if (!port.holds(v)) return;
            telemetry::count(kBeacons);
            port.send_control(v, kBeacon, kInvalidNode);
            if (++beacons_[v] < config_.max_beacons) {
                port.schedule_timer(v, config_.beacon_interval, kBeacon);
            }
            return;
        }
        armed_[v] = 0;
        if (port.holds(v)) return;  // healed while waiting
        if (gap_source_[v] == kInvalidNode) return;
        telemetry::count(kNacks);
        port.send_control(v, kNack, gap_source_[v]);
        // Re-arm under exponential backoff, the exponent being the NACKs
        // sent so far: the repair (or the next beacon) may be lost too.
        if (++nacks_[v] < config_.max_nacks) arm_nack(port, v);
    }

    /// A control message of `kind` from `sender` arrived at `v`, which is up.
    template <class Port>
    void on_control(Port& port, NodeId v, std::uint32_t kind, NodeId sender) {
        if (!config_.enabled) return;
        if (kind == kBeacon) {
            if (port.holds(v)) return;  // nothing missing here
            // Sequence gap detected: a neighbor advertises a packet this
            // node never received.
            gap_source_[v] = sender;
            if (!armed_[v] && nacks_[v] < config_.max_nacks) arm_nack(port, v);
            return;
        }
        if (!port.holds(v)) return;  // stale NACK; nothing to repair with
        if (repairs_[v] >= config_.retransmit_budget) return;
        ++repairs_[v];
        telemetry::count(kRepairs);
        port.resend(v);
    }

    [[nodiscard]] std::size_t state_bytes() const noexcept {
        return (beacons_.capacity() + nacks_.capacity() + repairs_.capacity()) *
                   sizeof(std::uint32_t) +
               armed_.capacity() + gap_source_.capacity() * sizeof(NodeId);
    }

  private:
    inline static const telemetry::MetricId kBeacons =
        telemetry::counter("recovery.beacons", "packets");
    inline static const telemetry::MetricId kNacks =
        telemetry::counter("recovery.nacks", "packets");
    inline static const telemetry::MetricId kRepairs =
        telemetry::counter("recovery.repairs", "packets");
    inline static const telemetry::MetricId kGapsHealed =
        telemetry::counter("recovery.gaps_healed", "nodes");

    /// Schedules `v`'s next NACK after nack_delay * backoff_factor^(NACKs sent).
    template <class Port>
    void arm_nack(Port& port, NodeId v) {
        armed_[v] = 1;
        port.schedule_timer(
            v, config_.nack_delay * std::pow(config_.backoff_factor, static_cast<double>(nacks_[v])),
            kNack);
    }

    RecoveryConfig config_;
    std::vector<std::uint32_t> beacons_;  ///< beacons emitted per holder
    std::vector<std::uint32_t> nacks_;    ///< NACKs emitted per gap node
    std::vector<char> armed_;             ///< a NACK timer is pending
    std::vector<NodeId> gap_source_;      ///< holder to NACK at
    std::vector<std::uint32_t> repairs_;  ///< resends per holder
};

/// The `Simulator` port: wraps `inner` with the recovery machine.  The
/// inner agent keeps full ownership of the data plane (its timers and
/// receives are forwarded untouched); recovery claims the control plane and
/// the timer kinds at/above `kTimerBase`.
class RecoveryAgent : public Agent {
  public:
    /// Timer kinds below this belong to the inner agent.
    static constexpr std::size_t kTimerBase = std::size_t{1} << 16;

    RecoveryAgent(Agent& inner, RecoveryConfig config);

    void start(Simulator& sim, NodeId source, Rng& rng) override;
    void on_receive(Simulator& sim, NodeId node, const Transmission& tx, Rng& rng) override;
    void on_timer(Simulator& sim, NodeId node, std::size_t timer_kind, Rng& rng) override;
    void on_control(Simulator& sim, NodeId node, const ControlMessage& msg, Rng& rng) override;

  private:
    struct Port;

    void note_holder(Simulator& sim, NodeId v, const BroadcastState& state);

    Agent* inner_;
    RecoveryMachine machine_;
    std::vector<char> holder_;
    std::vector<BroadcastState> state_;   ///< last held state per holder
};

}  // namespace adhoc::faults
