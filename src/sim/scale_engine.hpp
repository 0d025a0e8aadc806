/// \file scale_engine.hpp
/// \brief Window-synchronous sharded broadcast engine for million-node runs.
///
/// `Simulator` is the reference machine: one event queue, arbitrary agents,
/// faults, collisions, jitter.  At n = 10^6 its strictly-serial pop loop is
/// the wall.  `ScaleEngine` trades generality for throughput on the paper's
/// evaluation medium (collision-free, fixed propagation delay): because
/// every delivery scheduled while processing window [T, T + d) lands at
/// exactly T + d, events inside one window are causally independent and can
/// be drained in parallel — and, more, the *only* pending events at any
/// moment are the next window's.  No priority queue is needed at all: the
/// staging buckets ARE the schedule.
///
/// Sharding is by *wheel*, not by thread: nodes are block-partitioned into
/// a fixed number of event wheels (`ScaleConfig::wheels`, independent of
/// `jobs`), and the schedule is one staging bucket per destination wheel.
/// Every policy runs through ONE loop; each window has two steps:
///
///  - the phase, parallel over wheels: wheel `w` walks its bucket in order.
///    The first copy of a node it meets is that node's first receipt, so
///    the wheel marks it received and applies the policy predicate right
///    there — flooding (always), self-pruning (N(v) not covered by
///    N(u) u {u}) or generic coverage — and lists each forwarder with the
///    sequence number of its first copy;
///  - the serial step: the wheels' lists merge by sequence number into the
///    global transmission order, each transmission is folded into the
///    order digest, and its fanout is staged along the sender's sorted
///    adjacency row, numbered by a per-window counter.
///
/// That counter IS the reference Simulator's insertion sequence within the
/// window (senders in transmission order, neighbors in adjacency order), so
/// each bucket is already in the Simulator's (time, seq) pop order and
/// nothing is re-sorted.  Forward set, counts, completion time and the
/// order digest are byte-identical to the serial `Simulator` for every
/// policy, every `wheels` and every `jobs` value (tests/scale_engine_test.cpp
/// and tests/scale_resilience_test.cpp prove it; the fuzzer's scale oracle
/// keeps proving it).  The per-window counter is 32 bits: the constructor
/// rejects graphs with 2|E| > 2^32 - 1.
///
/// **Generic coverage at scale.**  `ScalePolicy::kGenericCoverage` runs the
/// paper's coverage-condition decision (Sections 3-4) for the honorable
/// axis subset — Static or First-Receipt timing × self-pruning selection ×
/// k-hop views (k >= 1) × any priority/history/coverage knobs.  Under a
/// collision-free uniform-delay medium a first-receipt self-pruning
/// decision depends only on the *first received* transmission, so per-node
/// protocol state collapses to the outgoing history chain (<= h node ids).
/// The phase evaluates the coverage kernel of src/core/coverage.cpp over a
/// compact local view compiled by `compile_ball` (src/graph/khop.hpp, the
/// Definition-2 routine behind `local_topology`; zero allocations in steady
/// state).  Every decision compiles its view afresh: O(ball edges), no
/// standing memory, over the one immutable graph the engine was constructed
/// with.  The compile scratch belongs to the crew worker taking the
/// decision, not to the wheel: a decision's state dies with it, so
/// min(jobs, wheels) scratch sets serve every wheel.  Its O(n) arrays are
/// the bulk of a generic engine's bytes/node, so at `jobs == 1` there is
/// exactly one set, whatever `wheels` is.
///
/// **Faults at scale.**  `attach_faults` threads a `faults::FaultPlan`
/// (crash/recover schedules, link churn, counter-based asymmetric loss)
/// into the engine, and `set_recovery` arms a window-synchronous mirror of
/// `faults::RecoveryAgent` (holder beacons, gap NACKs under bounded
/// exponential backoff, budgeted repairs).  A faulted run switches to a
/// serial windowed replay over per-window event buckets: every queue push
/// the reference `Simulator` would perform is replicated with the same
/// (time, insertion-sequence) order — fault events bucketed by
/// ceil(time/delay) and applied before same-window deliveries, loss draws
/// through the plan's own counter-based stream in the exact send order,
/// recovery timers at window-aligned instants — so delivery sets, counters,
/// outcome classification and the transmission-order digest are
/// byte-identical to `Simulator::broadcast_resilient` AND invariant under
/// (wheels x jobs).  Generic-coverage decisions, the expensive part, are
/// pre-scanned in parallel over wheels (they are pure functions of state
/// frozen at the window boundary); the serial pass then replays events in
/// canonical order using the precomputed verdicts.  Link churn only gates
/// links in the fault session — views and priority keys stay those of the
/// constructor graph, exactly as in the reference.  See docs/SCALING.md
/// "Faults at scale" for the window-bucketing contract.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/priority.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_session.hpp"
#include "faults/recovery.hpp"
#include "graph/graph.hpp"
#include "graph/khop.hpp"
#include "sim/generic_config.hpp"
#include "sim/trace.hpp"

namespace adhoc {

/// Forwarding rule applied on first receipt.
enum class ScalePolicy {
    kFlood,      ///< every node forwards once (blind flooding)
    kSelfPrune,  ///< forward only if N(v) is not covered by N(u) u {u}
    /// The paper's generic coverage condition (honorable subset: Static/FR
    /// timing, self-pruning selection, k >= 1 hop views).  Byte-identical
    /// to the serial Simulator running the same `GenericConfig`.
    kGenericCoverage,
};

/// Where `kGenericCoverage` gets its Definition-2 local views.  There is
/// one backend — a per-decision `compile_ball` into per-worker scratch — so
/// the value selects nothing.
enum class ScaleViewMode {
    kScratch,
};

struct ScaleConfig {
    double delay = 1.0;       ///< uniform per-hop latency (> 0)
    std::size_t wheels = 8;   ///< event-wheel shards; shards only, never changes the result
    std::size_t jobs = 1;     ///< worker threads (>= 1); never changes the result
    ScalePolicy policy = ScalePolicy::kFlood;
    /// Knobs for kGenericCoverage (ignored by the other policies).  The
    /// constructor rejects combinations the windowed engine cannot honor:
    /// backoff timings (need per-node timers and RNG draws), selections
    /// other than self-pruning (need designation pullback events),
    /// hops == 0 (global views cost O(n) per decision — use Simulator),
    /// and hops > kMaxBallHops (16-bit ball distances).
    GenericConfig generic;
    ScaleViewMode view_mode = ScaleViewMode::kScratch;  ///< selects nothing
};

struct ScaleResult {
    std::size_t delivered_events = 0;  ///< delivery events processed
    std::size_t forward_count = 0;     ///< nodes that transmitted (incl. source)
    std::size_t received_count = 0;
    double completion_time = 0.0;
    bool full_delivery = false;
    std::size_t windows = 0;            ///< synchronization rounds executed
    std::size_t peak_queue_events = 0;  ///< max events pending across wheels
    /// Mix-fold over the global transmission order (each transmission's
    /// time bits and node), for every policy, fault-free or faulted.  It
    /// equals `reference_transmission_digest` of a Simulator trace of the
    /// same broadcast (`broadcast_resilient` for faulted runs), and so
    /// depends on neither `wheels` nor `jobs`.
    std::uint64_t order_digest = 0;

    // ---- Fault/recovery accounting (zero / empty for fault-free runs),
    // ---- mirroring the BroadcastResult fields of the same names --------
    std::size_t retransmit_count = 0;  ///< recovery repairs sent
    std::size_t control_count = 0;     ///< beacons + NACKs sent
    std::size_t fault_suppressed = 0;  ///< deliveries/timers/links eaten by faults
    std::vector<char> down;            ///< nodes down at end of run (empty: no faults)
};

/// The order digest computed from a reference `Simulator` trace: the same
/// mix-fold over (time, node) of every kTransmit event, in trace order.
/// `ScaleResult::order_digest` must equal this for a trace of the same
/// broadcast — the differential anchor used by tests, the fuzz oracle and
/// bench_scale's legacy cross-check.
[[nodiscard]] std::uint64_t reference_transmission_digest(const Trace& trace);

class ScaleEngine {
  public:
    /// The graph must outlive the engine and stay unchanged.  Throws
    /// std::invalid_argument on a non-positive delay, zero wheel or job
    /// count, or generic-policy knobs the engine cannot honor.
    ScaleEngine(const Graph& graph, ScaleConfig config = {});
    ~ScaleEngine();

    ScaleEngine(const ScaleEngine&) = delete;
    ScaleEngine& operator=(const ScaleEngine&) = delete;

    /// Runs one broadcast from `source` to quiescence.  Reusable: state is
    /// reset on entry.  An attached fault plan or armed recovery layer
    /// routes the run through the faulted replay.  Throws
    /// std::invalid_argument when the graph is non-empty and `source` is
    /// not one of its nodes; an empty graph returns an empty result.
    [[nodiscard]] ScaleResult run(NodeId source);

    [[nodiscard]] const ScaleConfig& config() const noexcept { return config_; }

    /// Attaches a fault schedule for subsequent runs (nullptr detaches).
    /// The plan must outlive the engine.  Throws `std::invalid_argument`
    /// (via `faults::validate_plan`) on a structurally invalid plan, and
    /// when the plan's horizon exceeds the engine's window calendar
    /// (`time / delay` past 2^20 windows).  Event times need not be
    /// window-aligned: an event at time t is applied at the first window
    /// boundary >= t, before that window's deliveries — exactly when the
    /// reference Simulator, whose delivery instants are all boundaries,
    /// would observe its effect.
    void attach_faults(const faults::FaultPlan* plan);

    /// Arms (or, with `enabled == false`, disarms) the window-synchronous
    /// recovery layer for subsequent runs.  Throws `std::invalid_argument`
    /// unless the config is window-aligned: `beacon_interval` and
    /// `nack_delay` positive integer multiples of `delay`, an integral
    /// `backoff_factor >= 1`, and a maximum backoff within the calendar
    /// horizon.  (The `RecoveryConfig{}` default `nack_delay = 0.5` is NOT
    /// aligned at the default delay 1.0 — pass an aligned value.)
    void set_recovery(const faults::RecoveryConfig& config);

    /// Per-node outcome of the last `run` (differential tests, fuzz
    /// oracle).  1 iff the node transmitted / received a copy.
    [[nodiscard]] const std::vector<char>& forwarded_mask() const noexcept {
        return forwarded_;
    }
    [[nodiscard]] const std::vector<char>& received_mask() const noexcept { return received_; }

    /// Engine-owned working memory (per-node state, staging-bucket
    /// high-water marks, and the faulted plane's calendar — bucket headers,
    /// event chunks and the drain buffer), for the bench's bytes/node metric.
    [[nodiscard]] std::size_t state_bytes() const noexcept;

  private:
    /// One staged copy of the next window.  All copies of a window share
    /// one delivery instant, so only their order is stored.
    struct Staged {
        std::uint32_t seq;  ///< the Simulator's insertion order within the window
        NodeId node;
        NodeId sender;
    };

    /// Per-wheel output of the window phase.  Buffers only grow.
    struct WheelScratch {
        /// `(seq << 32) | node` of the wheel's forwarders, ascending seq.
        std::vector<std::uint64_t> forwarders;
        std::vector<NodeId> fresh;  ///< faulted pre-scan: first receipts to decide
    };

    /// Per-worker working set of one coverage decision, reused for every
    /// wheel the worker claims (see the file comment).  All buffers only
    /// grow — zero allocations per decision in steady state.
    struct DecideScratch {
        std::vector<NodeId> visited;  ///< decision-time visited set (<= h+1)
        BallScratch ball;             ///< the decision's compiled view
    };

    /// One replayed queue entry of the faulted plane.  `payload` indexes
    /// the packet table (kDelivery), the control table (kControl), the
    /// fault plan (kFault), or names the recovery timer kind (kTimer).
    struct REvent {
        double time;
        std::uint64_t seq;  ///< replicated Simulator insertion sequence
        std::uint32_t kind;
        NodeId node;
        std::uint32_t payload;
    };
    /// A replayed data packet: its sender plus the piggybacked history
    /// chain (stored in the pooled `r_chain_`; empty for policies whose
    /// decisions never read packet state).
    struct RPacket {
        NodeId sender;
        std::uint32_t chain_off;
        std::uint32_t chain_len;
    };
    struct RControl {
        NodeId sender;
        std::uint32_t kind;  ///< kBeaconMsg / kNackMsg
    };
    /// Events per calendar chunk (16 KiB of events).
    static constexpr std::size_t kChunkEvents = 512;
    /// A fixed-size block of one bucket's events; `next` links the bucket's
    /// chunks in push order.
    struct Chunk {
        REvent events[kChunkEvents];
        std::uint32_t next = 0;
    };
    /// One calendar window: a chain of chunks holding `count` events.
    struct Bucket {
        std::uint32_t first = 0;  ///< head chunk (meaningful when count > 0)
        std::uint32_t last = 0;   ///< tail chunk, where pushes append
        std::size_t count = 0;
    };

    [[nodiscard]] std::size_t wheel_of(NodeId v) const noexcept { return v / block_; }
    [[nodiscard]] bool covered_by(NodeId v, NodeId u) const noexcept;

    void validate_generic_config() const;
    /// One wheel's share of a fault-free window: first receipts, decisions
    /// (in crew worker `worker`'s scratch), outgoing chains, and the wheel's
    /// forwarder list.
    void scan_wheel(std::size_t w, std::size_t worker);
    /// The policy predicate: does `v`, first reached by `u`, forward?
    [[nodiscard]] bool forwards(DecideScratch& ds, NodeId v, NodeId u);
    [[nodiscard]] bool decide_generic(DecideScratch& ds, NodeId v, NodeId u);
    /// Outgoing history chain entries piggybacked per transmission (0 unless
    /// the policy is first-receipt generic coverage — no other decision
    /// reads broadcast state).
    [[nodiscard]] std::size_t chain_stride() const noexcept;

    // ---- faulted windowed replay (run_resilient and helpers) ----------
    [[nodiscard]] ScaleResult run_resilient(NodeId source);
    [[nodiscard]] std::size_t window_index(double time) const noexcept;
    void push_revent(double time, std::uint32_t kind, NodeId node, std::uint32_t payload) {
        push_to(window_index(time), time, kind, node, payload);
    }
    /// Appends an event to window `w`'s bucket, taking a chunk from the
    /// free list when the bucket is empty or its tail chunk is full.
    void push_to(std::size_t w, double time, std::uint32_t kind, NodeId node,
                 std::uint32_t payload);
    /// Moves window `w`'s events into `work_` in push order and returns the
    /// bucket's chunks to the free list.
    void drain_bucket(std::size_t w);
    /// Mirrors `Simulator::schedule_deliveries`: per-link fault gating and
    /// counter-based loss draws in sorted-adjacency order, one queued
    /// event (and one insertion sequence) per surviving link.
    void fanout_resilient(NodeId sender, bool control, std::uint32_t payload,
                          NodeId only_target, double next_time);
    /// Mirrors `Simulator::transmit` for a node that decided to forward:
    /// digest fold, packet-table entry (chain derived from the first
    /// received packet under FR timing), fanout.
    void transmit_resilient(NodeId v, double now);
    void resend_resilient(NodeId v, double now);
    /// Appends a packet (sender `v`, chain = last `history` of the first
    /// received chain + v, FR timing only) and returns its table index.
    [[nodiscard]] std::uint32_t make_packet(NodeId v, std::size_t history);
    [[nodiscard]] bool decide_resilient(DecideScratch& ds, NodeId v, const RPacket& pkt);
    [[nodiscard]] bool recovery_on() const noexcept {
        return recovery_.has_value() && recovery_->enabled;
    }

    /// Decision body shared by the fault-free and faulted planes:
    /// evaluates the coverage condition for `v` with `ds.visited` already
    /// holding the decision-time visited set.
    [[nodiscard]] bool decide_with_visited(DecideScratch& ds, NodeId v);

    const Graph& graph_;
    ScaleConfig config_;
    std::size_t block_ = 1;  ///< nodes per wheel (last wheel may be short)

    // Per-node state; each node is written only by its owning wheel, and
    // byte-granular vectors keep cross-wheel writes on distinct memory
    // locations (no false word-sharing races, unlike packed bitsets).
    std::vector<char> received_;
    std::vector<char> forwarded_;

    /// The window's staged copies, one bucket per destination wheel, each
    /// in insertion-sequence order.  Read-only during the phase; the serial
    /// step refills them for the next window (capacity is kept).
    std::vector<std::vector<Staged>> buckets_;
    std::vector<WheelScratch> scratch_;  ///< one per wheel
    /// One per crew worker (min(jobs, wheels)); index 0 is the calling
    /// thread, which also takes every decision made outside a crew phase.
    std::vector<DecideScratch> deciders_;
    std::vector<std::uint64_t> merge_;   ///< the window's forwarders, seq order

    // ---- kGenericCoverage state --------------------------------------
    PriorityKeys keys_;  ///< static priority keys of the graph
    std::vector<NodeId> chain_;  ///< outgoing history, stride h
    std::vector<std::uint32_t> chain_len_;

    // ---- faulted plane state ------------------------------------------
    std::uint64_t generic_digest_ = 0;  ///< transmission-order digest
    const faults::FaultPlan* fault_plan_ = nullptr;
    std::optional<faults::RecoveryConfig> recovery_;
    faults::FaultSession fsession_;
    faults::FaultPlan empty_plan_;  ///< session target when recovery runs planless
    /// Window calendar: bucket w chains the pending events of window w in
    /// push (= insertion-sequence) order.  Events live in fixed-size chunks
    /// shared by all buckets: a drained bucket's chunks go back to
    /// `free_chunks_`, so the chunks allocated never exceed the peak of
    /// pending / kChunkEvents plus one partial chunk per live bucket — the
    /// calendar holds live events, not the run's history.  The header array
    /// is one 16-byte `Bucket` per window up to the furthest event pushed
    /// (at most kMaxWindows; plan horizons are checked on attach).
    std::vector<Bucket> cal_;
    std::vector<std::unique_ptr<Chunk>> chunks_;  ///< every chunk, by index
    /// Chunks holding no events.  Run start puts every chunk here, so a
    /// warm rerun reuses exactly the chunks of the previous run.
    std::vector<std::uint32_t> free_chunks_;
    /// The window being drained, copied out of its chunks so pushes into
    /// later windows may reuse them meanwhile.  Capacity tracks the largest
    /// window.
    std::vector<REvent> work_;
    std::vector<RPacket> packets_;
    std::vector<RControl> controls_;
    std::vector<NodeId> r_chain_;  ///< pooled packet history chains (FR only)
    std::uint64_t r_seq_ = 0;      ///< replicated insertion sequence
    std::size_t r_pending_ = 0;    ///< events queued and not yet drained
    std::size_t r_retransmit_ = 0;
    std::size_t r_control_ = 0;
    std::size_t r_suppressed_ = 0;
    // Per-node recovery-mirror state (holder status is `received_`).
    std::vector<std::uint32_t> held_pkt_;  ///< first received packet (repairs)
    std::vector<std::uint32_t> beacons_n_;
    std::vector<std::uint32_t> nacks_n_;
    std::vector<char> nack_armed_;
    std::vector<NodeId> gap_source_;
    std::vector<std::uint32_t> repairs_n_;
    // Parallel decision pre-scan bookkeeping.
    std::vector<std::uint32_t> pre_stamp_;
    std::vector<std::uint32_t> pre_pkt_;
    std::vector<char> pre_dec_;
    std::uint32_t pre_epoch_ = 0;
};

}  // namespace adhoc
