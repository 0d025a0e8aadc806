/// \file scale_engine.hpp
/// \brief Window-synchronous broadcast engine for million-node runs.
///
/// `Simulator` is the reference machine: one event queue, arbitrary agents,
/// faults, collisions, jitter.  At n = 10^6 its general-purpose queue is
/// the wall.  `ScaleEngine` trades generality for throughput on the paper's
/// evaluation medium (collision-free, fixed propagation delay): every
/// delivery scheduled while processing window (T - d, T] lands in the next
/// window, at T + d, so the schedule needs no priority queue — a calendar
/// with one bucket per window IS the queue.
///
/// Every run, faulted or not and for every policy, is ONE loop over that
/// calendar.  Bucket w holds window w's events in push order; pushes are
/// numbered by the Simulator's insertion sequence, so a bucket whose times
/// never decrease is already in the reference (time, seq) pop order, and
/// the rare bucket whose times do (FP noise in accumulated instants at a
/// non-unit delay) is stably sorted by time.  The loop pops each event in
/// that order: a delivery that is a node's first receipt applies the
/// forwarding rule right there — flooding (always), self-pruning (N(v) not
/// covered by N(u) u {u}) or generic coverage — and a forwarder transmits
/// at once: its digest fold and its fanout into the next bucket, along its
/// sorted adjacency row.  Forward set, counts, completion time and the
/// order digest are therefore byte-identical to the serial `Simulator`
/// (`broadcast_resilient` when a plan or recovery is attached) for every
/// policy, every `wheels` and every `jobs` value (tests/scale_engine_test.cpp
/// and tests/scale_resilience_test.cpp prove it; the fuzzer's scale oracles
/// keep proving it).
///
/// **Internal ids.**  The constructor reads the caller's graph once: it
/// numbers the nodes in BFS discovery order (every component, seeds in
/// ascending original id) and writes its own flat CSR in those ids
/// (`BfsGraph`, graph/bfs_graph.hpp), each row in the original sorted-row
/// order, which is the Simulator's insertion sequence.  From then on the
/// engine reads only its copy, so a decision's ball, a fanout and the
/// calendar's events touch memory in about the order the wave touches
/// space.  Events, masks, packets, recovery state and the pre-scan are in
/// internal ids; original ids appear only at the boundaries — the `run`
/// argument, the order-digest fold, `FaultSession` calls, the returned
/// masks and the priority tiebreak (`BfsPriorityKeys`, whose NCR keys are
/// counted on the copy).
///
/// Events live in fixed-size chunks shared by all buckets and recycled
/// through one free list as soon as they are replayed, so the calendar
/// holds pending events, not the run's history, and a warm rerun allocates
/// nothing.  A packet of a policy whose decisions read no broadcast state
/// (flooding, self-pruning, static generic coverage) is just its sender's
/// id; only first-receipt generic coverage keeps a packet table with the
/// piggybacked history chain.
///
/// **Generic coverage at scale.**  `ScalePolicy::kGenericCoverage` runs the
/// paper's coverage-condition decision (Sections 3-4) for the honorable
/// axis subset — Static or First-Receipt timing × self-pruning selection ×
/// k-hop views (k >= 1) × any priority/history/coverage knobs.  Under a
/// collision-free uniform-delay medium a first-receipt self-pruning
/// decision depends only on the *first received* packet (its history
/// chain), so a decision is a pure function of (node, packet).  Every
/// decision, for any ball size and any coverage option, is one call to
/// `ball_covered` (src/core/coverage.hpp), which decides straight from the
/// engine's BFS-ordered copy of the graph: one truncated BFS
/// (`compile_ball_masks`) numbers members in discovery order and writes
/// their visible links as node-mask rows of ⌈m/64⌉ words and the
/// higher-priority mask H from the static keys, one tag word per node;
/// the visited mask comes from the packet's chain; the coverage kernel
/// decides on those three.
/// No member list is sorted, no CSR is written and no per-member
/// `Priority` is filled.  The verdict does not depend on how members are
/// numbered, so it equals `evaluate_coverage` on the sorted Definition-2
/// view.  A decision allocates nothing in steady state.
///
/// **Wheels and jobs.**  Internal ids are dealt round-robin to
/// `ScaleConfig::wheels` shards (blocks would put a whole BFS wave into one
/// or two wheels).  At `jobs > 1`, a generic window of at
/// least 4096 events is pre-scanned: each node's first in-window delivery
/// is decided ahead of the replay by a `PhaseCrew` of min(jobs, wheels)
/// workers claiming wheels, and the replay uses a verdict only when the
/// node's first receipt carries the very packet it was decided for.  Each
/// worker owns one compile-scratch set (its O(n) tag array is the bulk of
/// a generic engine's bytes/node): the calling thread's is allocated on the
/// first decision and every other worker's when the crew is created, so
/// at `jobs == 1` there is exactly one set, whatever `wheels` is.
/// `state_bytes` counts each per-ball buffer once, at its largest across
/// workers, so the bytes do not depend on how the scheduler ran the
/// workers.  Neither value changes an output.
///
/// **Faults at scale.**  `attach_faults` threads a `faults::FaultPlan`
/// (crash/recover schedules, link churn, counter-based asymmetric loss)
/// into the loop, and `set_recovery` arms `faults::RecoveryMachine`, the
/// beacon/NACK/repair state machine of `faults::RecoveryAgent`, with the
/// engine as its windowed port.  Every queue push the reference
/// `Simulator` would perform is replicated in the same order — plan events
/// first (they carry the lowest sequences), loss draws through the plan's
/// own counter-based stream in the exact send order, recovery timers at
/// window-aligned instants — so delivery sets, counters, outcome
/// classification and the digest match `Simulator::broadcast_resilient`.
/// The fault checks (`node_up` on a delivery, timer or control;
/// `link_up`/`drop_directed` per fanout link) run only when the attached
/// plan has timed events or asymmetric links; otherwise nothing can fail
/// and they are skipped.  Link churn only gates links in the fault
/// session — views and priority keys stay those of the constructor graph,
/// exactly as in the reference.  The session speaks original ids.  See
/// docs/SCALING.md "Faults at scale" for the window-bucketing contract.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/coverage.hpp"
#include "core/priority.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_session.hpp"
#include "faults/recovery.hpp"
#include "graph/bfs_graph.hpp"
#include "graph/graph.hpp"
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
/// one backend, so the value selects nothing; kept only because perfbench/
/// still sets it.
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
    /// and hops > kMaxBallHops (16-bit ball distances).  A decision's
    /// masks cost m * ⌈m/64⌉ words for a ball of m = |N_hops(v)| members,
    /// quadratic in m, so `run` throws std::length_error on a ball of more
    /// than kMaxMaskMembers (core/coverage.hpp) members.
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
    std::size_t peak_queue_events = 0;  ///< max events pending as a window opens
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
    /// Nodes down at end of run: n-sized when a plan is attached or
    /// recovery is armed (as `broadcast_resilient` reports it), else empty.
    std::vector<char> down;
};

/// The order digest computed from a reference `Simulator` trace: the same
/// mix-fold over (time, node) of every kTransmit event, in trace order.
/// `ScaleResult::order_digest` must equal this for a trace of the same
/// broadcast — the differential anchor used by tests, the fuzz oracle and
/// bench_scale's legacy cross-check.
[[nodiscard]] std::uint64_t reference_transmission_digest(const Trace& trace);

class ScaleEngine {
  public:
    /// The graph is read only by the constructor, which copies it in BFS
    /// order; it may change or be destroyed afterwards.  Throws
    /// std::invalid_argument on a non-positive delay, zero wheel or job
    /// count, more than 2^30 nodes or 2|E| >= 2^32 adjacency entries, or
    /// generic-policy knobs the engine cannot honor.
    ScaleEngine(const Graph& graph, ScaleConfig config = {});
    ~ScaleEngine();

    ScaleEngine(const ScaleEngine&) = delete;
    ScaleEngine& operator=(const ScaleEngine&) = delete;

    /// Runs one broadcast from `source` to quiescence.  Reusable: state is
    /// reset on entry.  Throws
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

    /// Arms (or, with `enabled == false`, disarms) the recovery machine for
    /// subsequent runs.  Throws `std::invalid_argument` unless the config
    /// is window-aligned: `beacon_interval` and `nack_delay` positive
    /// integer multiples of `delay`, an integral `backoff_factor >= 1`, and
    /// a maximum backoff within the calendar horizon.  (The
    /// `RecoveryConfig{}` default `nack_delay = 0.5` is NOT aligned at the
    /// default delay 1.0 — pass an aligned value.)
    void set_recovery(const faults::RecoveryConfig& config);

    /// Per-node outcome of the last `run` (differential tests, fuzz
    /// oracle), by original id.  1 iff the node transmitted / received a
    /// copy.
    [[nodiscard]] const std::vector<char>& forwarded_mask() const noexcept {
        return forwarded_;
    }
    [[nodiscard]] const std::vector<char>& received_mask() const noexcept { return received_; }

    /// Engine-owned memory (the BFS-ordered graph copy, its id map and
    /// stored keys, per-node masks, the window calendar — bucket headers,
    /// event chunks, the drained window — packet and recovery state,
    /// pre-scan arrays and decision scratch), for the bench's bytes/node
    /// metric.
    [[nodiscard]] std::size_t state_bytes() const noexcept;

  private:
    friend class faults::RecoveryMachine;  // calls the port below

    /// Per-worker working set of one coverage decision, reused for every
    /// wheel the worker claims (see the file comment).  All buffers only
    /// grow — zero allocations per decision in steady state.
    struct DecideScratch {
        std::vector<NodeId> visited;  ///< decision-time visited set (<= h+1)
        BallMaskScratch ball;         ///< the decision's node-mask view
    };

    /// One calendar entry, 16 bytes.  `payload` is the packet (kDelivery:
    /// the sender's id, or a `packets_` offset under first-receipt generic
    /// coverage), the recovery message's sender << 1 | kind (kControl), a
    /// plan event index (kFault) or the recovery timer kind (kTimer).  No
    /// sequence number is stored: pushes append in insertion-sequence order.
    struct Event {
        double time;
        std::uint32_t node_kind;  ///< node << 2 | kind
        std::uint32_t payload;
        [[nodiscard]] NodeId node() const noexcept { return node_kind >> 2; }
        [[nodiscard]] std::uint32_t kind() const noexcept { return node_kind & 3; }
    };
    /// Events per calendar chunk (1 KiB of events).
    static constexpr std::size_t kChunkEvents = 64;
    /// A fixed-size block of one bucket's events; `next` links the bucket's
    /// chunks in push order.
    struct Chunk {
        Event events[kChunkEvents];
        Chunk* next = nullptr;
    };
    /// One calendar window: a chain of chunks holding `count` events.
    struct Bucket {
        Chunk* first = nullptr;
        Chunk* tail = nullptr;  ///< where pushes append
        std::size_t count = 0;
        bool sorted = true;     ///< no pushed time was below its predecessor
    };
    /// A run of the drained window's events in pop order: one calendar
    /// chunk (freed once replayed), or the sorted copy in `work_`.
    struct Span {
        const Event* events;
        std::size_t count;
        Chunk* chunk;  ///< nullptr for `work_`
    };

    /// Strided, not blocked: a BFS wave covers a run of consecutive
    /// internal ids, which must spread over every wheel.
    [[nodiscard]] std::size_t wheel_of(NodeId v) const noexcept { return v % config_.wheels; }
    [[nodiscard]] bool covered_by(NodeId v, NodeId u) const noexcept;
    [[nodiscard]] bool up(NodeId v) const noexcept {
        return !faults_live_ || fsession_.node_up(graph_.original(v));
    }
    void validate_generic_config() const;

    /// The forwarding rule: does `v`, first reached by `payload`, forward?
    /// A pure function of (v, payload), so the pre-scan may evaluate it in
    /// crew worker scratch `ds` ahead of the replay.
    [[nodiscard]] bool decide(DecideScratch& ds, NodeId v, std::uint32_t payload);

    [[nodiscard]] std::size_t window_index(double time) const noexcept;
    void push(double time, std::uint32_t kind, NodeId node, std::uint32_t payload);
    /// Marks window `w`'s bucket unsorted when `time`, about to be pushed
    /// there, is below its last event's.
    void note_time(std::size_t w, double time);
    /// Appends an event to window `w`'s bucket (after `note_time`).
    void push_to(std::size_t w, double time, std::uint32_t kind, NodeId node,
                 std::uint32_t payload);
    /// Links a chunk from the free list (or a new one) to the bucket's tail.
    void add_chunk(Bucket& bucket);
    /// Empties window `w`'s bucket into `spans_`, in pop order.
    void open_window(std::size_t w);
    /// Mirrors `Simulator::schedule_deliveries`: per-link fault gating and
    /// counter-based loss draws in sorted-adjacency order, one queued
    /// event (and one insertion sequence) per surviving link.
    void fanout(NodeId sender, std::uint32_t kind, std::uint32_t payload, NodeId only_target,
                double next_time);
    /// Mirrors `Simulator::transmit` for a node that decided to forward on
    /// receipt of `base` (kNoPacket: the source): digest fold, packet,
    /// fanout.
    void transmit(NodeId v, double now, std::uint32_t base);

    // The recovery machine's windowed port, at the instant `now_`.
    [[nodiscard]] bool holds(NodeId v) const noexcept { return received_[v] != 0; }
    void schedule_timer(NodeId v, double delay, std::uint32_t kind);
    void send_control(NodeId v, std::uint32_t kind, NodeId target);
    /// Mirrors `Simulator::resend`: the holder's first received packet,
    /// re-chained at the recovery depth.
    void resend(NodeId v);
    /// Replays a recovery timer or control message at an up node, out of
    /// the replay loop: fault-free runs never take it.
    [[gnu::noinline]] void recover(const Event& e);
    /// Appends the chained packet `v` sends after first receiving `base`,
    /// with `history` chain entries, and returns its `packets_` offset.
    [[nodiscard]] std::uint32_t make_packet(NodeId v, std::size_t history, std::uint32_t base);

    ScaleConfig config_;
    BfsGraph graph_;        ///< the constructor graph, in internal ids
    BfsPriorityKeys keys_;  ///< static priority keys (generic coverage)
    /// Packets carry a history chain: first-receipt generic coverage, the
    /// only policy whose decisions read broadcast state.
    bool chained_ = false;

    /// By internal id during a run, by original id once it returns.
    std::vector<char> received_;
    std::vector<char> forwarded_;
    std::vector<char> renumber_;  ///< both masks packed, for the reordering
    ScaleResult result_;  ///< the run in progress

    const faults::FaultPlan* fault_plan_ = nullptr;
    faults::RecoveryMachine recovery_{faults::RecoveryConfig{.enabled = false}};
    double now_ = 0.0;  ///< the replayed event's instant, the port's clock
    faults::FaultSession fsession_;
    /// The attached plan has timed events or asymmetric links, so fault
    /// checks can fail this run (worked out on each run).
    bool faults_live_ = false;

    /// Window calendar: bucket w chains the pending events of window w in
    /// push (= insertion-sequence) order.  Events live in fixed-size chunks
    /// shared by all buckets: a replayed chunk goes back to `free_chunks_`,
    /// so the chunks allocated never exceed the peak of pending /
    /// kChunkEvents plus one partial chunk per live bucket — the calendar
    /// holds live events, not the run's history.  The header array is one
    /// `Bucket` per window up to the furthest event pushed (at most
    /// kMaxWindows; plan horizons are checked on attach).
    std::vector<Bucket> cal_;
    std::vector<std::unique_ptr<Chunk>> chunks_;  ///< every chunk
    /// Chunks holding no events.  Run start puts every chunk here, so a
    /// warm rerun reuses exactly the chunks of the previous run.
    std::vector<Chunk*> free_chunks_;
    std::vector<Span> spans_;  ///< the window being replayed
    std::vector<Event> work_;  ///< sorted copy of an out-of-order window
    std::size_t pending_ = 0;  ///< events queued and not yet drained

    /// First-receipt generic coverage's packets, back to back: a chain
    /// length `len`, then the piggybacked history chain, which ends with
    /// the sender.  A history-0 packet has `len == 0` and still stores its
    /// sender, which is then the decision's whole visited set.  The table
    /// only appends, so a deque keeps it in fixed blocks: growing it never
    /// copies it or frees a buffer, and it holds no spare capacity.
    std::deque<std::uint32_t> packets_;
    /// First received packet per node, for chained repairs.
    std::vector<std::uint32_t> held_pkt_;

    // Parallel decision pre-scan: per-wheel first receipts, per-worker
    // scratch (index 0 is the calling thread, which also takes every
    // decision of the replay), and per-node verdicts sized on the first
    // pre-scan.
    std::vector<std::vector<NodeId>> fresh_;
    std::vector<DecideScratch> deciders_;
    std::vector<std::uint32_t> pre_stamp_;
    std::vector<std::uint32_t> pre_pkt_;
    std::vector<char> pre_dec_;
    std::uint32_t pre_epoch_ = 0;
};

}  // namespace adhoc
