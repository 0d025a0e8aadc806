#include "sim/scale_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/coverage.hpp"
#include "core/view.hpp"

namespace adhoc {

namespace {

/// Reusable fork-join crew for the window phase.  A run executes hundreds
/// of very short phases (one per window); spawning threads per phase costs
/// more than the phase itself, so the workers persist for the whole run and
/// rendezvous on an epoch counter.  Wheels are claimed from an atomic
/// cursor, each exactly once, and `fn(wheel, worker)` gets the claiming
/// worker's index in [0, crew size) — the calling thread is worker 0 — so
/// per-worker scratch needs no locking.  `run_phase` returns only after
/// every worker has checked the phase in (the acquire on `done_` is the
/// barrier that publishes every wheel's writes to every other wheel).  Idle
/// workers park on `epoch_` and the caller on `done_`
/// (`std::atomic::wait`), so a crew between phases burns no CPU.
class PhaseCrew {
  public:
    PhaseCrew(std::size_t jobs, std::size_t wheel_count)
        : wheel_count_(wheel_count) {
        const std::size_t extra = crew_size(jobs, wheel_count) - 1;
        workers_.reserve(extra);
        for (std::size_t t = 1; t <= extra; ++t) {
            workers_.emplace_back([this, t] { worker_loop(t); });
        }
    }

    /// Threads a crew runs, the caller included.
    [[nodiscard]] static std::size_t crew_size(std::size_t jobs, std::size_t wheel_count) {
        return std::min(jobs, wheel_count);
    }

    ~PhaseCrew() {
        stop_.store(true, std::memory_order_release);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();
        for (std::thread& t : workers_) t.join();
    }

    template <typename F>
    void run_phase(F&& fn) {
        if (workers_.empty()) {
            for (std::size_t i = 0; i < wheel_count_; ++i) fn(i, 0);
            return;
        }
        fn_ = [&fn](std::size_t i, std::size_t worker) { fn(i, worker); };
        next_.store(0, std::memory_order_relaxed);
        done_.store(0, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();
        claim(0);  // the calling thread is crew too
        for (std::size_t d; (d = done_.load(std::memory_order_acquire)) < workers_.size();) {
            done_.wait(d, std::memory_order_acquire);
        }
    }

  private:
    void claim(std::size_t worker) {
        for (std::size_t i;
             (i = next_.fetch_add(1, std::memory_order_relaxed)) < wheel_count_;) {
            fn_(i, worker);
        }
    }

    void worker_loop(std::size_t worker) {
        std::uint64_t seen = 0;
        while (true) {
            epoch_.wait(seen, std::memory_order_acquire);
            ++seen;
            if (stop_.load(std::memory_order_acquire)) return;
            claim(worker);
            // Only the last check-in can release the caller, so only it wakes it.
            if (done_.fetch_add(1, std::memory_order_release) + 1 == workers_.size()) {
                done_.notify_all();
            }
        }
    }

    std::size_t wheel_count_;
    std::function<void(std::size_t, std::size_t)> fn_;
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> done_{0};
    std::atomic<bool> stop_{false};
};

/// One-multiply mix (hash_combine shape).  Order-sensitive — folding the
/// same events in a different order yields a different digest, which is
/// exactly what the determinism gate wants — and cheap enough for the
/// per-event hot loop, unlike byte-wise FNV.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t x) noexcept {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h * 0x2545f4914f6cdd1dULL;
}

inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/// Windows whose staged event count cannot amortize a barrier rendezvous
/// run inline on the calling thread.  Both paths compute the identical
/// result, so the adaptive choice never shows in counts or digests.
inline constexpr std::size_t kParallelWindow = 4096;

// ---- faulted windowed replay ------------------------------------------

/// Calendar horizon for *plan* event times (engine-generated events are
/// bounded by the run's own dynamics).  The calendar keeps one 16-byte
/// bucket header per window up to the furthest event, so a plan at the
/// horizon costs ~16 MB of headers — far past any real schedule, cheap
/// enough to keep the resize in push_to unconditional.  Event storage is
/// chunked and recycled, so it does not scale with the horizon.
inline constexpr std::size_t kMaxWindows = std::size_t{1} << 20;

// REvent.kind values.  The numeric order is irrelevant: buckets sort by
// (time, seq) only, which is the reference EventQueue's pop order.
inline constexpr std::uint32_t kRFault = 0;
inline constexpr std::uint32_t kRDelivery = 1;
inline constexpr std::uint32_t kRTimer = 2;
inline constexpr std::uint32_t kRControl = 3;
// kRTimer payloads / kRControl message kinds (RecoveryAgent's state machine).
inline constexpr std::uint32_t kBeaconTimerR = 0;
inline constexpr std::uint32_t kNackTimerR = 1;
inline constexpr std::uint32_t kBeaconMsgR = 0;
inline constexpr std::uint32_t kNackMsgR = 1;
/// held_pkt_ sentinel: "holds the packet with an empty history chain" —
/// only the source, whose initial state is empty, ever carries it.
inline constexpr std::uint32_t kHeldEmpty = 0xffffffffu;

}  // namespace

std::uint64_t reference_transmission_digest(const Trace& trace) {
    std::uint64_t h = kDigestBasis;
    for (const TraceEvent& e : trace.events()) {
        if (e.kind != TraceKind::kTransmit) continue;
        h = mix(h, std::bit_cast<std::uint64_t>(e.time));
        h = mix(h, e.node);
    }
    return h;
}

void ScaleEngine::validate_generic_config() const {
    const GenericConfig& gc = config_.generic;
    if (gc.timing != Timing::kStatic && gc.timing != Timing::kFirstReceipt) {
        throw std::invalid_argument(
            "ScaleConfig.generic.timing = " + to_string(gc.timing) +
            ": backoff timings draw per-node timers from the RNG, which the "
            "windowed engine cannot honor — use Static/FR here, or Simulator");
    }
    if (gc.selection != Selection::kSelfPruning) {
        throw std::invalid_argument(
            "ScaleConfig.generic.selection = " + to_string(gc.selection) +
            ": neighbor-designating selections need designation pullback "
            "events — the engine honors self-pruning only; use Simulator");
    }
    if (gc.hops == 0) {
        throw std::invalid_argument(
            "ScaleConfig.generic.hops = 0: global views cost O(n) per "
            "decision and defeat the scale plane — use hops >= 1");
    }
    if (gc.hops > kMaxBallHops) {
        throw std::invalid_argument(
            "ScaleConfig.generic.hops = " + std::to_string(gc.hops) +
            ": view balls store hop distances in 16 bits — use hops <= " +
            std::to_string(kMaxBallHops));
    }
}

ScaleEngine::ScaleEngine(const Graph& graph, ScaleConfig config)
    : graph_(graph), config_(config) {
    if (!(config_.delay > 0.0)) {
        throw std::invalid_argument("ScaleConfig.delay must be > 0");
    }
    if (config_.wheels == 0) {
        throw std::invalid_argument("ScaleConfig.wheels must be >= 1");
    }
    if (config_.jobs == 0) {
        throw std::invalid_argument("ScaleConfig.jobs must be >= 1");
    }
    // A window stages at most one copy per directed edge, numbered by a
    // 32-bit insertion sequence.
    if (2 * graph.edge_count() > 0xffffffffULL) {
        throw std::invalid_argument(
            "graph edge count = " + std::to_string(graph.edge_count()) +
            ": a window's 2|E| staged copies overflow the engine's 32-bit "
            "insertion sequence — use at most 2147483647 edges");
    }
    const std::size_t n = graph.node_count();
    config_.wheels = std::min(config_.wheels, std::max<std::size_t>(n, 1));
    block_ = (n + config_.wheels - 1) / config_.wheels;
    if (block_ == 0) block_ = 1;
    received_.assign(n, 0);
    forwarded_.assign(n, 0);
    buckets_.resize(config_.wheels);
    scratch_.resize(config_.wheels);
    deciders_.resize(PhaseCrew::crew_size(config_.jobs, config_.wheels));

    if (config_.policy == ScalePolicy::kGenericCoverage) {
        validate_generic_config();
        keys_ = PriorityKeys(graph_, config_.generic.priority);
        chain_.assign(n * chain_stride(), kInvalidNode);
        chain_len_.assign(n, 0);
    }
}

ScaleEngine::~ScaleEngine() = default;

std::size_t ScaleEngine::chain_stride() const noexcept {
    // Flooding, self-pruning and static decisions ignore broadcast state
    // entirely, so nothing is piggybacked; first-receipt generic coverage
    // carries the last `history` visited nodes.
    return config_.policy == ScalePolicy::kGenericCoverage &&
                   config_.generic.timing == Timing::kFirstReceipt
               ? config_.generic.history
               : 0;
}

bool ScaleEngine::covered_by(NodeId v, NodeId u) const noexcept {
    // True iff every neighbor of v is u itself or a neighbor of u — the
    // self-pruning test over two sorted adjacency rows.
    const auto nv = graph_.neighbors(v);
    const auto nu = graph_.neighbors(u);
    auto it = nu.begin();
    for (NodeId x : nv) {
        if (x == u) continue;
        while (it != nu.end() && *it < x) ++it;
        if (it == nu.end() || *it != x) return false;
    }
    return true;
}

bool ScaleEngine::forwards(DecideScratch& ds, NodeId v, NodeId u) {
    switch (config_.policy) {
        case ScalePolicy::kFlood: return true;
        case ScalePolicy::kSelfPrune: return !covered_by(v, u);
        case ScalePolicy::kGenericCoverage: return decide_generic(ds, v, u);
    }
    return true;
}

bool ScaleEngine::decide_generic(DecideScratch& ds, NodeId v, NodeId u) {
    const GenericConfig& gc = config_.generic;
    // Decision-time visited set.  Static: empty (the static forward set is
    // computed over all-unvisited views).  First-receipt: exactly what the
    // first received packet carries — the sender's outgoing chain (which
    // ends with the sender itself when history >= 1).
    ds.visited.clear();
    if (gc.timing == Timing::kFirstReceipt) {
        if (const std::size_t h = gc.history; h > 0) {
            const NodeId* chain = chain_.data() + std::size_t{u} * h;
            ds.visited.assign(chain, chain + chain_len_[u]);
        } else {
            ds.visited.push_back(u);
        }
    }
    return decide_with_visited(ds, v);
}

bool ScaleEngine::decide_with_visited(DecideScratch& ds, NodeId v) {
    BallScratch& ball = ds.ball;
    compile_ball(graph_, v, config_.generic.hops, ball);
    LocalViewScratch& s = LocalViewScratch::tls();
    s.compact.bind(ball.view);
    const std::uint32_t m = s.compact.size;
    for (std::uint32_t i = 0; i < m; ++i) {
        const NodeId x = s.compact.members[i];
        NodeStatus st = NodeStatus::kUnvisited;
        for (NodeId y : ds.visited) {
            if (y == x) {
                st = NodeStatus::kVisited;
                break;
            }
        }
        s.compact.status[i] = st;
        s.compact.priority[i] = keys_.evaluate(x, st);
    }
    const Priority pv = keys_.evaluate(v, NodeStatus::kUnvisited);
    return !evaluate_coverage_compiled(s, ball.g2l[v], pv, config_.generic.coverage)
                .covered;
}

void ScaleEngine::scan_wheel(std::size_t w, std::size_t worker) {
    WheelScratch& ws = scratch_[w];
    DecideScratch& ds = deciders_[worker];
    ws.forwarders.clear();
    const std::size_t h = chain_stride();
    // The bucket is in insertion-sequence order — the reference Simulator's
    // pop order within the window — so the first copy of v met here IS v's
    // first receipt.  The deciding state (the sender's chain) was final when
    // the sender transmitted last window, so wheels decide independently.
    for (const Staged& e : buckets_[w]) {
        const NodeId v = e.node;
        if (received_[v]) continue;  // duplicate copy: snooped, not re-decided
        received_[v] = 1;
        const NodeId u = e.sender;
        if (!forwards(ds, v, u)) continue;
        forwarded_[v] = 1;
        if (h > 0) {
            // Outgoing chain: the last min(len(u), h-1) of the sender's
            // chain, then v itself (packet.cpp chain_state semantics).
            const NodeId* cu = chain_.data() + std::size_t{u} * h;
            const std::size_t keep = std::min<std::size_t>(chain_len_[u], h - 1);
            NodeId* cv = chain_.data() + std::size_t{v} * h;
            const NodeId* from = cu + chain_len_[u] - keep;
            for (std::size_t i = 0; i < keep; ++i) cv[i] = from[i];
            cv[keep] = v;
            chain_len_[v] = static_cast<std::uint32_t>(keep + 1);
        }
        ws.forwarders.push_back((std::uint64_t{e.seq} << 32) | v);
    }
}

std::size_t ScaleEngine::window_index(double time) const noexcept {
    // Snap near-integer quotients to the boundary (delivery and timer
    // instants are exact multiples of delay, but plan times and backoff
    // products may carry FP noise), otherwise round up: an event at time t
    // fires at the first window boundary >= t.
    const double q = time / config_.delay;
    const double r = std::nearbyint(q);
    const double w =
        std::abs(q - r) <= 1e-9 * std::max(1.0, std::abs(q)) ? r : std::ceil(q);
    return w <= 0.0 ? 0 : static_cast<std::size_t>(w);
}

void ScaleEngine::attach_faults(const faults::FaultPlan* plan) {
    if (plan != nullptr) {
        faults::validate_plan(*plan, graph_.node_count());
        for (std::size_t i = 0; i < plan->events.size(); ++i) {
            if (window_index(plan->events[i].time) >= kMaxWindows) {
                throw std::invalid_argument(
                    "FaultPlan.events[" + std::to_string(i) +
                    "].time = " + std::to_string(plan->events[i].time) +
                    ": past the engine's calendar horizon (2^20 windows of "
                    "delay " +
                    std::to_string(config_.delay) + ")");
            }
        }
    }
    fault_plan_ = plan;
}

void ScaleEngine::set_recovery(const faults::RecoveryConfig& config) {
    if (config.enabled) {
        const auto aligned = [&](double value) {
            if (!std::isfinite(value) || value <= 0.0) return false;
            const double q = value / config_.delay;
            const double r = std::nearbyint(q);
            return r >= 1.0 && std::abs(q - r) <= 1e-9 * std::max(1.0, std::abs(q));
        };
        if (!aligned(config.beacon_interval)) {
            throw std::invalid_argument(
                "RecoveryConfig.beacon_interval = " +
                std::to_string(config.beacon_interval) +
                ": the windowed mirror needs a positive integer multiple of "
                "ScaleConfig.delay = " +
                std::to_string(config_.delay));
        }
        if (!aligned(config.nack_delay)) {
            throw std::invalid_argument(
                "RecoveryConfig.nack_delay = " + std::to_string(config.nack_delay) +
                ": the windowed mirror needs a positive integer multiple of "
                "ScaleConfig.delay = " +
                std::to_string(config_.delay) +
                " (the RecoveryConfig{} default 0.5 is not, at delay 1.0)");
        }
        if (!std::isfinite(config.backoff_factor) || config.backoff_factor < 1.0 ||
            std::nearbyint(config.backoff_factor) != config.backoff_factor) {
            throw std::invalid_argument(
                "RecoveryConfig.backoff_factor = " +
                std::to_string(config.backoff_factor) +
                ": must be an integral factor >= 1 so NACK timers stay on "
                "window boundaries");
        }
        const double max_backoff =
            config.nack_delay *
            std::pow(config.backoff_factor, static_cast<double>(config.max_nacks));
        if (!(max_backoff / config_.delay < static_cast<double>(kMaxWindows))) {
            throw std::invalid_argument(
                "RecoveryConfig: nack_delay * backoff_factor^max_nacks = " +
                std::to_string(max_backoff) +
                " exceeds the engine's calendar horizon");
        }
    }
    recovery_ = config;
}

void ScaleEngine::push_to(std::size_t w, double time, std::uint32_t kind, NodeId node,
                          std::uint32_t payload) {
    if (cal_.size() <= w) cal_.resize(w + 1);
    Bucket& bucket = cal_[w];
    const std::size_t slot = bucket.count % kChunkEvents;
    if (slot == 0) {  // first event, or the tail chunk is full
        if (free_chunks_.empty()) {
            free_chunks_.push_back(static_cast<std::uint32_t>(chunks_.size()));
            chunks_.push_back(std::make_unique<Chunk>());
        }
        const std::uint32_t c = free_chunks_.back();
        free_chunks_.pop_back();
        if (bucket.count == 0) {
            bucket.first = c;
        } else {
            chunks_[bucket.last]->next = c;
        }
        bucket.last = c;
    }
    chunks_[bucket.last]->events[slot] = {time, r_seq_++, kind, node, payload};
    ++bucket.count;
    ++r_pending_;
}

void ScaleEngine::drain_bucket(std::size_t w) {
    const Bucket bucket = std::exchange(cal_[w], Bucket{});
    work_.clear();
    std::uint32_t c = bucket.first;
    for (std::size_t left = bucket.count;;) {  // callers skip empty buckets
        const Chunk& chunk = *chunks_[c];
        const std::size_t take = std::min(left, kChunkEvents);
        work_.insert(work_.end(), chunk.events, chunk.events + take);
        free_chunks_.push_back(c);
        left -= take;
        if (left == 0) break;
        c = chunk.next;
    }
    r_pending_ -= bucket.count;
}

void ScaleEngine::fanout_resilient(NodeId sender, bool control, std::uint32_t payload,
                                   NodeId only_target, double next_time) {
    // Mirrors Simulator::schedule_deliveries exactly: the target skip comes
    // before fault gating (no loss draw for skipped neighbors), and a down
    // link short-circuits the draw (|| in the reference) so the counter
    // stream position stays identical.
    const std::uint32_t kind = control ? kRControl : kRDelivery;
    const std::size_t w = window_index(next_time);  // one instant per fanout
    for (NodeId nbr : graph_.neighbors(sender)) {
        if (only_target != kInvalidNode && nbr != only_target) continue;
        if (!fsession_.link_up(sender, nbr) || fsession_.drop_directed(sender, nbr)) {
            ++r_suppressed_;
            continue;
        }
        push_to(w, next_time, kind, nbr, payload);
    }
}

std::uint32_t ScaleEngine::make_packet(NodeId v, std::size_t history) {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    // Chains exist only where decisions read them: first-receipt generic
    // coverage.  packet.cpp chain_state semantics — the last `history`
    // entries of (first received chain + v), which is the last history-1 of
    // the base plus v itself.
    if (config_.policy == ScalePolicy::kGenericCoverage &&
        config_.generic.timing == Timing::kFirstReceipt && history > 0) {
        std::uint32_t base_off = 0;
        std::uint32_t base_len = 0;
        if (held_pkt_[v] != kHeldEmpty) {
            base_off = packets_[held_pkt_[v]].chain_off;
            base_len = packets_[held_pkt_[v]].chain_len;
        }
        const auto keep = static_cast<std::uint32_t>(
            std::min<std::size_t>(base_len, history - 1));
        off = static_cast<std::uint32_t>(r_chain_.size());
        for (std::uint32_t i = 0; i < keep; ++i) {
            r_chain_.push_back(r_chain_[base_off + base_len - keep + i]);
        }
        r_chain_.push_back(v);
        len = keep + 1;
    }
    const auto pid = static_cast<std::uint32_t>(packets_.size());
    packets_.push_back({v, off, len});
    return pid;
}

void ScaleEngine::transmit_resilient(NodeId v, double now) {
    forwarded_[v] = 1;
    received_[v] = 1;
    generic_digest_ = mix(generic_digest_, std::bit_cast<std::uint64_t>(now));
    generic_digest_ = mix(generic_digest_, v);
    const std::uint32_t pid = make_packet(v, config_.generic.history);
    fanout_resilient(v, false, pid, kInvalidNode, now + config_.delay);
}

void ScaleEngine::resend_resilient(NodeId v, double now) {
    // Mirrors Simulator::resend: accounted separately, not a forward, and
    // NOT folded into the order digest (the reference digest folds
    // kTransmit trace events only).  The repair carries the chain of the
    // holder's *first received* state at the recovery layer's own depth.
    ++r_retransmit_;
    received_[v] = 1;
    const std::uint32_t pid = make_packet(v, recovery_->history);
    fanout_resilient(v, false, pid, kInvalidNode, now + config_.delay);
}

bool ScaleEngine::decide_resilient(DecideScratch& ds, NodeId v, const RPacket& pkt) {
    // Same decision-time visited set as decide_generic, but from the
    // per-packet chain pool: under recovery a first receipt may be a repair
    // whose chain depth differs from the data plane's.
    ds.visited.clear();
    if (config_.generic.timing == Timing::kFirstReceipt) {
        if (pkt.chain_len > 0) {
            const NodeId* chain = r_chain_.data() + pkt.chain_off;
            ds.visited.assign(chain, chain + pkt.chain_len);
        } else {
            ds.visited.push_back(pkt.sender);
        }
    }
    return decide_with_visited(ds, v);
}

ScaleResult ScaleEngine::run_resilient(NodeId source) {
    const std::size_t n = graph_.node_count();
    ScaleResult result;
    if (n == 0) return result;

    std::fill(received_.begin(), received_.end(), 0);
    std::fill(forwarded_.begin(), forwarded_.end(), 0);
    // Every chunk is free at run start (a run cut short by an exception
    // may have left some queued); the header array restarts empty.
    cal_.clear();
    free_chunks_.resize(chunks_.size());
    std::iota(free_chunks_.begin(), free_chunks_.end(), 0u);
    work_.clear();
    packets_.clear();
    controls_.clear();
    r_chain_.clear();
    r_seq_ = 0;
    r_pending_ = 0;
    r_retransmit_ = 0;
    r_control_ = 0;
    r_suppressed_ = 0;
    generic_digest_ = kDigestBasis;
    held_pkt_.assign(n, kHeldEmpty);
    if (recovery_on()) {
        beacons_n_.assign(n, 0);
        nacks_n_.assign(n, 0);
        nack_armed_.assign(n, 0);
        gap_source_.assign(n, kInvalidNode);
        repairs_n_.assign(n, 0);
    }

    const bool generic = config_.policy == ScalePolicy::kGenericCoverage;
    if (generic) {
        pre_stamp_.assign(n, 0);
        pre_pkt_.resize(n);
        pre_dec_.resize(n);
        pre_epoch_ = 0;
    }

    // Queue the whole fault schedule first: these events carry the globally
    // lowest insertion sequences, so a crash always beats same-instant
    // deliveries — exactly Simulator::begin's push order.
    const faults::FaultPlan& plan = fault_plan_ != nullptr ? *fault_plan_ : empty_plan_;
    fsession_.reset(plan, n);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        push_revent(std::max(plan.events[i].time, 0.0), kRFault, plan.events[i].node,
                    static_cast<std::uint32_t>(i));
    }

    // begin(): the agent's start() runs before any event pops, so the
    // source transmits unconditionally (no fault has been applied yet);
    // then — RecoveryAgent::start order — the source's holder beacon arms
    // AFTER the fanout's insertion sequences.
    transmit_resilient(source, 0.0);
    if (recovery_on() && recovery_->max_beacons > 0) {
        push_revent(recovery_->beacon_interval, kRTimer, source, kBeaconTimerR);
    }

    std::optional<PhaseCrew> crew;
    double completion = 0.0;

    for (std::size_t w = 0; r_pending_ > 0 && w < cal_.size(); ++w) {
        if (cal_[w].count == 0) continue;
        result.peak_queue_events = std::max(result.peak_queue_events, r_pending_);
        ++result.windows;
        drain_bucket(w);
        // Within a bucket, (time, seq) is the reference queue's pop order;
        // buckets partition the time axis into disjoint ascending ranges,
        // so the concatenation of sorted buckets IS the global pop order.
        // Pushes append in seq order, so a bucket is out of (time, seq)
        // order only when its events' times differ (off-boundary plan
        // times, FP noise in accumulated instants) — sort just those.
        const auto pop_order = [](const REvent& a, const REvent& b) {
            return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        };
        if (!std::is_sorted(work_.begin(), work_.end(), pop_order)) {
            std::sort(work_.begin(), work_.end(), pop_order);
        }

        // Fault prefix: plan events carry the lowest sequences, so they
        // normally sort ahead of all same-window traffic.  Applying them up
        // front freezes up/down state for the window — the precondition for
        // pre-scanning decisions in parallel.
        std::size_t head = 0;
        while (head < work_.size() && work_[head].kind == kRFault) {
            fsession_.apply(plan.events[work_[head].payload]);
            completion = std::max(completion, work_[head].time);
            ++head;
        }
        bool fault_prefix_only = true;
        for (std::size_t j = head; j < work_.size(); ++j) {
            if (work_[j].kind == kRFault) {
                fault_prefix_only = false;
                break;
            }
        }

        // Parallel decision pre-scan: coverage decisions are pure functions
        // of (first packet, graph, keys), all frozen at the window boundary
        // once the fault prefix is in.  Find each node's first in-window
        // delivery (bucket order = pop order), decide per wheel in
        // parallel, and let the serial replay consume the verdicts.
        bool prescan = false;
        if (generic && fault_prefix_only && config_.jobs > 1 &&
            work_.size() - head >= kParallelWindow) {
            prescan = true;
            if (++pre_epoch_ == 0) {  // wrap: invalidate everything once
                std::fill(pre_stamp_.begin(), pre_stamp_.end(), 0);
                pre_epoch_ = 1;
            }
            for (WheelScratch& ws : scratch_) ws.fresh.clear();
            for (std::size_t j = head; j < work_.size(); ++j) {
                const REvent& e = work_[j];
                if (e.kind != kRDelivery) continue;
                const NodeId v = e.node;
                if (received_[v] || pre_stamp_[v] == pre_epoch_ ||
                    !fsession_.node_up(v)) {
                    continue;
                }
                pre_stamp_[v] = pre_epoch_;
                pre_pkt_[v] = e.payload;
                scratch_[wheel_of(v)].fresh.push_back(v);
            }
            if (!crew) crew.emplace(config_.jobs, config_.wheels);
            crew->run_phase([&](std::size_t wi, std::size_t worker) {
                DecideScratch& ds = deciders_[worker];
                for (NodeId v : scratch_[wi].fresh) {
                    pre_dec_[v] = decide_resilient(ds, v, packets_[pre_pkt_[v]]) ? 1 : 0;
                }
            });
        }

        // Serial replay in pop order.
        for (std::size_t j = head; j < work_.size(); ++j) {
            const REvent& e = work_[j];
            completion = std::max(completion, e.time);
            switch (e.kind) {
                case kRFault:
                    fsession_.apply(plan.events[e.payload]);
                    break;
                case kRDelivery: {
                    ++result.delivered_events;
                    const NodeId v = e.node;
                    if (!fsession_.node_up(v)) {
                        ++r_suppressed_;
                        break;
                    }
                    const bool first = received_[v] == 0;
                    received_[v] = 1;
                    if (!first) break;  // duplicate copy: snooped only
                    held_pkt_[v] = e.payload;
                    // RecoveryAgent::on_receive arms the holder beacon
                    // BEFORE the inner agent's fanout sequences.
                    if (recovery_on() && recovery_->max_beacons > 0) {
                        push_revent(e.time + recovery_->beacon_interval, kRTimer, v,
                                    kBeaconTimerR);
                    }
                    bool forward;
                    if (config_.policy == ScalePolicy::kFlood) {
                        forward = true;
                    } else if (config_.policy == ScalePolicy::kSelfPrune) {
                        forward = !covered_by(v, packets_[e.payload].sender);
                    } else if (prescan && pre_stamp_[v] == pre_epoch_) {
                        forward = pre_dec_[v] != 0;
                    } else {
                        forward = decide_resilient(deciders_[0], v, packets_[e.payload]);
                    }
                    if (forward) transmit_resilient(v, e.time);
                    break;
                }
                case kRTimer: {
                    const NodeId v = e.node;
                    if (!fsession_.node_up(v)) {
                        ++r_suppressed_;  // timers die with their node
                        break;
                    }
                    if (!recovery_on()) break;
                    if (e.payload == kBeaconTimerR) {
                        if (!received_[v]) break;  // not a holder
                        ++r_control_;
                        const auto cid = static_cast<std::uint32_t>(controls_.size());
                        controls_.push_back({v, kBeaconMsgR});
                        fanout_resilient(v, true, cid, kInvalidNode,
                                         e.time + config_.delay);
                        if (++beacons_n_[v] < recovery_->max_beacons) {
                            push_revent(e.time + recovery_->beacon_interval, kRTimer,
                                        v, kBeaconTimerR);
                        }
                    } else {
                        nack_armed_[v] = 0;
                        if (received_[v]) break;  // healed while waiting
                        if (gap_source_[v] == kInvalidNode) break;
                        ++r_control_;
                        const auto cid = static_cast<std::uint32_t>(controls_.size());
                        controls_.push_back({v, kNackMsgR});
                        fanout_resilient(v, true, cid, gap_source_[v],
                                         e.time + config_.delay);
                        if (++nacks_n_[v] < recovery_->max_nacks) {
                            // Re-arm under exponential backoff (the repair
                            // or the next beacon may be lost too) — note
                            // the post-increment exponent, vs the
                            // pre-increment one on beacon receipt.
                            nack_armed_[v] = 1;
                            const double backoff =
                                recovery_->nack_delay *
                                std::pow(recovery_->backoff_factor,
                                         static_cast<double>(nacks_n_[v]));
                            push_revent(e.time + backoff, kRTimer, v, kNackTimerR);
                        }
                    }
                    break;
                }
                case kRControl: {
                    const NodeId v = e.node;
                    if (!fsession_.node_up(v)) {
                        ++r_suppressed_;
                        break;
                    }
                    if (!recovery_on()) break;
                    const RControl msg = controls_[e.payload];
                    if (msg.kind == kBeaconMsgR) {
                        if (received_[v]) break;  // nothing missing here
                        gap_source_[v] = msg.sender;
                        if (!nack_armed_[v] && nacks_n_[v] < recovery_->max_nacks) {
                            nack_armed_[v] = 1;
                            const double backoff =
                                recovery_->nack_delay *
                                std::pow(recovery_->backoff_factor,
                                         static_cast<double>(nacks_n_[v]));
                            push_revent(e.time + backoff, kRTimer, v, kNackTimerR);
                        }
                    } else {
                        if (!received_[v]) break;  // stale NACK: no packet here
                        if (repairs_n_[v] >= recovery_->retransmit_budget) break;
                        ++repairs_n_[v];
                        resend_resilient(v, e.time);
                    }
                    break;
                }
                default: break;
            }
        }
    }

    result.completion_time = completion;
    result.order_digest = generic_digest_;
    result.forward_count =
        static_cast<std::size_t>(std::count(forwarded_.begin(), forwarded_.end(), 1));
    result.received_count =
        static_cast<std::size_t>(std::count(received_.begin(), received_.end(), 1));
    result.full_delivery = result.received_count == n;
    result.retransmit_count = r_retransmit_;
    result.control_count = r_control_;
    result.fault_suppressed = r_suppressed_;
    result.down = fsession_.down_mask();
    return result;
}

ScaleResult ScaleEngine::run(NodeId source) {
    const std::size_t n = graph_.node_count();
    if (n > 0 && source >= n) {
        throw std::invalid_argument("ScaleEngine::run: source " + std::to_string(source) +
                                    " is not a node of the " + std::to_string(n) +
                                    "-node graph");
    }
    // Any attached plan (even an empty one) or armed recovery layer routes
    // through the serial windowed replay — the reference machine's
    // broadcast_resilient always runs with an active fault session, and
    // byte-parity requires mirroring that mode exactly.
    if (fault_plan_ != nullptr || recovery_on()) return run_resilient(source);

    std::fill(received_.begin(), received_.end(), 0);
    std::fill(forwarded_.begin(), forwarded_.end(), 0);
    std::fill(chain_len_.begin(), chain_len_.end(), 0);

    ScaleResult result;
    if (n == 0) return result;

    // The source transmits unconditionally at t = 0 (paper Section 5).
    received_[source] = 1;
    forwarded_[source] = 1;
    if (const std::size_t h = chain_stride(); h > 0) {
        chain_[std::size_t{source} * h] = source;
        chain_len_[source] = 1;
    }
    merge_.assign(1, source);

    std::optional<PhaseCrew> crew;
    std::uint64_t digest = kDigestBasis;
    // The transmit instant of `merge_`, accumulated by repeated addition
    // exactly as the Simulator accumulates now_ + delay — bit-equality of
    // times (hence digests) is preserved.
    double now = 0.0;

    while (true) {
        // Serial step: `merge_` holds the window's forwarders in the order
        // the reference Simulator transmits them.  Fold each transmission
        // into the digest and stage its fanout along the sorted adjacency
        // row, numbering copies in that global order — the Simulator's
        // insertion sequence for the next window.  At 10^6 nodes the step
        // waits on two dependent cache misses per sender (row header, then
        // row); prefetching the row of a sender a few places ahead overlaps
        // them.
        for (std::vector<Staged>& bucket : buckets_) bucket.clear();
        std::uint32_t seq = 0;
        constexpr std::size_t kAhead = 8;
        for (std::size_t i = 0; i < merge_.size(); ++i) {
            if (i + kAhead < merge_.size()) {
                const auto ahead = static_cast<NodeId>(merge_[i + kAhead]);
                __builtin_prefetch(graph_.neighbors(ahead).data());
            }
            const auto v = static_cast<NodeId>(merge_[i]);
            digest = mix(digest, std::bit_cast<std::uint64_t>(now));
            digest = mix(digest, v);
            for (NodeId x : graph_.neighbors(v)) {
                buckets_[wheel_of(x)].push_back({seq++, x, v});
            }
        }
        result.peak_queue_events = std::max<std::size_t>(result.peak_queue_events, seq);
        if (seq == 0) break;
        now += config_.delay;
        ++result.windows;
        result.delivered_events += seq;
        result.completion_time = now;

        if (config_.jobs > 1 && seq >= kParallelWindow) {
            if (!crew) crew.emplace(config_.jobs, config_.wheels);
            crew->run_phase([&](std::size_t w, std::size_t worker) { scan_wheel(w, worker); });
        } else {
            for (std::size_t w = 0; w < config_.wheels; ++w) scan_wheel(w, 0);
        }

        // Each wheel's forwarders ascend by the sequence of their first
        // receipt; merged, they are the next window's transmission order.
        merge_.clear();
        for (const WheelScratch& ws : scratch_) {
            merge_.insert(merge_.end(), ws.forwarders.begin(), ws.forwarders.end());
        }
        std::sort(merge_.begin(), merge_.end());
    }

    result.order_digest = digest;
    result.forward_count =
        static_cast<std::size_t>(std::count(forwarded_.begin(), forwarded_.end(), 1));
    result.received_count =
        static_cast<std::size_t>(std::count(received_.begin(), received_.end(), 1));
    result.full_delivery = result.received_count == n;
    return result;
}

std::size_t ScaleEngine::state_bytes() const noexcept {
    std::size_t bytes = received_.capacity() + forwarded_.capacity();
    for (const std::vector<Staged>& bucket : buckets_) {
        bytes += bucket.capacity() * sizeof(Staged);
    }
    bytes += chain_.capacity() * sizeof(NodeId) +
             chain_len_.capacity() * sizeof(std::uint32_t) +
             merge_.capacity() * sizeof(std::uint64_t);
    for (const WheelScratch& ws : scratch_) {
        bytes += ws.fresh.capacity() * sizeof(NodeId) +
                 ws.forwarders.capacity() * sizeof(std::uint64_t);
    }
    for (const DecideScratch& ds : deciders_) {
        bytes += ds.visited.capacity() * sizeof(NodeId) + ds.ball.bytes();
    }
    bytes += cal_.capacity() * sizeof(Bucket) +
             chunks_.capacity() * sizeof(std::unique_ptr<Chunk>) +
             chunks_.size() * sizeof(Chunk) +
             free_chunks_.capacity() * sizeof(std::uint32_t) +
             work_.capacity() * sizeof(REvent) +
             packets_.capacity() * sizeof(RPacket) +
             controls_.capacity() * sizeof(RControl) +
             r_chain_.capacity() * sizeof(NodeId) +
             held_pkt_.capacity() * sizeof(std::uint32_t) +
             beacons_n_.capacity() * sizeof(std::uint32_t) +
             nacks_n_.capacity() * sizeof(std::uint32_t) +
             nack_armed_.capacity() +
             gap_source_.capacity() * sizeof(NodeId) +
             repairs_n_.capacity() * sizeof(std::uint32_t) +
             pre_stamp_.capacity() * sizeof(std::uint32_t) +
             pre_pkt_.capacity() * sizeof(std::uint32_t) +
             pre_dec_.capacity();
    return bytes;
}

}  // namespace adhoc
