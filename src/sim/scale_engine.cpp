#include "sim/scale_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/coverage.hpp"
#include "core/view.hpp"

namespace adhoc {

namespace {

/// Reusable fork-join crew for the generic decision pre-scan.  A run may
/// execute hundreds of short phases (one per wide window); spawning threads
/// per phase costs more than the phase itself, so the workers persist for
/// the whole run and rendezvous on an epoch counter.  Wheels are claimed
/// from an atomic cursor, each exactly once, and `fn(wheel, worker)` gets
/// the claiming worker's index in [0, crew size) — the calling thread is
/// worker 0 — so per-worker scratch needs no locking.  `run_phase` returns
/// only after every worker has checked the phase in (the acquire on `done_`
/// is the barrier that publishes every wheel's writes to the replay).  Idle
/// workers park on `epoch_` and the caller on `done_`
/// (`std::atomic::wait`), so a crew between phases burns no CPU.  An
/// exception from `fn` ends the phase's claims and `run_phase` rethrows it
/// on the calling thread.
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
        if (error_) rethrow();
    }

  private:
    // `claim` and `rethrow` stay out of line: inlined into
    // `ScaleEngine::run`, their exception handling moved the replay loop's
    // code, and perfbench's scale workloads read 3-6% slower.
    [[gnu::cold, gnu::noinline]] void rethrow() {
        std::rethrow_exception(std::exchange(error_, nullptr));
    }

    [[gnu::noinline]] void claim(std::size_t worker) {
        try {
            for (std::size_t i;
                 (i = next_.fetch_add(1, std::memory_order_relaxed)) < wheel_count_;) {
                fn_(i, worker);
            }
        } catch (...) {
            // The first failure ends the phase's claims; `run_phase`
            // rethrows it on the calling thread.
            const std::lock_guard lock(error_mutex_);
            if (!error_) error_ = std::current_exception();
            next_.store(wheel_count_, std::memory_order_relaxed);
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
    std::mutex error_mutex_;
    std::exception_ptr error_;
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

/// Windows whose event count cannot amortize a barrier rendezvous are
/// decided inline by the replay.  Both paths compute the identical result,
/// so the adaptive choice never shows in counts or digests.
inline constexpr std::size_t kParallelWindow = 4096;

/// Calendar horizon for *plan* event times (engine-generated events are
/// bounded by the run's own dynamics).  The calendar keeps one 32-byte
/// bucket header per window up to the furthest event, so a plan at the
/// horizon costs ~32 MB of headers — far past any real schedule, cheap
/// enough to keep the resize in push_to unconditional.  Event storage is
/// chunked and recycled, so it does not scale with the horizon.
inline constexpr std::size_t kMaxWindows = std::size_t{1} << 20;

// Event.kind values.  The numeric order is irrelevant: a window replays in
// (time, seq) order only, which is the reference EventQueue's pop order.
inline constexpr std::uint32_t kFault = 0;
inline constexpr std::uint32_t kDelivery = 1;
inline constexpr std::uint32_t kTimer = 2;
inline constexpr std::uint32_t kControl = 3;
// kTimer payloads / kControl message kinds (RecoveryAgent's state machine).
inline constexpr std::uint32_t kBeaconTimer = 0;
inline constexpr std::uint32_t kNackTimer = 1;
inline constexpr std::uint32_t kBeaconMsg = 0;
inline constexpr std::uint32_t kNackMsg = 1;
/// `transmit`'s base and `held_pkt_`'s value for the source, whose initial
/// state carries an empty history chain.
inline constexpr std::uint32_t kNoPacket = 0xffffffffu;

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
    const std::size_t n = graph.node_count();
    // A calendar event packs its node id into 30 bits.
    if (n > (std::size_t{1} << 30)) {
        throw std::invalid_argument("graph node count = " + std::to_string(n) +
                                    ": calendar events keep node ids in 30 bits — "
                                    "use at most 1073741824 nodes");
    }
    config_.wheels = std::min(config_.wheels, std::max<std::size_t>(n, 1));
    block_ = (n + config_.wheels - 1) / config_.wheels;
    if (block_ == 0) block_ = 1;
    received_.assign(n, 0);
    forwarded_.assign(n, 0);
    fresh_.resize(config_.wheels);
    deciders_.resize(PhaseCrew::crew_size(config_.jobs, config_.wheels));

    if (config_.policy == ScalePolicy::kGenericCoverage) {
        validate_generic_config();
        keys_ = PriorityKeys(graph_, config_.generic.priority);
        chained_ = config_.generic.timing == Timing::kFirstReceipt;
    }
}

ScaleEngine::~ScaleEngine() = default;

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

bool ScaleEngine::decide(DecideScratch& ds, NodeId v, std::uint32_t payload) {
    switch (config_.policy) {
        case ScalePolicy::kFlood: return true;
        case ScalePolicy::kSelfPrune: return !covered_by(v, payload);
        case ScalePolicy::kGenericCoverage: break;
    }
    // Decision-time visited set.  Static: empty (the static forward set is
    // computed over all-unvisited views).  First-receipt: exactly what the
    // first received packet carries — its chain, which ends with the
    // sender, or the sender alone for a history-0 packet.
    ds.visited.clear();
    if (chained_) {
        const auto pkt = packets_.begin() + payload;
        ds.visited.assign(pkt + 1, pkt + 1 + std::max<std::uint32_t>(*pkt, 1));
    }
    return !ball_covered(graph_, v, config_.generic.hops, keys_, ds.visited,
                         config_.generic.coverage, ds.ball);
}

std::size_t ScaleEngine::window_index(double time) const noexcept {
    // Snap near-integer quotients to the boundary (delivery and timer
    // instants are exact multiples of delay, but plan times and backoff
    // products may carry FP noise), otherwise round up: an event at time t
    // fires at the first window boundary >= t.  (q >= 0, and floor(q + 0.5)
    // is the nearest integer whenever it is within the snap distance.)
    const double q = time / config_.delay;
    const double r = std::floor(q + 0.5);
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

void ScaleEngine::push(double time, std::uint32_t kind, NodeId node, std::uint32_t payload) {
    const std::size_t w = window_index(time);
    note_time(w, time);
    push_to(w, time, kind, node, payload);
}

void ScaleEngine::note_time(std::size_t w, double time) {
    // Pushes come in insertion-sequence order, so a bucket stays in
    // (time, seq) pop order unless a time falls below its predecessor.
    if (w >= cal_.size() || cal_[w].count == 0) return;
    Bucket& bucket = cal_[w];
    const std::size_t slot = bucket.count % kChunkEvents;
    if (time < bucket.tail->events[(slot == 0 ? kChunkEvents : slot) - 1].time) {
        bucket.sorted = false;
    }
}

void ScaleEngine::push_to(std::size_t w, double time, std::uint32_t kind, NodeId node,
                          std::uint32_t payload) {
    if (cal_.size() <= w) cal_.resize(w + 1);
    Bucket& bucket = cal_[w];
    const std::size_t slot = bucket.count % kChunkEvents;
    if (slot == 0) add_chunk(bucket);  // first event, or the tail chunk is full
    bucket.tail->events[slot] = {time, node << 2 | kind, payload};
    ++bucket.count;
    ++pending_;
}

void ScaleEngine::add_chunk(Bucket& bucket) {
    if (free_chunks_.empty()) {
        chunks_.push_back(std::make_unique<Chunk>());
        free_chunks_.push_back(chunks_.back().get());
    }
    Chunk* const c = free_chunks_.back();
    free_chunks_.pop_back();
    (bucket.count == 0 ? bucket.first : bucket.tail->next) = c;
    bucket.tail = c;
}

void ScaleEngine::open_window(std::size_t w) {
    const Bucket bucket = std::exchange(cal_[w], Bucket{});
    pending_ -= bucket.count;
    spans_.clear();
    Chunk* c = bucket.first;
    for (std::size_t left = bucket.count; left > 0; c = c->next) {
        const std::size_t take = std::min(left, kChunkEvents);
        spans_.push_back({c->events, take, c});
        left -= take;
    }
    if (bucket.sorted) return;
    // Events of one window whose times differ in their last bits (FP noise
    // in accumulated instants): replay a copy sorted by time.  The sort is
    // stable and the copy is in insertion-sequence order, so ties keep
    // (time, seq) order.
    work_.clear();
    for (const Span& span : spans_) {
        work_.insert(work_.end(), span.events, span.events + span.count);
        free_chunks_.push_back(span.chunk);
    }
    std::stable_sort(work_.begin(), work_.end(),
                     [](const Event& a, const Event& b) { return a.time < b.time; });
    spans_.assign(1, {work_.data(), work_.size(), nullptr});
}

void ScaleEngine::fanout(NodeId sender, std::uint32_t kind, std::uint32_t payload,
                         NodeId only_target, double next_time) {
    // Mirrors Simulator::schedule_deliveries exactly: the target skip comes
    // before fault gating (no loss draw for skipped neighbors), and a down
    // link short-circuits the draw (|| in the reference) so the counter
    // stream position stays identical.
    const std::size_t w = window_index(next_time);  // one instant per fanout
    note_time(w, next_time);
    for (NodeId nbr : graph_.neighbors(sender)) {
        if (only_target != kInvalidNode && nbr != only_target) continue;
        if (faults_live_ &&
            (!fsession_.link_up(sender, nbr) || fsession_.drop_directed(sender, nbr))) {
            ++result_.fault_suppressed;
            continue;
        }
        push_to(w, next_time, kind, nbr, payload);
    }
}

std::uint32_t ScaleEngine::make_packet(NodeId v, std::size_t history, std::uint32_t base) {
    // packet.cpp chain_state semantics: the last `history` entries of
    // (first received chain + v), which is the last history-1 of the base
    // plus v itself.  v is stored even at history 0 (see packets_).
    const std::uint32_t base_len = base == kNoPacket ? 0 : packets_[base];
    const auto keep = static_cast<std::uint32_t>(
        history == 0 ? 0 : std::min<std::size_t>(base_len, history - 1));
    const auto pid = static_cast<std::uint32_t>(packets_.size());
    packets_.push_back(history == 0 ? 0 : keep + 1);
    for (std::uint32_t i = 0; i < keep; ++i) {
        packets_.push_back(packets_[base + 1 + base_len - keep + i]);
    }
    packets_.push_back(v);
    return pid;
}

void ScaleEngine::transmit(NodeId v, double now, std::uint32_t base) {
    forwarded_[v] = 1;
    received_[v] = 1;
    result_.order_digest = mix(result_.order_digest, std::bit_cast<std::uint64_t>(now));
    result_.order_digest = mix(result_.order_digest, v);
    // Unless packets carry a chain, the packet is just its sender.
    const std::uint32_t pkt = chained_ ? make_packet(v, config_.generic.history, base) : v;
    fanout(v, kDelivery, pkt, kInvalidNode, now + config_.delay);
}

void ScaleEngine::resend(NodeId v, double now) {
    // Mirrors Simulator::resend: accounted separately, not a forward, and
    // NOT folded into the order digest (the reference digest folds
    // kTransmit trace events only).  The repair carries the chain of the
    // holder's *first received* state at the recovery layer's own depth.
    ++result_.retransmit_count;
    received_[v] = 1;
    const std::uint32_t pkt = chained_ ? make_packet(v, recovery_->history, held_pkt_[v]) : v;
    fanout(v, kDelivery, pkt, kInvalidNode, now + config_.delay);
}

ScaleResult ScaleEngine::run(NodeId source) {
    const std::size_t n = graph_.node_count();
    if (n > 0 && source >= n) {
        throw std::invalid_argument("ScaleEngine::run: source " + std::to_string(source) +
                                    " is not a node of the " + std::to_string(n) +
                                    "-node graph");
    }
    result_ = ScaleResult{};
    if (n == 0) return result_;

    std::fill(received_.begin(), received_.end(), 0);
    std::fill(forwarded_.begin(), forwarded_.end(), 0);
    // Every chunk is free at run start (a run cut short by an exception
    // may have left some queued); the header array restarts empty.
    cal_.clear();
    free_chunks_.clear();
    for (const std::unique_ptr<Chunk>& c : chunks_) free_chunks_.push_back(c.get());
    pending_ = 0;
    packets_.clear();
    controls_.clear();
    result_.order_digest = kDigestBasis;
    const bool recovery = recovery_on();
    const bool beacons = recovery && recovery_->max_beacons > 0;
    if (recovery) {
        if (chained_) held_pkt_.assign(n, kNoPacket);
        beacons_n_.assign(n, 0);
        nacks_n_.assign(n, 0);
        nack_armed_.assign(n, 0);
        gap_source_.assign(n, kInvalidNode);
        repairs_n_.assign(n, 0);
    }

    // Queue the whole fault schedule first: these events carry the globally
    // lowest insertion sequences, so a crash always beats same-instant
    // deliveries — exactly Simulator::begin's push order.
    const faults::FaultPlan* plan = fault_plan_;
    faults_live_ = plan != nullptr && (!plan->events.empty() || !plan->asymmetry.empty());
    if (faults_live_) {
        fsession_.reset(*plan, n);
        for (std::size_t i = 0; i < plan->events.size(); ++i) {
            // The payload names the plan event; node 0 keeps the replay's
            // prefetch inside the graph (link events name no node).
            push(std::max(plan->events[i].time, 0.0), kFault, 0, static_cast<std::uint32_t>(i));
        }
    }

    // begin(): the agent's start() runs before any event pops, so the
    // source transmits unconditionally (no fault has been applied yet);
    // then — RecoveryAgent::start order — the source's holder beacon arms
    // AFTER the fanout's insertion sequences.
    transmit(source, 0.0, kNoPacket);
    if (beacons) push(recovery_->beacon_interval, kTimer, source, kBeaconTimer);

    const bool generic = config_.policy == ScalePolicy::kGenericCoverage;
    std::optional<PhaseCrew> crew;
    double completion = 0.0;

    for (std::size_t w = 0; pending_ > 0 && w < cal_.size(); ++w) {
        if (cal_[w].count == 0) continue;
        result_.peak_queue_events = std::max(result_.peak_queue_events, pending_);
        ++result_.windows;
        const std::size_t events = cal_[w].count;
        open_window(w);

        // Parallel decision pre-scan: a coverage decision is a pure
        // function of (node, packet), so each node's first in-window
        // delivery (spans are in pop order) is decided per wheel on the
        // crew, and the replay takes the verdict when the node's first
        // receipt turns out to carry that very packet.
        const bool prescan = generic && config_.jobs > 1 && events >= kParallelWindow;
        if (prescan) {
            if (pre_stamp_.size() != n) {
                pre_stamp_.assign(n, 0);
                pre_pkt_.resize(n);
                pre_dec_.resize(n);
                pre_epoch_ = 0;
            }
            if (++pre_epoch_ == 0) {  // wrap: invalidate everything once
                std::fill(pre_stamp_.begin(), pre_stamp_.end(), 0);
                pre_epoch_ = 1;
            }
            for (std::vector<NodeId>& fresh : fresh_) fresh.clear();
            for (const Span& span : spans_) {
                for (const Event& e : std::span(span.events, span.count)) {
                    const NodeId v = e.node();
                    if (e.kind() != kDelivery || received_[v] || pre_stamp_[v] == pre_epoch_ ||
                        !up(v)) {
                        continue;
                    }
                    pre_stamp_[v] = pre_epoch_;
                    pre_pkt_[v] = e.payload;
                    fresh_[wheel_of(v)].push_back(v);
                }
            }
            if (!crew) {
                // Every worker's O(n) scratch is sized with the crew, not
                // on the worker's first decision, which the scheduler
                // decides.
                crew.emplace(config_.jobs, config_.wheels);
                for (DecideScratch& ds : deciders_) ds.ball.fit(n);
            }
            crew->run_phase([&](std::size_t wi, std::size_t worker) {
                for (NodeId v : fresh_[wi]) {
                    pre_dec_[v] = decide(deciders_[worker], v, pre_pkt_[v]) ? 1 : 0;
                }
            });
        }

        // Serial replay in pop order; a chunk goes back to the free list
        // once replayed, so this window's pushes into later ones reuse it.
        // A first receipt reads the node's adjacency row (its decision and
        // its fanout): two dependent cache misses at 10^6 nodes, so the row
        // of the node a few events ahead is prefetched.  Doing it for every
        // event is cheaper than testing which ones are fresh.
        constexpr std::size_t kAhead = 8;
        for (const Span& span : spans_) {
            for (std::size_t j = 0; j < span.count; ++j) {
                if (j + kAhead < span.count) {
                    __builtin_prefetch(graph_.neighbors(span.events[j + kAhead].node()).data());
                }
                const Event& e = span.events[j];
                completion = std::max(completion, e.time);
                const NodeId v = e.node();
                switch (e.kind()) {
                    case kFault:
                        fsession_.apply(plan->events[e.payload]);
                        break;
                    case kDelivery: {
                        ++result_.delivered_events;
                        if (!up(v)) {
                            ++result_.fault_suppressed;
                            break;
                        }
                        if (received_[v]) break;  // duplicate copy: snooped only
                        received_[v] = 1;
                        if (recovery && chained_) held_pkt_[v] = e.payload;
                        // RecoveryAgent::on_receive arms the holder beacon
                        // BEFORE the inner agent's fanout sequences.
                        if (beacons) {
                            push(e.time + recovery_->beacon_interval, kTimer, v, kBeaconTimer);
                        }
                        const bool forward =
                            prescan && pre_stamp_[v] == pre_epoch_ && pre_pkt_[v] == e.payload
                                ? pre_dec_[v] != 0
                                : decide(deciders_[0], v, e.payload);
                        if (forward) transmit(v, e.time, e.payload);
                        break;
                    }
                    case kTimer: {
                        if (!up(v)) {
                            ++result_.fault_suppressed;  // timers die with their node
                            break;
                        }
                        if (!recovery) break;
                        if (e.payload == kBeaconTimer) {
                            if (!received_[v]) break;  // not a holder
                            ++result_.control_count;
                            const auto cid = static_cast<std::uint32_t>(controls_.size());
                            controls_.push_back({v, kBeaconMsg});
                            fanout(v, kControl, cid, kInvalidNode, e.time + config_.delay);
                            if (++beacons_n_[v] < recovery_->max_beacons) {
                                push(e.time + recovery_->beacon_interval, kTimer, v,
                                     kBeaconTimer);
                            }
                        } else {
                            nack_armed_[v] = 0;
                            if (received_[v]) break;  // healed while waiting
                            if (gap_source_[v] == kInvalidNode) break;
                            ++result_.control_count;
                            const auto cid = static_cast<std::uint32_t>(controls_.size());
                            controls_.push_back({v, kNackMsg});
                            fanout(v, kControl, cid, gap_source_[v], e.time + config_.delay);
                            if (++nacks_n_[v] < recovery_->max_nacks) {
                                // Re-arm under exponential backoff (the
                                // repair or the next beacon may be lost
                                // too) — note the post-increment exponent,
                                // vs the pre-increment one on beacon
                                // receipt.
                                nack_armed_[v] = 1;
                                const double backoff =
                                    recovery_->nack_delay *
                                    std::pow(recovery_->backoff_factor,
                                             static_cast<double>(nacks_n_[v]));
                                push(e.time + backoff, kTimer, v, kNackTimer);
                            }
                        }
                        break;
                    }
                    case kControl: {
                        if (!up(v)) {
                            ++result_.fault_suppressed;
                            break;
                        }
                        if (!recovery) break;
                        const Control msg = controls_[e.payload];
                        if (msg.kind == kBeaconMsg) {
                            if (received_[v]) break;  // nothing missing here
                            gap_source_[v] = msg.sender;
                            if (!nack_armed_[v] && nacks_n_[v] < recovery_->max_nacks) {
                                nack_armed_[v] = 1;
                                const double backoff =
                                    recovery_->nack_delay *
                                    std::pow(recovery_->backoff_factor,
                                             static_cast<double>(nacks_n_[v]));
                                push(e.time + backoff, kTimer, v, kNackTimer);
                            }
                        } else {
                            if (!received_[v]) break;  // stale NACK: no packet here
                            if (repairs_n_[v] >= recovery_->retransmit_budget) break;
                            ++repairs_n_[v];
                            resend(v, e.time);
                        }
                        break;
                    }
                    default: break;
                }
            }
            if (span.chunk != nullptr) free_chunks_.push_back(span.chunk);
        }
    }

    result_.completion_time = completion;
    result_.forward_count =
        static_cast<std::size_t>(std::count(forwarded_.begin(), forwarded_.end(), 1));
    result_.received_count =
        static_cast<std::size_t>(std::count(received_.begin(), received_.end(), 1));
    result_.full_delivery = result_.received_count == n;
    if (faults_live_) {
        result_.down = fsession_.down_mask();
    } else if (plan != nullptr || recovery) {
        result_.down.assign(n, 0);  // a session over a plan that faults nothing
    }
    return std::exchange(result_, ScaleResult{});
}

std::size_t ScaleEngine::state_bytes() const noexcept {
    std::size_t bytes = received_.capacity() + forwarded_.capacity();
    for (const std::vector<NodeId>& fresh : fresh_) bytes += fresh.capacity() * sizeof(NodeId);
    // Every worker's O(n) arrays are sized with the crew.  Which worker
    // decides which ball is up to the scheduler, so each per-ball buffer
    // counts once, at the largest need of any worker: the visited set and
    // the masks are grown to exactly that need, and the BFS queue counts
    // its need, not its capacity, which depends on the order of the balls.
    std::size_t visited = 0;
    std::size_t queue = 0;
    std::size_t masks = 0;
    for (const DecideScratch& ds : deciders_) {
        const BallScratch& b = ds.ball;
        bytes += b.stamp.capacity() * sizeof(std::uint32_t) +
                 b.dist.capacity() * sizeof(std::uint16_t) +
                 b.g2l.capacity() * sizeof(std::uint32_t);
        visited = std::max(visited, ds.visited.capacity());
        queue = std::max(queue, b.queue_need);
        masks = std::max(masks, b.masks.capacity());
    }
    bytes += (visited + queue) * sizeof(NodeId) + masks * sizeof(std::uint64_t);
    bytes += cal_.capacity() * sizeof(Bucket) +
             chunks_.capacity() * sizeof(std::unique_ptr<Chunk>) +
             chunks_.size() * sizeof(Chunk) +
             free_chunks_.capacity() * sizeof(Chunk*) +
             spans_.capacity() * sizeof(Span) + work_.capacity() * sizeof(Event) +
             packets_.size() * sizeof(std::uint32_t) +
             controls_.capacity() * sizeof(Control) +
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
