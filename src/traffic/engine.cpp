#include "traffic/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hpp"

namespace adhoc::traffic {

namespace {



const telemetry::MetricId kMetricSessions = telemetry::counter("traffic.sessions");
const telemetry::MetricId kMetricDeliveries = telemetry::counter("traffic.deliveries");
const telemetry::MetricId kMetricDuplicates = telemetry::counter("traffic.duplicates");
const telemetry::MetricId kMetricDataTx = telemetry::counter("traffic.data.tx");
const telemetry::MetricId kMetricDataBytes = telemetry::counter("traffic.data.bytes", "bytes");
const telemetry::MetricId kMetricBeacons = telemetry::counter("traffic.sv.beacons");
const telemetry::MetricId kMetricControlBytes = telemetry::counter("traffic.sv.bytes", "bytes");
const telemetry::MetricId kMetricPulls = telemetry::counter("traffic.pulls");
const telemetry::MetricId kMetricRepairs = telemetry::counter("traffic.repairs");
const telemetry::MetricId kMetricEvictions = telemetry::counter("traffic.cache.evictions");
const telemetry::MetricId kMetricCacheBytes = telemetry::gauge("traffic.cache.bytes", "bytes");
const telemetry::MetricId kMetricMemoHits = telemetry::counter("traffic.policy.memo_hits");
const telemetry::MetricId kMetricMemoMisses = telemetry::counter("traffic.policy.memo_misses");

// Per-packet wire accounting (documented in docs/TRAFFIC.md): a data
// packet is an 8-byte (source, seq) header plus 4 bytes per piggybacked
// history id; a pull request is a 4-byte header plus 8 bytes per key.
constexpr std::size_t kDataHeaderBytes = 8;
constexpr std::size_t kHistIdBytes = 4;
constexpr std::size_t kPullHeaderBytes = 4;
constexpr std::size_t kPullKeyBytes = 8;

telemetry::MetricId latency_metric() {
    static const telemetry::MetricId id =
        telemetry::histogram("traffic.session_latency", latency_bounds(), "time");
    return id;
}

}  // namespace

const std::vector<std::uint64_t>& latency_bounds() {
    static const std::vector<std::uint64_t> bounds = {1,  2,  3,  4,  6,  8,
                                                      12, 16, 24, 32, 48, 64};
    return bounds;
}

struct TrafficEngine::RunState {
    const Workload* wl = nullptr;
    std::size_t n = 0;

    std::vector<DupCache> caches;
    // Flat bit arenas, `sessions x n` bits each: per-session per-node flags
    // without per-session allocation.
    std::vector<std::uint64_t> received;   ///< payload delivered to the node
    std::vector<std::uint64_t> forwarded;  ///< node already relayed the session
    std::vector<std::uint64_t> pulled;     ///< node already pulled the session

    /// (source, seq) -> session index; seqs are dense per source.
    std::vector<std::vector<std::uint32_t>> session_of;

    std::vector<Packet> packets;
    std::vector<Control> controls;
    std::vector<std::size_t> repairs;  ///< repairs served, per node

    EventQueue queue;
    faults::FaultSession fault;
    TrafficResult result;

    [[nodiscard]] bool bit(const std::vector<std::uint64_t>& arena, std::size_t session,
                           NodeId v) const {
        const std::size_t i = session * n + v;
        return (arena[i >> 6] >> (i & 63)) & 1;
    }
    void set_bit(std::vector<std::uint64_t>& arena, std::size_t session, NodeId v) {
        const std::size_t i = session * n + v;
        arena[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    [[nodiscard]] bool node_up(NodeId v) const {
        return !fault.active() || fault.node_up(v);
    }
    [[nodiscard]] bool link_ok(NodeId a, NodeId b) const {
        return !fault.active() || fault.link_up(a, b);
    }
    [[nodiscard]] bool dropped(NodeId from, NodeId to) {
        return fault.active() && fault.drop_directed(from, to);
    }

    /// Session index for an advertised key, or npos for unknown ids.
    [[nodiscard]] std::size_t session_index(SessionKey key) const {
        if (key.source >= session_of.size()) return npos;
        const auto& row = session_of[key.source];
        if (key.seq >= row.size()) return npos;
        return row[key.seq];
    }
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

TrafficEngine::TrafficEngine(const Graph& g, const ForwardPolicy& policy, EngineConfig config)
    : graph_(&g), policy_(&policy), config_(config), medium_(config.medium) {
    if (config_.history > kMaxHistory) {
        throw std::invalid_argument("traffic::EngineConfig::history is " +
                                    std::to_string(config_.history) + ", above the maximum of " +
                                    std::to_string(kMaxHistory));
    }
}

void TrafficEngine::transmit_data(RunState& rs, std::uint32_t session, NodeId sender,
                                  std::span<const NodeId> hist, double now, Rng& rng) {
    Packet packet;
    packet.session = session;
    packet.sender = sender;
    packet.hist_count = static_cast<std::uint8_t>(std::min(hist.size(), config_.history));
    // Keep the most recent `history` forwarders; the sender is always last.
    const std::size_t skip = hist.size() - packet.hist_count;
    for (std::size_t i = 0; i < packet.hist_count; ++i) packet.hist[i] = hist[skip + i];

    rs.packets.push_back(packet);
    const std::size_t index = rs.packets.size() - 1;
    rs.result.data_transmissions += 1;
    rs.result.data_bytes += kDataHeaderBytes + kHistIdBytes * packet.hist_count;

    for (const NodeId u : graph_->neighbors(sender)) {
        if (!rs.link_ok(sender, u)) continue;
        if (rs.dropped(sender, u)) continue;
        const auto at = medium_.delivery_time(now, rng);
        if (!at) continue;
        rs.queue.push(*at, EventKind::kDelivery, u, index);
    }
}

void TrafficEngine::deliver_data(RunState& rs, NodeId node, const Packet& packet, double now,
                                 Rng& rng) {
    if (!rs.node_up(node)) return;  // crashed nodes neither receive nor store

    const std::size_t session = packet.session;
    const SessionKey key = rs.wl->key(session);
    const CacheInsert inserted = rs.caches[node].insert(key.source, key.seq);
    const bool fresh = inserted == CacheInsert::kNew && !rs.bit(rs.received, session, node);
    if (inserted != CacheInsert::kNew) {
        rs.result.duplicates_suppressed += 1;
    }
    if (fresh) {
        rs.set_bit(rs.received, session, node);
        rs.result.fresh_deliveries += 1;
        auto& out = rs.result.sessions[session];
        out.last_delivery = std::max(out.last_delivery, now);
    }

    // Forward at most once per (session, node), and only on a genuinely
    // fresh receipt — an LRU-evicted id coming back is not new traffic.
    if (!fresh || rs.bit(rs.forwarded, session, node)) return;
    std::array<NodeId, kMaxHistory + 1> visited{};
    std::size_t count = 0;
    for (std::size_t i = 0; i < packet.hist_count; ++i) visited[count++] = packet.hist[i];
    if (!policy_->should_forward(node, std::span<const NodeId>(visited.data(), count))) return;

    rs.set_bit(rs.forwarded, session, node);
    rs.result.sessions[session].forwards += 1;
    visited[count++] = node;
    transmit_data(rs, static_cast<std::uint32_t>(session), node,
                  std::span<const NodeId>(visited.data(), count), now, rng);
}

void TrafficEngine::beacon(RunState& rs, NodeId node, double now, Rng& rng) {
    if (!rs.node_up(node)) return;  // a recovered node resumes at its next tick
    SummaryVector sv = summarize(rs.caches[node]);
    if (sv.sources.empty()) return;

    rs.result.sv_beacons += 1;
    rs.result.control_bytes += encoded_size(sv);

    Control control;
    control.type = Control::kSummary;
    control.sender = node;
    control.sv = std::move(sv);
    rs.controls.push_back(std::move(control));
    const std::size_t index = rs.controls.size() - 1;

    for (const NodeId u : graph_->neighbors(node)) {
        if (!rs.link_ok(node, u)) continue;
        if (rs.dropped(node, u)) continue;
        const auto at = medium_.delivery_time(now, rng);
        if (!at) continue;
        rs.queue.push(*at, EventKind::kControl, u, index);
    }
}

void TrafficEngine::deliver_control(RunState& rs, NodeId node, std::size_t index, double now,
                                    Rng& rng) {
    if (!rs.node_up(node)) return;
    const Control& control = rs.controls[index];

    if (control.type == Control::kSummary) {
        // Diff the advertisement against our own holdings and pull the
        // gaps from the beaconing neighbor.  Each (session, node) pulls at
        // most once per run — the bound that keeps the exchange finite.
        const std::vector<SessionKey> gaps =
            missing_keys(control.sv, rs.caches[node], /*limit=*/0);
        std::vector<SessionKey> wants;
        for (const SessionKey key : gaps) {
            if (wants.size() >= config_.pull_batch) break;
            const std::size_t session = rs.session_index(key);
            if (session == RunState::npos) continue;
            if (rs.bit(rs.received, session, node)) continue;
            if (rs.bit(rs.pulled, session, node)) continue;
            rs.set_bit(rs.pulled, session, node);
            wants.push_back(key);
        }
        if (wants.empty()) return;

        rs.result.pulls_sent += wants.size();
        rs.result.control_bytes += kPullHeaderBytes + kPullKeyBytes * wants.size();

        Control pull;
        pull.type = Control::kPull;
        pull.sender = node;
        pull.wants = std::move(wants);
        const NodeId target = control.sender;
        rs.controls.push_back(std::move(pull));
        const std::size_t pull_index = rs.controls.size() - 1;

        if (!rs.link_ok(node, target)) return;
        if (rs.dropped(node, target)) return;
        const auto at = medium_.delivery_time(now, rng);
        if (!at) return;
        rs.queue.push(*at, EventKind::kControl, target, pull_index);
        return;
    }

    // Pull request: serve each still-held id as a targeted retransmission,
    // within this node's per-run repair budget.
    const NodeId requester = control.sender;
    for (const SessionKey key : control.wants) {
        if (rs.repairs[node] >= config_.pull_budget) break;
        if (!rs.caches[node].holds(key.source, key.seq)) continue;
        const std::size_t session = rs.session_index(key);
        if (session == RunState::npos) continue;

        rs.repairs[node] += 1;
        rs.result.repairs_served += 1;

        Packet packet;
        packet.session = static_cast<std::uint32_t>(session);
        packet.sender = node;
        packet.hist_count = 1;
        packet.hist[0] = node;
        rs.packets.push_back(packet);
        const std::size_t packet_index = rs.packets.size() - 1;
        rs.result.data_transmissions += 1;
        rs.result.data_bytes += kDataHeaderBytes + kHistIdBytes;

        if (!rs.link_ok(node, requester)) continue;
        if (rs.dropped(node, requester)) continue;
        const auto at = medium_.delivery_time(now, rng);
        if (!at) continue;
        rs.queue.push(*at, EventKind::kDelivery, requester, packet_index);
    }
}

void TrafficEngine::classify(RunState& rs) {
    const std::size_t n = rs.n;
    faults::FinalFaultState final_state;
    if (plan_ != nullptr) {
        final_state = faults::final_fault_state(*plan_, n);
    } else {
        final_state.node_down.assign(n, 0);
    }

    std::size_t up_count = 0;
    for (NodeId v = 0; v < n; ++v) {
        if (!final_state.node_down[v]) ++up_count;
    }

    const auto link_down = [&](NodeId a, NodeId b) {
        return std::binary_search(final_state.links_down.begin(), final_state.links_down.end(),
                                  canonical(Edge{a, b}));
    };

    // Reachability in the final faulted topology, memoized per source —
    // sessions share sources, so each BFS is computed once.
    std::vector<std::vector<char>> reach_by_source(n);
    const auto reach = [&](NodeId source) -> const std::vector<char>& {
        std::vector<char>& r = reach_by_source[source];
        if (!r.empty()) return r;
        r.assign(n, 0);
        if (final_state.node_down[source]) return r;  // down source: nothing reachable
        std::vector<NodeId> frontier{source};
        r[source] = 1;
        while (!frontier.empty()) {
            const NodeId v = frontier.back();
            frontier.pop_back();
            for (const NodeId u : graph_->neighbors(v)) {
                if (r[u] || final_state.node_down[u] || link_down(v, u)) continue;
                r[u] = 1;
                frontier.push_back(u);
            }
        }
        return r;
    };

    rs.result.latency_hist.assign(latency_bounds().size() + 1, 0);
    for (std::size_t i = 0; i < rs.result.sessions.size(); ++i) {
        SessionOutcome& out = rs.result.sessions[i];
        const std::vector<char>& r = reach(out.source);
        out.up_count = up_count;
        out.reachable_count = 0;
        out.delivered_up = 0;
        out.missed_reachable = 0;
        for (NodeId v = 0; v < n; ++v) {
            if (final_state.node_down[v]) continue;
            const bool has = rs.bit(rs.received, i, v);
            if (has) ++out.delivered_up;
            if (r[v]) {
                ++out.reachable_count;
                if (!has) ++out.missed_reachable;
            }
        }
        // Same three-way rule as faults::classify_outcome.
        if (out.missed_reachable > 0) {
            out.outcome = faults::DeliveryOutcome::kDegraded;
            rs.result.degraded += 1;
        } else if (out.delivered_up < up_count) {
            out.outcome = faults::DeliveryOutcome::kPartitioned;
            rs.result.partitioned += 1;
        } else {
            out.outcome = faults::DeliveryOutcome::kDelivered;
            rs.result.delivered += 1;
        }

        // Completion latency: sessions with at least one remote delivery.
        if (out.last_delivery > out.start_time) {
            const double latency = out.last_delivery - out.start_time;
            const auto sample = static_cast<std::uint64_t>(std::ceil(latency));
            const auto& bounds = latency_bounds();
            std::size_t slot = bounds.size();
            for (std::size_t b = 0; b < bounds.size(); ++b) {
                if (sample <= bounds[b]) {
                    slot = b;
                    break;
                }
            }
            rs.result.latency_hist[slot] += 1;
            telemetry::observe(latency_metric(), sample);
        }
    }
}

TrafficResult TrafficEngine::run(const Workload& wl, Rng& rng) {
    policy_->begin_run();
    RunState rs;
    rs.wl = &wl;
    rs.n = graph_->node_count();
    const std::size_t sessions = wl.arrivals.size();

    rs.caches.assign(rs.n, DupCache(config_.cache));
    const std::size_t words = (sessions * rs.n + 63) / 64;
    rs.received.assign(words, 0);
    rs.forwarded.assign(words, 0);
    rs.pulled.assign(words, 0);
    rs.repairs.assign(rs.n, 0);

    // Concurrent sessions keep roughly a propagation window of forwards
    // (avg-degree fanout each) in flight.
    const std::size_t avg_degree = rs.n > 0 ? 2 * graph_->edge_count() / rs.n : 0;
    rs.packets.reserve(64 + 2 * (1 + avg_degree));
    rs.controls.reserve(64 + 2 * (1 + avg_degree));

    rs.session_of.assign(rs.n, {});
    rs.result.sessions.resize(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
        const SessionArrival& a = wl.arrivals[i];
        auto& row = rs.session_of[a.source];
        assert(a.seq == row.size());
        row.push_back(static_cast<std::uint32_t>(i));
        auto& out = rs.result.sessions[i];
        out.source = a.source;
        out.seq = a.seq;
        out.start_time = a.start_time;
        out.last_delivery = a.start_time;
    }

    if (plan_ != nullptr) {
        rs.fault.reset(*plan_, rs.n);
        for (std::size_t i = 0; i < plan_->events.size(); ++i) {
            const faults::FaultEvent& ev = plan_->events[i];
            rs.queue.push(ev.time, EventKind::kFault, ev.node, i);
        }
    }

    // Arrivals: kTimer with payload (i << 1).  Beacons: kTimer payload 1,
    // staggered across nodes so summaries do not all fire at one instant.
    for (std::size_t i = 0; i < sessions; ++i) {
        rs.queue.push(wl.arrivals[i].start_time, EventKind::kTimer, wl.arrivals[i].source,
                      i << 1);
    }
    const double beacon_stop = wl.horizon + config_.sv_slack;
    if (config_.recovery && config_.sv_interval > 0.0) {
        for (NodeId v = 0; v < rs.n; ++v) {
            const double first =
                config_.sv_interval * (1.0 + static_cast<double>(v) / static_cast<double>(rs.n));
            if (first <= beacon_stop) rs.queue.push(first, EventKind::kTimer, v, 1);
        }
    }

    while (!rs.queue.empty()) {
        const Event ev = rs.queue.pop();
        rs.result.completion_time = ev.time;
        switch (ev.kind) {
            case EventKind::kFault:
                rs.fault.apply(plan_->events[ev.payload]);
                break;
            case EventKind::kTimer: {
                if (ev.payload & 1) {
                    beacon(rs, ev.node, ev.time, rng);
                    const double next = ev.time + config_.sv_interval;
                    if (next <= beacon_stop) rs.queue.push(next, EventKind::kTimer, ev.node, 1);
                    break;
                }
                // Session arrival at its source.  The source stores its own
                // message even while crashed (the DTN store persists), so a
                // later recovery can still seed the summary-vector plane;
                // it only transmits when up.
                const std::size_t session = ev.payload >> 1;
                const SessionKey key = wl.key(session);
                rs.caches[ev.node].insert(key.source, key.seq);
                if (!rs.bit(rs.received, session, ev.node)) {
                    rs.set_bit(rs.received, session, ev.node);
                    rs.result.fresh_deliveries += 1;
                }
                if (rs.node_up(ev.node) && !rs.bit(rs.forwarded, session, ev.node)) {
                    rs.set_bit(rs.forwarded, session, ev.node);
                    rs.result.sessions[session].forwards += 1;
                    const NodeId hist[1] = {ev.node};
                    transmit_data(rs, static_cast<std::uint32_t>(session), ev.node,
                                  std::span<const NodeId>(hist, 1), ev.time, rng);
                }
                break;
            }
            case EventKind::kDelivery:
                deliver_data(rs, ev.node, rs.packets[ev.payload], ev.time, rng);
                break;
            case EventKind::kControl:
                deliver_control(rs, ev.node, ev.payload, ev.time, rng);
                break;
        }
    }

    for (const DupCache& cache : rs.caches) {
        rs.result.cache_evictions += cache.evictions();
        rs.result.window_slides += cache.window_slides();
        rs.result.cache_peak_bytes = std::max(rs.result.cache_peak_bytes, cache.peak_bytes());
    }
    rs.result.cache_ceiling_bytes = rs.caches.empty() ? 0 : rs.caches.front().ceiling_bytes();

    classify(rs);

    telemetry::count(kMetricSessions, sessions);
    telemetry::count(kMetricDeliveries, rs.result.fresh_deliveries);
    telemetry::count(kMetricDuplicates, rs.result.duplicates_suppressed);
    telemetry::count(kMetricDataTx, rs.result.data_transmissions);
    telemetry::count(kMetricDataBytes, rs.result.data_bytes);
    telemetry::count(kMetricBeacons, rs.result.sv_beacons);
    telemetry::count(kMetricControlBytes, rs.result.control_bytes);
    telemetry::count(kMetricPulls, rs.result.pulls_sent);
    telemetry::count(kMetricRepairs, rs.result.repairs_served);
    telemetry::count(kMetricEvictions, rs.result.cache_evictions);
    telemetry::gauge_sample(kMetricCacheBytes, rs.result.cache_peak_bytes);
    const MemoStats memo = policy_->memo_stats();
    telemetry::count(kMetricMemoHits, memo.hits);
    telemetry::count(kMetricMemoMisses, memo.misses);

    return std::move(rs.result);
}

}  // namespace adhoc::traffic
