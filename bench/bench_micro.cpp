/// \file bench_micro.cpp
/// \brief Hot-path microbenchmarks: reference vs optimized kernels.
///
/// Times the decision/generation kernels that dominate campaign wall time,
/// each in two implementations — the retained `reference::` naive version
/// and the production node-mask/spatial-grid version — and verifies
/// during the same run that both produce identical results.  The
/// event_queue_ops kernel pushes random delays; event_queue_stream pushes
/// the fixed-delay delivery stream of floods, the shape the queue's lanes
/// serve.  The fault_session kernel runs at n and at 2n down links
/// (`fault_session_2n`), so its opt_ns ratio is the n vs 2n check.  The
/// summary_diff kernel times one beacon diff (`missing_keys`) against the
/// per-bit `holds` loop it replaced.  The policy_decision kernel replays
/// one seeded traffic run's stream of generic-fr decisions through
/// `CoveragePolicy`'s per-run memo, against a direct `reference::`
/// evaluation of each decision.  The compile_ball kernel builds every
/// node's 2-hop Definition-2 view with `compile_ball` into one reused
/// scratch, against an independent construction (ball BFS,
/// `induced_topology`, boundary links dropped); besides the per-size rows,
/// the full run adds it at n = 10^4 and 10^5 on bench_scale's placement,
/// so the per-ball cost from n to 10n is visible, and next to it a
/// coverage_full row that decides on those balls.  The ball_decision
/// kernel takes one decision the ScaleEngine's way (masks straight from
/// the BFS-ordered graph) against `compile_ball` and `evaluate_coverage`
/// on a borrowing View, at every size.  Emits an adhoc-rows-v1
/// document (docs/PERF.md) for the CI regression gate: tools/check_bench.py
/// compares each row's `speedup` ratio against the committed
/// bench/baselines/bench_micro.json.
///
///   bench_micro [--smoke] [--seed S] [--json PATH]
///
/// --smoke restricts the sweep to n <= 500 with fewer repetitions (the CI
/// configuration); the default sweeps n in {100, 500, 1000, 2000}.  Exits
/// nonzero if any kernel's optimized output diverges from its reference.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <queue>
#include <span>
#include <unordered_map>

#include "bench_common.hpp"
#include "core/coverage.hpp"
#include "core/priority.hpp"
#include "core/view.hpp"
#include "faults/fault_session.hpp"
#include "graph/bfs_graph.hpp"
#include "graph/khop.hpp"
#include "graph/unit_disk.hpp"
#include "sim/event_queue.hpp"
#include "sim/node_agent.hpp"
#include "stats/rng.hpp"
#include "traffic/dup_cache.hpp"
#include "traffic/engine.hpp"
#include "traffic/policy.hpp"
#include "traffic/summary_vector.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace adhoc;

struct MicroOptions {
    bool smoke = false;
    std::uint64_t seed = 42;
    std::string json_path = "BENCH_micro.json";
};

MicroOptions parse(int argc, char** argv) {
    MicroOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--json" && i + 1 < argc) {
            opts.json_path = argv[++i];
        } else if (arg == "--help") {
            std::cout << "options: --smoke | --seed S | --json PATH\n";
            std::exit(0);
        }
    }
    return opts;
}

/// Times the size sweep runs (see `Kernel::speedup`).
constexpr std::size_t kReplicas = 9;

/// One kernel row: ns per op of every timed call of both sides, one
/// measurement of `reps` calls per side per replica of the sweep, and
/// whether the optimized output matched the reference in all of them.
struct Kernel {
    std::string name;
    std::size_t n = 0;
    std::size_t reps = 0;
    std::vector<double> ref_ns;
    std::vector<double> opt_ns;
    bool match = false;

    /// One measurement's ratio is best-of-reps: the minimum discards
    /// scheduler and frequency noise far better than the mean.  It still
    /// swings with the state the machine is in during those few
    /// milliseconds, so the speedup is the median over the replicas; the
    /// CI gate compares it across runs.
    [[nodiscard]] double speedup() const {
        const auto best = [this](const std::vector<double>& ns, std::size_t at) {
            const auto first = ns.begin() + static_cast<std::ptrdiff_t>(at);
            return *std::min_element(first, first + static_cast<std::ptrdiff_t>(reps));
        };
        std::vector<double> ratios;
        for (std::size_t at = 0; at < ref_ns.size(); at += reps) {
            ratios.push_back(best(ref_ns, at) / best(opt_ns, at));
        }
        std::sort(ratios.begin(), ratios.end());
        return ratios[ratios.size() / 2];
    }
};

/// Times `reps` reference calls, then `reps` optimized calls, in ns per
/// op (`ops` operations per call).
template <typename Ref, typename Opt>
Kernel time_kernel(std::string name, std::size_t n, Ref&& ref, Opt&& opt, std::size_t reps,
                   double ops, bool match) {
    const auto timed = [reps, ops](auto& fn) {
        std::vector<double> ns;
        for (std::size_t r = 0; r < reps; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            fn();
            const auto t1 = std::chrono::steady_clock::now();
            ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() / ops);
        }
        return ns;
    };
    std::vector<double> ref_ns = timed(ref);
    return {std::move(name), n, reps, std::move(ref_ns), timed(opt), match};
}

bool same_graph(const Graph& a, const Graph& b) {
    if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) return false;
    for (NodeId v = 0; v < a.node_count(); ++v) {
        const auto& na = a.neighbors(v);
        const auto& nb = b.neighbors(v);
        if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
    }
    return true;
}

/// One problem instance: random placement at roughly degree-6 density, a
/// global dynamic view with ~20% visited / ~10% designated state, and a
/// 2-hop KnowledgeBase holding the same broadcast state.
struct Fixture {
    std::vector<Point2D> positions;
    double range = 0.0;
    Graph graph;
    PriorityKeys keys;
    std::vector<char> visited;
    std::vector<char> designated;

    Fixture(std::size_t n, std::uint64_t seed) {
        Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * n));
        const double area = 100.0;
        positions.resize(n);
        for (Point2D& p : positions) {
            p.x = rng.uniform(0.0, area);
            p.y = rng.uniform(0.0, area);
        }
        // Range for expected average degree ~6 under uniform placement.
        range = std::sqrt(6.0 * area * area / (3.14159265358979323846 * static_cast<double>(n)));
        graph = unit_disk_graph(positions, range);
        keys = PriorityKeys(graph, PriorityScheme::kNcr);
        visited.assign(n, 0);
        designated.assign(n, 0);
        for (NodeId v = 0; v < n; ++v) {
            if (rng.chance(0.2)) {
                visited[v] = 1;
            } else if (rng.chance(0.1)) {
                designated[v] = 1;
            }
        }
    }
};

bool same_outcome(const CoverageOutcome& a, const CoverageOutcome& b) {
    return a.covered == b.covered && a.uncovered_u == b.uncovered_u &&
           a.uncovered_w == b.uncovered_w;
}

/// The pre-calendar scheduler, verbatim: std::priority_queue on
/// (time, seq).  Kept as the reference side of the event_queue kernels.
class RefEventQueue {
  public:
    void push(double time, EventKind kind, NodeId node, std::size_t payload) {
        queue_.push(Event{time, next_seq_++, kind, node, payload});
    }
    [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
    Event pop() {
        Event e = queue_.top();
        queue_.pop();
        return e;
    }
    void clear() {
        queue_ = {};
        next_seq_ = 0;
    }

  private:
    std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
    std::uint64_t next_seq_ = 0;
};

/// Drives a queue through the simulator's access pattern: seed a backlog,
/// then a sustained pop-one-push-two cascade (the shape a broadcast fanout
/// produces), then drain and clear.  Returns a digest of the pop order.
template <typename Queue>
std::uint64_t scheduler_workload(Queue& q, std::size_t n, std::uint64_t seed) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](const Event& e) {
        h = (h ^ e.seq) * 0x100000001b3ULL;
        h = (h ^ static_cast<std::uint64_t>(e.time * 8.0)) * 0x100000001b3ULL;
    };
    std::uint64_t x = seed | 1;
    const auto next_delay = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;  // xorshift64: cheap, identical on both sides
        return 1.0 + static_cast<double>(x % 64) / 16.0;
    };
    q.clear();
    double now = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        q.push(next_delay(), EventKind::kDelivery, static_cast<NodeId>(i), i);
    }
    for (std::size_t i = 0; i < 2 * n; ++i) {
        const Event e = q.pop();
        fold(e);
        now = e.time;
        if (i < n) {  // fanout phase, then pure drain
            q.push(now + next_delay(), EventKind::kDelivery, e.node, i);
            q.push(now + next_delay(), EventKind::kTimer, e.node, i);
        }
    }
    while (!q.empty()) fold(q.pop());
    return h;
}

/// Drives a queue through a fixed-delay medium's delivery stream: floods
/// from `floods` sources in turn, each receiving node (on its first copy)
/// pushing one delivery per neighbour at now + 1.0.  Every push lands at
/// or after the previous one, the shape the queue's lanes take in O(1).
/// Returns a digest of the pop order and the number of queue operations.
template <typename Queue>
std::pair<std::uint64_t, std::size_t> fixed_delay_workload(Queue& q, const Graph& g,
                                                           std::size_t floods) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t ops = 0;
    std::vector<char> seen(g.node_count());
    for (std::size_t f = 0; f < floods; ++f) {
        q.clear();
        std::fill(seen.begin(), seen.end(), 0);
        q.push(0.0, EventKind::kTimer, static_cast<NodeId>(f * 7919 % g.node_count()), f);
        ++ops;
        while (!q.empty()) {
            const Event e = q.pop();
            ++ops;
            h = (h ^ e.seq) * 0x100000001b3ULL;
            h = (h ^ e.node) * 0x100000001b3ULL;
            if (seen[e.node]) continue;
            seen[e.node] = 1;
            for (const NodeId nbr : g.neighbors(e.node)) {
                q.push(e.time + 1.0, EventKind::kDelivery, nbr, e.node);
                ++ops;
            }
        }
    }
    return {h, ops};
}

/// The pre-index fault session's link state, verbatim: a vector of down
/// links scanned linearly on every event and query.  Kept as the reference
/// side of the fault_session kernel.
class RefFaultSession {
  public:
    void reset() { down_links_.clear(); }
    void apply(const faults::FaultEvent& event) {
        const Edge c = canonical(event.link);
        const auto it = std::find(down_links_.begin(), down_links_.end(), c);
        if (event.kind == faults::FaultKind::kLinkDown && it == down_links_.end()) {
            down_links_.push_back(c);
        } else if (event.kind == faults::FaultKind::kLinkUp && it != down_links_.end()) {
            down_links_.erase(it);
        }
    }
    [[nodiscard]] bool link_up(NodeId a, NodeId b) const {
        return std::find(down_links_.begin(), down_links_.end(), canonical(Edge{a, b})) ==
               down_links_.end();
    }
    [[nodiscard]] const std::vector<Edge>& down_links() const { return down_links_; }

  private:
    std::vector<Edge> down_links_;
};

/// A churn plan over `nodes` nodes that leaves exactly `down` links down:
/// 1.5 * down distinct random links go down, then every third of them
/// comes back up (so removals hit the front, middle and back of the set).
faults::FaultPlan churn_plan(std::size_t nodes, std::size_t down, std::uint64_t seed) {
    Rng rng(seed ^ (0x5bd1e995ULL * down));
    std::vector<Edge> links;
    std::vector<char> seen(nodes * nodes, 0);
    while (links.size() < down + down / 2) {
        const auto a = static_cast<NodeId>(rng.index(nodes));
        const auto b = static_cast<NodeId>(rng.index(nodes));
        if (a == b || seen[a * nodes + b]) continue;
        seen[a * nodes + b] = seen[b * nodes + a] = 1;
        links.push_back(canonical(Edge{a, b}));
    }
    faults::FaultPlan plan;
    double t = 0.0;
    for (const Edge& e : links) {
        plan.events.push_back({t += 1.0, faults::FaultKind::kLinkDown, kInvalidNode, e});
    }
    for (std::size_t i = 0; i < links.size(); i += 3) {
        plan.events.push_back({t += 1.0, faults::FaultKind::kLinkUp, kInvalidNode, links[i]});
    }
    return plan;
}

/// Replays `plan` into `session`, then asks `link_up` for every sampled
/// link.  Returns a digest of the answers.
template <typename Session>
std::uint64_t fault_session_workload(Session& session, const faults::FaultPlan& plan,
                                     const std::vector<Edge>& sample) {
    for (const faults::FaultEvent& e : plan.events) session.apply(e);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Edge& e : sample) {
        h = (h ^ (session.link_up(e.a, e.b) ? 1 : 2)) * 0x100000001b3ULL;
    }
    return h;
}

/// One `should_forward` call of a traffic run.
struct Decision {
    NodeId v = kInvalidNode;
    std::uint8_t count = 0;
    std::array<NodeId, traffic::kMaxHistory> visited{};

    [[nodiscard]] std::span<const NodeId> history() const { return {visited.data(), count}; }
};

/// Records the decisions a wrapped policy makes, with their answers.
class RecordingPolicy final : public traffic::ForwardPolicy {
  public:
    explicit RecordingPolicy(const traffic::ForwardPolicy& inner) : inner_(&inner) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] bool should_forward(NodeId v, std::span<const NodeId> visited) const override {
        Decision d;
        d.v = v;
        d.count = static_cast<std::uint8_t>(visited.size());
        std::copy(visited.begin(), visited.end(), d.visited.begin());
        const bool forward = inner_->should_forward(v, visited);
        decisions.push_back(d);
        answers.push_back(forward);
        return forward;
    }
    void begin_run() const override { inner_->begin_run(); }

    mutable std::vector<Decision> decisions;
    mutable std::vector<bool> answers;

  private:
    const traffic::ForwardPolicy* inner_;
};

}  // namespace

/// The reference side of the compile_ball kernel, independent of it: a
/// ball-sized BFS with hash-map distances, `induced_topology` over the
/// members, then the links between two nodes exactly k hops out dropped.
LocalTopology definition2_ball(const Graph& g, NodeId v, std::size_t k) {
    std::unordered_map<NodeId, std::size_t> dist{{v, 0}};
    std::vector<NodeId> members{v};
    for (std::size_t head = 0; head < members.size(); ++head) {
        const NodeId x = members[head];
        const std::size_t dx = dist.at(x);
        if (dx == k) continue;
        for (const NodeId y : g.neighbors(x)) {
            if (dist.emplace(y, dx + 1).second) members.push_back(y);
        }
    }
    std::sort(members.begin(), members.end());
    LocalTopology t = induced_topology(g, v, k, std::move(members));
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> edges;
    for (std::uint32_t i = 0; i < t.size(); ++i) {
        const bool interior = dist.at(t.members[i]) < k;
        for (const std::uint32_t l : t.row(i)) {
            if (interior || dist.at(t.members[l]) < k) edges.push_back(l);
        }
        offsets.push_back(static_cast<std::uint32_t>(edges.size()));
    }
    t.offsets = std::move(offsets);
    t.edges = std::move(edges);
    return t;
}

/// The compile_ball kernel on `g` at k = 2: ns per ball for both sides,
/// and whether every node's view matched.
Kernel compile_ball_kernel(const Graph& g, std::size_t reps, volatile std::size_t& guard) {
    constexpr std::size_t kHops = 2;
    const std::size_t n = g.node_count();
    BallScratch ball;
    bool match = true;
    for (NodeId v = 0; v < n && match; ++v) {
        compile_ball(g, v, kHops, ball);
        match = ball.view == definition2_ball(g, v, kHops);
    }
    return time_kernel(
        "compile_ball", n,
        [&] {
            for (NodeId v = 0; v < n; ++v) {
                guard = guard + definition2_ball(g, v, kHops).edges.size();
            }
        },
        [&] {
            for (NodeId v = 0; v < n; ++v) {
                compile_ball(g, v, kHops, ball);
                guard = guard + ball.view.edges.size();
            }
        },
        reps, static_cast<double>(n), match);
}

/// The full coverage condition on `g`'s k = 2 `compile_ball` views — the
/// ScaleEngine's decision input — with ~20% of the nodes visited and
/// degree priorities (generic-fr's): ns per decision for both sides.  The
/// reference pays O(n) per call, so both sides run on the same evenly
/// spaced sample of balls, held compiled; `match` compares every outcome.
Kernel coverage_ball_kernel(const Graph& g, std::uint64_t seed, std::size_t reps,
                            volatile std::size_t& guard) {
    constexpr std::size_t kHops = 2;
    constexpr std::size_t kSample = 1024;
    const std::size_t n = g.node_count();
    const PriorityKeys keys(g, PriorityScheme::kDegree);
    Rng rng(seed ^ 0xc0ffeeULL);
    std::vector<NodeStatus> status(n, NodeStatus::kUnvisited);
    for (NodeStatus& st : status) {
        if (rng.chance(0.2)) st = NodeStatus::kVisited;
    }
    std::vector<NodeId> centers;
    std::vector<LocalTopology> balls;
    BallScratch ball;
    const std::size_t samples = std::min(n, kSample);
    for (std::size_t i = 0; i < samples; ++i) {
        const auto v = static_cast<NodeId>(i * n / samples);
        compile_ball(g, v, kHops, ball);
        centers.push_back(v);
        balls.push_back(ball.view);
    }
    const auto sweep = [&](auto&& evaluate) {
        std::size_t covered = 0;
        for (std::size_t i = 0; i < centers.size(); ++i) {
            covered += evaluate(View(&balls[i], &status, &keys), centers[i]).covered ? 1 : 0;
        }
        return covered;
    };
    const auto production = [](const View& view, NodeId v) { return evaluate_coverage(view, v); };
    const auto naive = [](const View& view, NodeId v) {
        return reference::evaluate_coverage(view, v);
    };
    bool match = true;
    for (std::size_t i = 0; i < centers.size() && match; ++i) {
        const View view(&balls[i], &status, &keys);
        match = same_outcome(production(view, centers[i]), naive(view, centers[i]));
    }
    return time_kernel(
        "coverage_full", n, [&] { guard = guard + sweep(naive); },
        [&] { guard = guard + sweep(production); }, reps, static_cast<double>(centers.size()),
        match);
}

/// One generic-fr decision as the ScaleEngine takes it — `ball_covered`
/// on the graph's BFS-ordered copy, the engine's input — against the
/// Definition-2 view path: `compile_ball`, a borrowing View whose status
/// array gets only the ball's members (reset after each decision, so a
/// decision stays O(ball)), then `evaluate_coverage`.  k = 2, degree
/// priorities and ~20% of the nodes visited, as in coverage_full's ball
/// rows; each sampled center's visited list is its visited ball members
/// (a history chain's stand-in).  `match` compares every sampled verdict.
Kernel ball_decision_kernel(const Graph& g, std::uint64_t seed, std::size_t reps,
                            volatile std::size_t& guard) {
    constexpr std::size_t kHops = 2;
    constexpr std::size_t kSample = 1024;
    const std::size_t n = g.node_count();
    const PriorityKeys keys(g, PriorityScheme::kDegree);
    const BfsGraph ordered(g);
    const BfsPriorityKeys ordered_keys(ordered, PriorityScheme::kDegree);
    std::vector<NodeId> internal(n);
    for (NodeId x = 0; x < n; ++x) internal[ordered.original(x)] = x;
    Rng rng(seed ^ 0xba11ULL);
    std::vector<char> visited(n, 0);
    for (char& seen : visited) seen = rng.chance(0.2) ? 1 : 0;
    std::vector<NodeId> centers;
    std::vector<std::vector<NodeId>> chains;
    std::vector<std::vector<NodeId>> ordered_chains;
    BallScratch ball;
    const std::size_t samples = std::min(n, kSample);
    for (std::size_t i = 0; i < samples; ++i) {
        const auto v = static_cast<NodeId>(i * n / samples);
        compile_ball(g, v, kHops, ball);
        std::vector<NodeId>& chain = chains.emplace_back();
        std::vector<NodeId>& ordered_chain = ordered_chains.emplace_back();
        for (const NodeId x : ball.view.members) {
            if (visited[x] != 0 && x != v) {
                chain.push_back(x);
                ordered_chain.push_back(internal[x]);
            }
        }
        centers.push_back(v);
    }
    std::vector<NodeStatus> status(n, NodeStatus::kInvisible);
    const auto viewed = [&](std::size_t i) {
        compile_ball(g, centers[i], kHops, ball);
        const std::vector<NodeId>& members = ball.view.members;
        for (const NodeId x : members) status[x] = NodeStatus::kUnvisited;
        for (const NodeId x : chains[i]) status[x] = NodeStatus::kVisited;
        const View view(&ball.view, &status, &keys);
        const bool covered = evaluate_coverage(view, centers[i]).covered;
        for (const NodeId x : members) status[x] = NodeStatus::kInvisible;
        return covered;
    };
    BallMaskScratch masks;
    const auto words = [&](std::size_t i) {
        return ball_covered(ordered, internal[centers[i]], kHops, ordered_keys,
                            ordered_chains[i], {}, masks);
    };
    const auto sweep = [&](auto&& decide) {
        std::size_t covered = 0;
        for (std::size_t i = 0; i < centers.size(); ++i) covered += decide(i);
        return covered;
    };
    bool match = true;
    for (std::size_t i = 0; i < centers.size() && match; ++i) match = words(i) == viewed(i);
    return time_kernel(
        "ball_decision", n, [&] { guard = guard + sweep(viewed); },
        [&] { guard = guard + sweep(words); }, reps, static_cast<double>(centers.size()),
        match);
}

int main(int argc, char** argv) {
    const MicroOptions opts = parse(argc, argv);
    const std::vector<std::size_t> sizes =
        opts.smoke ? std::vector<std::size_t>{100, 500}
                   : std::vector<std::size_t>{100, 500, 1000, 2000};
    // Replicas of the whole sweep, rather than more repetitions in a row,
    // so every measurement starts from the state the other kernels leave
    // behind, as the first one does.
    std::vector<std::size_t> schedule;
    for (std::size_t r = 0; r < kReplicas; ++r) {
        schedule.insert(schedule.end(), sizes.begin(), sizes.end());
    }

    // Sink defeating dead-code elimination of the timed bodies.
    volatile std::size_t guard = 0;
    // Rows in first-report order; a later replica's measurement of the
    // same (kernel, n) joins its row.
    std::vector<Kernel> kernels;
    std::map<std::size_t, std::string> headings;  ///< printed above each size's rows
    const auto report = [&](const Kernel& k) {
        const auto same = [&k](const Kernel& row) { return row.name == k.name && row.n == k.n; };
        const auto row = std::find_if(kernels.begin(), kernels.end(), same);
        if (row == kernels.end()) {
            kernels.push_back(k);
        } else {
            row->ref_ns.insert(row->ref_ns.end(), k.ref_ns.begin(), k.ref_ns.end());
            row->opt_ns.insert(row->opt_ns.end(), k.opt_ns.begin(), k.opt_ns.end());
            row->match = row->match && k.match;
        }
    };

    for (const std::size_t n : schedule) {
        Fixture fx(n, opts.seed);
        headings.emplace(n, "n=" + std::to_string(n) + " (" +
                                std::to_string(fx.graph.edge_count()) + " edges)");

        // --- unit-disk generation: all-pairs scan vs spatial grid ---
        {
            const std::size_t reps = opts.smoke ? 10 : (n <= 500 ? 20 : 10);
            const Graph gref = reference::unit_disk_graph(fx.positions, fx.range);
            const bool match = same_graph(gref, fx.graph);
            report(time_kernel(
                "unit_disk_gen", n,
                [&] {
                    guard = guard +
                            reference::unit_disk_graph(fx.positions, fx.range).edge_count();
                },
                [&] { guard = guard + unit_disk_graph(fx.positions, fx.range).edge_count(); },
                reps, 1.0, match));
        }

        // --- scheduler: reference priority_queue vs calendar queue ---
        //
        // Push/pop/clear under the simulator's pop-one-push-two cascade;
        // sized at 8x n so the larger fixtures cross the calendar
        // threshold while the smoke sizes stay in pure heap mode.
        {
            const std::size_t events = 8 * n;
            RefEventQueue ref_q;
            EventQueue opt_q;
            const bool match = scheduler_workload(ref_q, events, opts.seed) ==
                               scheduler_workload(opt_q, events, opts.seed);
            const std::size_t reps = opts.smoke ? 10 : (n <= 500 ? 20 : 10);
            const double per = static_cast<double>(3 * events);  // ops per workload
            report(time_kernel(
                "event_queue_ops", n,
                [&] { guard = guard + scheduler_workload(ref_q, events, opts.seed); },
                [&] { guard = guard + scheduler_workload(opt_q, events, opts.seed); }, reps, per,
                match));
        }

        // --- scheduler on a fixed delay: reference heap vs queue lanes ---
        //
        // The delivery stream of floods on the fixture graph; ops per
        // workload are counted from the workload itself.
        {
            const std::size_t floods = 16;
            RefEventQueue ref_q;
            EventQueue opt_q;
            const auto want = fixed_delay_workload(ref_q, fx.graph, floods);
            const bool match = want == fixed_delay_workload(opt_q, fx.graph, floods);
            const std::size_t reps = opts.smoke ? 10 : (n <= 500 ? 20 : 10);
            report(time_kernel(
                "event_queue_stream", n,
                [&] { guard = guard + fixed_delay_workload(ref_q, fx.graph, floods).first; },
                [&] { guard = guard + fixed_delay_workload(opt_q, fx.graph, floods).first; },
                reps, static_cast<double>(want.second), match));
        }

        // --- fault session: linear down-link scan vs indexed set ---
        //
        // Replay a churn plan, then query a fixed sample of links, at plans
        // leaving n and 2n links down.  The indexed session's ns per op
        // should not grow with the down count; the scan's doubles.
        for (const std::size_t down : {n, 2 * n}) {
            const faults::FaultPlan plan = churn_plan(n, down, opts.seed);
            std::vector<Edge> sample;
            for (std::size_t j = 0; j < 256; ++j) {
                sample.push_back(plan.events[j * (down + down / 2) / 256].link);
            }
            RefFaultSession ref_s;
            faults::FaultSession opt_s;
            const auto run_ref = [&] {
                ref_s.reset();
                return fault_session_workload(ref_s, plan, sample);
            };
            const auto run_opt = [&] {
                opt_s.reset(plan, n);
                return fault_session_workload(opt_s, plan, sample);
            };
            bool match = run_ref() == run_opt();
            std::vector<Edge> ref_down = ref_s.down_links();
            std::vector<Edge> opt_down = opt_s.down_links();
            std::sort(ref_down.begin(), ref_down.end());
            std::sort(opt_down.begin(), opt_down.end());
            match = match && ref_down == opt_down && opt_down.size() == down;
            const std::size_t reps = opts.smoke ? 10 : (n <= 500 ? 20 : 10);
            const double per = static_cast<double>(plan.events.size() + sample.size());
            report(time_kernel(down == n ? "fault_session" : "fault_session_2n", n,
                               [&] { guard = guard + run_ref(); },
                               [&] { guard = guard + run_opt(); }, reps, per, match));
        }

        // --- summary-vector diff: per-bit holds loop vs word-parallel walk ---
        //
        // Nine duplicate caches (engine defaults: 64 sources, 256-bit
        // windows) each receive 95% of one stream of 8n ids over 32
        // sources; the kernel diffs eight neighbors' beacons against the
        // ninth cache, the work one node does per beacon round.
        {
            Rng rng(opts.seed ^ (0x2545f4914f6cdd1dULL * n));
            std::vector<std::uint32_t> next_seq(32, 0);
            std::vector<traffic::DupCache> caches(9);
            for (std::size_t i = 0; i < 8 * n; ++i) {
                const auto source = static_cast<NodeId>(rng.index(next_seq.size()));
                const std::uint32_t seq = next_seq[source]++;
                for (traffic::DupCache& cache : caches) {
                    if (rng.chance(0.95)) cache.insert(source, seq);
                }
            }
            const traffic::DupCache& mine = caches.back();
            std::vector<traffic::SummaryVector> beacons;
            for (std::size_t k = 0; k + 1 < caches.size(); ++k) {
                beacons.push_back(traffic::summarize(caches[k]));
            }
            bool match = true;
            for (const traffic::SummaryVector& sv : beacons) {
                match = match && traffic::missing_keys(sv, mine) ==
                                     traffic::reference::missing_keys(sv, mine);
            }
            // Four passes over the beacons per repetition keep the fast
            // side's timed span well above timer and interrupt noise.
            constexpr std::size_t kPasses = 4;
            const std::size_t reps = opts.smoke ? 10 : (n <= 500 ? 20 : 10);
            const auto per = static_cast<double>(kPasses * beacons.size());
            report(time_kernel(
                "summary_diff", n,
                [&] {
                    for (std::size_t p = 0; p < kPasses; ++p) {
                        for (const traffic::SummaryVector& sv : beacons) {
                            guard = guard + traffic::reference::missing_keys(sv, mine).size();
                        }
                    }
                },
                [&] {
                    for (std::size_t p = 0; p < kPasses; ++p) {
                        for (const traffic::SummaryVector& sv : beacons) {
                            guard = guard + traffic::missing_keys(sv, mine).size();
                        }
                    }
                },
                reps, per, match));
        }

        // --- traffic decisions: direct coverage evaluation vs per-run memo ---
        //
        // One seeded 100-session generic-fr traffic run on the fixture
        // network is recorded.  The reference evaluates every decision on
        // the node's precompiled 2-hop view with `reference::`, like every
        // other row's reference side, so a faster production kernel does
        // not read as a slower memo.  The optimized side replays the stream
        // through the policy, starting each repetition with an empty memo.
        {
            const auto policy = traffic::make_policy(fx.graph, "generic-fr");
            const RecordingPolicy recorder(*policy);
            traffic::TrafficConfig tc;
            tc.sessions = 100;
            tc.rate = 4.0;
            const traffic::Workload wl = traffic::make_workload(tc, n, opts.seed, 0);
            Rng rng(opts.seed ^ 0x7aff1cULL);
            (void)traffic::TrafficEngine(fx.graph, recorder).run(wl, rng);
            const std::vector<Decision>& stream = recorder.decisions;

            const PriorityKeys keys(fx.graph, PriorityScheme::kDegree);
            std::vector<LocalTopology> views;
            for (NodeId v = 0; v < n; ++v) views.push_back(local_topology(fx.graph, v, 2));
            std::vector<NodeStatus> status(n, NodeStatus::kUnvisited);
            const auto direct = [&](const Decision& d) {
                for (const NodeId u : d.history()) status[u] = NodeStatus::kVisited;
                const View view(&views[d.v], &status, &keys);
                const bool forward = !reference::evaluate_coverage(view, d.v).covered;
                for (const NodeId u : d.history()) status[u] = NodeStatus::kUnvisited;
                return forward;
            };
            const auto replay = [&](auto&& decide) {
                std::size_t forwards = 0;
                for (const Decision& d : stream) forwards += decide(d) ? 1 : 0;
                return forwards;
            };
            const auto memoised = [&](const Decision& d) {
                return policy->should_forward(d.v, d.history());
            };

            bool match = !stream.empty();
            policy->begin_run();
            for (std::size_t i = 0; i < stream.size() && match; ++i) {
                match = direct(stream[i]) == recorder.answers[i] &&
                        memoised(stream[i]) == recorder.answers[i];
            }
            const std::size_t reps = opts.smoke ? 10 : (n <= 500 ? 20 : 10);
            const auto per = static_cast<double>(stream.size());
            report(time_kernel(
                "policy_decision", n, [&] { guard = guard + replay(direct); },
                [&] {
                    policy->begin_run();
                    guard = guard + replay(memoised);
                },
                reps, per, match));
        }

        // 2-hop knowledge base carrying the broadcast state — the exact
        // configuration every simulated decision runs against.
        KnowledgeBase kb(fx.graph, 2);
        for (NodeId v = 0; v < n; ++v) {
            kb.load_visited(v, fx.visited);
            kb.load_designated(v, fx.designated);
        }

        // --- per-decision view construction: owning copy vs borrowed cache ---
        {
            // The pre-refactor path: for every decision, copy the cached
            // topology — including its full-id-space Graph form — and
            // build a fresh n-entry status vector into an owning View.
            auto build_ref = [&](NodeId v) {
                const LocalTopology& topo = kb.at(v).topology();
                Graph full = reference::expand(topo);
                std::vector<NodeStatus> status(n, NodeStatus::kInvisible);
                for (NodeId x : topo.members) {
                    status[x] = fx.visited[x]      ? NodeStatus::kVisited
                                : fx.designated[x] ? NodeStatus::kDesignated
                                                   : NodeStatus::kUnvisited;
                }
                return std::pair(std::move(full),
                                 View(LocalTopology(topo), std::move(status), &fx.keys));
            };
            bool match = true;
            for (NodeId v = 0; v < n && match; ++v) {
                const View a = build_ref(v).second;
                const View b = kb.view_of(v, fx.keys);
                for (NodeId x = 0; x < n && match; ++x) {
                    match = a.visible(x) == b.visible(x) && a.priority(x) == b.priority(x);
                }
            }
            const std::size_t reps = opts.smoke ? 10 : (n <= 500 ? 20 : 10);
            report(time_kernel(
                "view_build", n,
                [&] {
                    for (NodeId v = 0; v < n; ++v) {
                        const auto built = build_ref(v);
                        guard = guard + built.first.edge_count() + built.second.node_count();
                    }
                },
                [&] {
                    for (NodeId v = 0; v < n; ++v) {
                        guard = guard + kb.view_of(v, fx.keys).node_count();
                    }
                },
                reps, static_cast<double>(n), match));
        }

        // --- coverage condition, one decision per node on its 2-hop view ---
        //
        // This is the simulation hot path: the reference kernel pays O(n)
        // per call (global-id masks and scans) regardless of how small the
        // local view is, while the mask kernel only touches the k-hop
        // neighborhood the view holds.
        for (const bool strong : {false, true}) {
            const CoverageOptions copts{.strong = strong};
            bool match = true;
            for (NodeId v = 0; v < n && match; ++v) {
                const View view = kb.view_of(v, fx.keys);
                match = same_outcome(evaluate_coverage(view, v, copts),
                                     reference::evaluate_coverage(view, v, copts));
            }
            const std::size_t reps = opts.smoke ? 8 : (n <= 500 ? 10 : 6);
            report(time_kernel(
                strong ? "coverage_strong" : "coverage_full", n,
                [&] {
                    for (NodeId v = 0; v < n; ++v) {
                        const View view = kb.view_of(v, fx.keys);
                        guard = guard + reference::evaluate_coverage(view, v, copts).covered;
                    }
                },
                [&] {
                    for (NodeId v = 0; v < n; ++v) {
                        const View view = kb.view_of(v, fx.keys);
                        guard = guard + evaluate_coverage(view, v, copts).covered;
                    }
                },
                reps, static_cast<double>(n), match));
        }

        // --- Definition-2 view compile, one ball per node ---
        report(compile_ball_kernel(fx.graph, opts.smoke ? 10 : 20, guard));

        // --- one scale decision: masks straight from the graph ---
        report(ball_decision_kernel(fx.graph, opts.seed, opts.smoke ? 10 : 20, guard));
    }
    if (!opts.smoke) {
        for (const std::size_t n : {std::size_t{10000}, std::size_t{100000}}) {
            headings.emplace(n, "n=" + std::to_string(n) + " (bench_scale placement)");
            const Graph g = bench::scale_placement(opts.seed, n);
            report(compile_ball_kernel(g, 3, guard));
            report(coverage_ball_kernel(g, opts.seed, 3, guard));
            report(ball_decision_kernel(g, opts.seed, 3, guard));
        }
    }

    bench::RowsDoc doc("bench_micro");
    doc.meta.count("seed", opts.seed).flag("smoke", opts.smoke);
    bool all_match = true;
    std::size_t last_n = 0;
    for (const Kernel& k : kernels) {
        if (k.n != last_n) {
            last_n = k.n;
            std::cout << headings.at(k.n) << '\n';
        }
        all_match = all_match && k.match;
        std::cout << "  " << k.name << ": ref "
                  << *std::min_element(k.ref_ns.begin(), k.ref_ns.end()) << " ns, opt "
                  << *std::min_element(k.opt_ns.begin(), k.opt_ns.end()) << " ns, speedup "
                  << k.speedup() << (k.match ? "" : "  MISMATCH") << '\n';
        bench::RowsDoc::Row& row = doc.rows.emplace_back();
        row.key.text("kernel", k.name).count("n", k.n);
        row.deterministic.flag("match", k.match);
        row.ratios.real("speedup", k.speedup());
        row.timing.samples("ref_ns", k.ref_ns).samples("opt_ns", k.opt_ns);
    }

    if (!opts.json_path.empty() && !doc.write(opts.json_path)) return 1;

    if (!all_match) {
        std::cerr << "bench_micro: optimized kernels diverged from reference\n";
        return 1;
    }
    return 0;
}
