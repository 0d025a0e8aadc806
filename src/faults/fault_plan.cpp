#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "runner/seed.hpp"
#include "stats/rng.hpp"

namespace adhoc::faults {

namespace {

// Stream tags keep the fault substreams disjoint from every other consumer
// of derive_run_seed (campaign runs, fuzz scenarios, mobility traces).
constexpr std::uint64_t kFaultStreamTag = 0xfa017c0000000001ULL;
constexpr std::uint64_t kLossStreamTag = 0x10550000000000a5ULL;

}  // namespace

FaultPlan make_fault_plan(const FaultSpec& spec, const Graph& g, NodeId source,
                          std::uint64_t base_seed, std::uint64_t run_index) {
    const std::size_t n = g.node_count();
    // Satellite-6 contract: the generator RNG is seeded through a
    // derive_run_seed substream of (base seed, n, crash rate, run index) —
    // never through shared state — so fault timing is invariant under
    // --jobs, telemetry, and any other run-local instrumentation.
    const std::uint64_t seed = runner::derive_run_seed(base_seed ^ kFaultStreamTag, n,
                                                       spec.crash_rate, run_index);
    Rng rng(seed);

    FaultPlan plan;
    plan.loss_stream_seed = runner::splitmix64(seed ^ kLossStreamTag);

    const auto clamp01 = [](double p) { return std::min(std::max(p, 0.0), 1.0); };

    if (spec.crash_rate > 0.0 && n > 0) {
        const double p = clamp01(spec.crash_rate);
        for (NodeId v = 0; v < n; ++v) {
            if (spec.protect_source && v == source) continue;
            if (!rng.chance(p)) continue;
            const double at = rng.uniform(0.0, spec.crash_window);
            plan.events.push_back(FaultEvent{at, FaultKind::kNodeCrash, v, Edge{}});
            if (rng.chance(clamp01(spec.recover_probability))) {
                const double back =
                    at + rng.uniform(spec.recover_delay_min, spec.recover_delay_max);
                plan.events.push_back(FaultEvent{back, FaultKind::kNodeRecover, v, Edge{}});
            }
        }
    }

    if (spec.link_churn_rate > 0.0 || spec.asymmetry_rate > 0.0) {
        const double churn_p = clamp01(spec.link_churn_rate);
        const double asym_p = clamp01(spec.asymmetry_rate);
        for (const Edge& e : g.edges()) {  // canonical sorted order: deterministic
            if (churn_p > 0.0 && rng.chance(churn_p)) {
                const double down_at = rng.uniform(0.0, spec.churn_window);
                const double up_at =
                    down_at + rng.uniform(spec.churn_down_min, spec.churn_down_max);
                plan.events.push_back(
                    FaultEvent{down_at, FaultKind::kLinkDown, kInvalidNode, e});
                plan.events.push_back(FaultEvent{up_at, FaultKind::kLinkUp, kInvalidNode, e});
            }
            if (asym_p > 0.0 && rng.chance(asym_p)) {
                // One direction is always degraded; the reverse only half
                // the time — genuinely asymmetric links dominate.
                LinkAsymmetry asym;
                asym.link = e;
                asym.loss_ab = rng.uniform(0.0, spec.asymmetry_loss_max);
                asym.loss_ba = rng.chance(0.5) ? rng.uniform(0.0, spec.asymmetry_loss_max) : 0.0;
                if (rng.chance(0.5)) std::swap(asym.loss_ab, asym.loss_ba);
                plan.asymmetry.push_back(asym);
            }
        }
    }

    if (spec.hello_burst_rate > 0.0 && spec.hello_rounds > 0) {
        const double p = clamp01(spec.hello_burst_rate);
        for (NodeId v = 0; v < n; ++v) {
            if (!rng.chance(p)) continue;
            HelloBurst burst;
            burst.node = v;
            burst.first_round = rng.index(spec.hello_rounds);
            burst.rounds = 1 + rng.index(spec.hello_rounds);
            plan.hello_bursts.push_back(burst);
        }
    }

    // The simulator injects events through its deterministic queue, which
    // breaks time ties by insertion order — a sorted schedule makes the
    // plan itself canonical (stable: preserves generation order at ties).
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
    return plan;
}

void validate_plan(const FaultPlan& plan, std::size_t n) {
    const auto fail = [](const std::string& what) { throw std::invalid_argument(what); };
    const auto check_node = [&](NodeId v, std::size_t i, const char* ctx) {
        if (v >= n) {
            fail("FaultPlan: " + std::string(ctx) + " entry " + std::to_string(i) +
                 " names node " + std::to_string(v) + " outside [0, " + std::to_string(n) + ")");
        }
    };
    const auto check_link = [&](const Edge& e, std::size_t i, const char* ctx) {
        if (e.a >= n || e.b >= n) {
            fail("FaultPlan: " + std::string(ctx) + " entry " + std::to_string(i) + " names link (" +
                 std::to_string(e.a) + ", " + std::to_string(e.b) + ") outside an " +
                 std::to_string(n) + "-node topology");
        }
        if (e.a >= e.b) {
            fail("FaultPlan: " + std::string(ctx) + " entry " + std::to_string(i) + " link (" +
                 std::to_string(e.a) + ", " + std::to_string(e.b) +
                 ") is not a canonical pair (a < b)");
        }
    };

    std::vector<char> down(n, 0);
    double prev_time = 0.0;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const FaultEvent& e = plan.events[i];
        if (!std::isfinite(e.time) || e.time < 0.0) {
            fail("FaultPlan: event " + std::to_string(i) + " has invalid time " +
                 std::to_string(e.time) + " (must be finite and >= 0)");
        }
        if (e.time < prev_time) {
            fail("FaultPlan: event " + std::to_string(i) + " at time " + std::to_string(e.time) +
                 " breaks the sorted-schedule invariant (previous event at " +
                 std::to_string(prev_time) + ")");
        }
        prev_time = e.time;
        switch (e.kind) {
            case FaultKind::kNodeCrash:
                check_node(e.node, i, "crash");
                if (down[e.node]) {
                    fail("FaultPlan: event " + std::to_string(i) + " crashes node " +
                         std::to_string(e.node) + " at time " + std::to_string(e.time) +
                         " while it is already down (duplicate crash)");
                }
                down[e.node] = 1;
                break;
            case FaultKind::kNodeRecover:
                check_node(e.node, i, "recover");
                if (!down[e.node]) {
                    fail("FaultPlan: event " + std::to_string(i) + " recovers node " +
                         std::to_string(e.node) + " at time " + std::to_string(e.time) +
                         " without a preceding crash");
                }
                down[e.node] = 0;
                break;
            case FaultKind::kLinkDown:
                check_link(e.link, i, "link-down");
                break;
            case FaultKind::kLinkUp:
                check_link(e.link, i, "link-up");
                break;
        }
    }

    std::unordered_set<std::uint64_t> seen_links;
    seen_links.reserve(plan.asymmetry.size());
    for (std::size_t i = 0; i < plan.asymmetry.size(); ++i) {
        const LinkAsymmetry& a = plan.asymmetry[i];
        check_link(a.link, i, "asymmetry");
        const auto check_loss = [&](double loss, const char* dir) {
            if (!std::isfinite(loss) || loss < 0.0 || loss > 1.0) {
                fail("FaultPlan: asymmetry entry " + std::to_string(i) + " " + dir + " loss " +
                     std::to_string(loss) + " outside [0, 1]");
            }
        };
        check_loss(a.loss_ab, "a->b");
        check_loss(a.loss_ba, "b->a");
        if (!seen_links.insert(link_key(a.link)).second) {
            fail("FaultPlan: asymmetry entry " + std::to_string(i) + " duplicates link (" +
                 std::to_string(a.link.a) + ", " + std::to_string(a.link.b) + ")");
        }
    }

    for (std::size_t i = 0; i < plan.hello_bursts.size(); ++i) {
        const HelloBurst& b = plan.hello_bursts[i];
        check_node(b.node, i, "hello-burst");
        if (b.rounds == 0) {
            fail("FaultPlan: hello-burst entry " + std::to_string(i) + " on node " +
                 std::to_string(b.node) + " spans zero rounds");
        }
    }
}

FaultPlan bucket_plan(const FaultPlan& plan, double window) {
    if (!std::isfinite(window) || window <= 0.0) {
        throw std::invalid_argument("bucket_plan: window " + std::to_string(window) +
                                    " must be finite and > 0");
    }
    FaultPlan out = plan;
    for (FaultEvent& e : out.events) {
        e.time = std::ceil(e.time / window) * window;
    }
    std::stable_sort(out.events.begin(), out.events.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
    return out;
}

}  // namespace adhoc::faults
