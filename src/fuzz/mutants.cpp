#include "fuzz/mutants.hpp"

#include <algorithm>

#include "core/coverage.hpp"
#include "core/priority.hpp"
#include "core/view.hpp"
#include "sim/generic_protocol.hpp"

namespace adhoc::fuzz {
namespace {

enum class Knob {
    kSkipPriority,
    kStatusInflation,
    kDisconnectedCover,
    kNeighborOffByOne,
};

/// A broken rendition of the pairwise coverage condition, faithful to the
/// correct structure (so kills come from the injected bug, not from an
/// unrelated rewrite).
bool broken_covered(const View& view, NodeId v, Knob knob) {
    const Graph topo = reference::expand(view.local());
    std::vector<NodeId> neighbors(topo.neighbors(v).begin(), topo.neighbors(v).end());
    if (knob == Knob::kNeighborOffByOne && !neighbors.empty()) {
        neighbors.pop_back();  // the injected loop-bound bug
    }
    if (neighbors.size() < 2) return true;  // vacuously covered

    const Priority self = view.priority(v);

    if (knob == Knob::kDisconnectedCover) {
        // Strong condition minus the single-component requirement: N(v)
        // dominated by higher-priority nodes, connectivity never checked.
        for (NodeId u : neighbors) {
            bool dominated = view.priority(u) > self;
            if (!dominated) {
                for (NodeId w : topo.neighbors(u)) {
                    if (w != v && view.priority(w) > self) {
                        dominated = true;
                        break;
                    }
                }
            }
            if (!dominated) return false;
        }
        return true;
    }

    // Pairwise replacement paths with a broken intermediate filter.
    std::vector<char> allowed(topo.node_count(), 0);
    for (NodeId w = 0; w < topo.node_count(); ++w) {
        if (w == v || !view.visible(w)) continue;
        switch (knob) {
            case Knob::kSkipPriority:
                allowed[w] = 1;  // any intermediate will do
                break;
            case Knob::kStatusInflation:
                // Compare intermediates as if they had already forwarded
                // (S treated as 2): status dominates the lexicographic
                // order, so this admits nearly everything.
                allowed[w] = view.keys().evaluate(w, NodeStatus::kVisited) > self ? 1 : 0;
                break;
            default:
                allowed[w] = view.priority(w) > self ? 1 : 0;
                break;
        }
    }

    for (std::size_t i = 0; i < neighbors.size(); ++i) {
        for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
            const NodeId u = neighbors[i];
            const NodeId w = neighbors[j];
            if (topo.has_edge(u, w)) continue;
            // BFS u -> w through allowed intermediates, avoiding v.
            std::vector<char> seen(topo.node_count(), 0);
            std::vector<NodeId> queue{u};
            seen[u] = 1;
            bool reached = false;
            while (!queue.empty() && !reached) {
                const NodeId x = queue.back();
                queue.pop_back();
                for (NodeId y : topo.neighbors(x)) {
                    if (y == w) {
                        reached = true;
                        break;
                    }
                    if (y == v || seen[y] || !allowed[y]) continue;
                    seen[y] = 1;
                    queue.push_back(y);
                }
            }
            if (!reached) return false;
        }
    }
    return true;
}

/// Static self-pruning with a broken coverage rule.  The relay schedule
/// (StaticSetAgent) is correct — only the status decision is mutated.
class BrokenCoverageAlgorithm final : public StaticCdsAlgorithm {
  public:
    BrokenCoverageAlgorithm(std::string name, Knob knob)
        : name_(std::move(name)), knob_(knob) {}

    [[nodiscard]] std::string name() const override { return "Mutant " + name_; }

    [[nodiscard]] std::vector<char> forward_set(const Graph& g) const override {
        const PriorityKeys keys(g, PriorityScheme::kId);
        std::vector<char> forward(g.node_count(), 0);
        for (NodeId v = 0; v < g.node_count(); ++v) {
            const View view = make_static_view(g, v, 2, keys);
            forward[v] = broken_covered(view, v, knob_) ? 0 : 1;
        }
        return forward;
    }

  private:
    std::string name_;
    Knob knob_;
};

/// Relays exactly like StaticSetAgent but the source is subject to the
/// pruning decision too — the "source always forwards" rule of Section 5
/// is skipped.
class SourceExemptAgent final : public StaticSetAgent {
  public:
    SourceExemptAgent(const Graph& g, std::vector<char> forward_set)
        : StaticSetAgent(g, forward_set), forward_(std::move(forward_set)) {}

    void start(Simulator& sim, NodeId source, Rng& rng) override {
        if (forward_[source]) StaticSetAgent::start(sim, source, rng);
    }

  private:
    std::vector<char> forward_;
};

class SourceExemptAlgorithm final : public BroadcastAlgorithm {
  public:
    [[nodiscard]] std::string name() const override { return "Mutant source-exempt"; }

  protected:
    [[nodiscard]] std::unique_ptr<Agent> make_agent(const Graph& g) const override {
        const PriorityKeys keys(g, PriorityScheme::kId);
        return std::make_unique<SourceExemptAgent>(
            g, generic_static_forward_set(g, 2, keys, CoverageOptions{}));
    }
};

}  // namespace

const std::vector<MutantSpec>& mutant_specs() {
    static const std::vector<MutantSpec> specs = [] {
        std::vector<MutantSpec> out;
        out.push_back({"skip-priority",
                       "replacement paths accept any intermediate (no higher-priority check)",
                       [] {
                           return std::make_unique<BrokenCoverageAlgorithm>(
                               "skip-priority", Knob::kSkipPriority);
                       }});
        out.push_back({"status-inflation",
                       "intermediates compared as if visited (S=1/1.5 treated as S=2)", [] {
                           return std::make_unique<BrokenCoverageAlgorithm>(
                               "status-inflation", Knob::kStatusInflation);
                       }});
        out.push_back({"disconnected-cover",
                       "strong condition without the connected-component requirement", [] {
                           return std::make_unique<BrokenCoverageAlgorithm>(
                               "disconnected-cover", Knob::kDisconnectedCover);
                       }});
        out.push_back({"neighbor-off-by-one",
                       "pairwise scan skips the last neighbor (loop-bound bug)", [] {
                           return std::make_unique<BrokenCoverageAlgorithm>(
                               "neighbor-off-by-one", Knob::kNeighborOffByOne);
                       }});
        out.push_back({"source-exempt",
                       "the source applies the pruning rule instead of always forwarding",
                       [] { return std::make_unique<SourceExemptAlgorithm>(); }});
        return out;
    }();
    return specs;
}

}  // namespace adhoc::fuzz
