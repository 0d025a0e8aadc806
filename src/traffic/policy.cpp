#include "traffic/policy.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "algorithms/wu_li.hpp"
#include "core/view.hpp"
#include "sim/generic_protocol.hpp"

namespace adhoc::traffic {

CoveragePolicy::CoveragePolicy(const Graph& g, std::size_t hops, PriorityScheme priority,
                               CoverageOptions coverage, std::string name)
    : name_(name.empty() ? "Generic FR/SP" : std::move(name)),
      keys_(g, priority),
      coverage_(coverage),
      status_(g.node_count(), NodeStatus::kUnvisited),
      memo_(g.node_count()) {
    views_.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) views_.push_back(local_topology(g, v, hops));
    touched_.reserve(8);
}

void CoveragePolicy::begin_run() const {
    for (std::vector<std::uint64_t>& table : memo_) table.clear();
    stats_ = {};
}

namespace {

// A memo key packs a history's ball members as local ids (ascending, so
// in global-id order too), 15 bits each and offset by one so that 0 marks
// an unused slot.  Bit 63 of a stored entry holds the answer.
constexpr unsigned kKeyIdBits = 15;
constexpr std::size_t kMaxKeyedBall = (std::size_t{1} << kKeyIdBits) - 1;
constexpr std::uint64_t kForwardBit = std::uint64_t{1} << 63;
static_assert(kMaxHistory * kKeyIdBits < 63);

/// The key of `visited` at the node whose view is `ball`, or nullopt when
/// the history has more than kMaxHistory ball members or the ball is too
/// large for 15-bit ids.
std::optional<std::uint64_t> memo_key(const LocalTopology& ball,
                                      std::span<const NodeId> visited) {
    if (ball.size() > kMaxKeyedBall) return std::nullopt;
    std::array<std::uint32_t, kMaxHistory> ids{};
    std::size_t size = 0;
    for (const NodeId u : visited) {
        const std::uint32_t local = ball.local_of(u);
        if (local == kNoLocal) continue;
        const auto end = ids.begin() + static_cast<std::ptrdiff_t>(size);
        const auto at = std::lower_bound(ids.begin(), end, local);
        if (at != end && *at == local) continue;
        if (size == ids.size()) return std::nullopt;
        std::copy_backward(at, end, end + 1);
        *at = local;
        ++size;
    }
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < size; ++i) {
        key |= std::uint64_t{ids[i] + 1} << (kKeyIdBits * i);
    }
    return key;
}

}  // namespace

bool CoveragePolicy::should_forward(NodeId v, std::span<const NodeId> visited) const {
    const std::optional<std::uint64_t> key = memo_key(views_[v], visited);
    if (!key) {
        ++stats_.misses;
        return evaluate(v, visited);
    }
    std::vector<std::uint64_t>& table = memo_[v];
    for (const std::uint64_t entry : table) {
        if ((entry & ~kForwardBit) == *key) {
            ++stats_.hits;
            return (entry & kForwardBit) != 0;
        }
    }
    ++stats_.misses;
    const bool forward = evaluate(v, visited);
    if (table.size() < kMemoCapacity) table.push_back(*key | (forward ? kForwardBit : 0));
    return forward;
}

bool CoveragePolicy::evaluate(NodeId v, std::span<const NodeId> visited) const {
    for (const NodeId u : visited) {
        if (u < status_.size() && status_[u] == NodeStatus::kUnvisited) {
            status_[u] = NodeStatus::kVisited;
            touched_.push_back(u);
        }
    }
    const View view(&views_[v], &status_, &keys_);
    const bool covered = coverage_condition_holds(view, v, coverage_);
    for (const NodeId u : touched_) status_[u] = NodeStatus::kUnvisited;
    touched_.clear();
    return !covered;
}

std::unique_ptr<ForwardPolicy> make_policy(const Graph& g, const std::string& key) {
    if (key == "flooding") return std::make_unique<FloodingPolicy>();
    if (key == "generic-static") {
        const PriorityKeys keys(g, PriorityScheme::kNcr);
        return std::make_unique<StaticMaskPolicy>(
            "Generic Static", generic_static_forward_set(g, 2, keys, CoverageOptions{}));
    }
    if (key == "generic-fr") {
        return std::make_unique<CoveragePolicy>(g, 2, PriorityScheme::kDegree);
    }
    if (key == "wu-li") {
        return std::make_unique<StaticMaskPolicy>("Wu-Li", wu_li_forward_set(g, WuLiConfig{}));
    }
    return nullptr;
}

}  // namespace adhoc::traffic
