/// \file policy.hpp
/// \brief Per-topology forwarding policies shared by every concurrent
/// session — the allocation-storm fix of the traffic plane.
///
/// The one-shot path builds a full `GenericAgent` (views, priority keys,
/// per-node knowledge) *per broadcast*.  At thousands of concurrent
/// sessions that is an allocation storm: the protocol state that actually
/// depends on the topology — static forward sets, k-hop views, priority
/// keys — is identical for every session and only the tiny per-session
/// visited history differs.  A `ForwardPolicy` is that shared state built
/// exactly once per topology; the engine consults it per receipt with the
/// packet's piggybacked history, allocating nothing.
///
/// Three families cover the paper's taxonomy:
///   - flooding (always forward);
///   - static source-independent forward masks (the generic framework's
///     static special case via `generic_static_forward_set`, or any
///     `StaticCdsAlgorithm` mask such as Wu-Li);
///   - the dynamic first-receipt self-pruning rule, evaluating the
///     coverage condition against a precompiled k-hop view with the
///     packet's visited history — `generic_protocol`'s decision kernel
///     multiplexed over sessions through one reusable scratch buffer, with
///     a bounded per-run memo of the answers already given.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/coverage.hpp"
#include "core/priority.hpp"
#include "graph/graph.hpp"
#include "graph/khop.hpp"

namespace adhoc::traffic {

/// Most piggybacked history ids a traffic data packet carries, so the most
/// ids the engine ever passes to `ForwardPolicy::should_forward`.
inline constexpr std::size_t kMaxHistory = 4;

/// Per-run decision-memo counters: decisions answered from the memo, and
/// decisions evaluated.
struct MemoStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
};

class ForwardPolicy {
  public:
    virtual ~ForwardPolicy() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Decision at the first receipt of one session's packet at `v`.
    /// `visited` is the packet's piggybacked history — nodes known to have
    /// forwarded this session (most recent last, sender included).  Must
    /// not allocate on the hot path; single-threaded per engine run.
    [[nodiscard]] virtual bool should_forward(NodeId v,
                                              std::span<const NodeId> visited) const = 0;

    /// Called by `TrafficEngine::run` before its first decision.  A policy
    /// that caches answers empties its cache here, so each run pays its
    /// own misses and never depends on earlier runs.  Caches are logical
    /// no-ops (they never change an answer), hence `const`.
    virtual void begin_run() const {}

    /// Memo counters since the last `begin_run` (zero without a memo).
    [[nodiscard]] virtual MemoStats memo_stats() const { return {}; }
};

/// Always forward (the broadcast-storm baseline).
class FloodingPolicy final : public ForwardPolicy {
  public:
    [[nodiscard]] std::string name() const override { return "Flooding"; }
    [[nodiscard]] bool should_forward(NodeId, std::span<const NodeId>) const override {
        return true;
    }
};

/// Forward iff the node is in a precomputed source-independent mask.
class StaticMaskPolicy final : public ForwardPolicy {
  public:
    StaticMaskPolicy(std::string name, std::vector<char> mask)
        : name_(std::move(name)), mask_(std::move(mask)) {}

    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] bool should_forward(NodeId v, std::span<const NodeId>) const override {
        return mask_[v] != 0;
    }
    [[nodiscard]] const std::vector<char>& mask() const noexcept { return mask_; }

  private:
    std::string name_;
    std::vector<char> mask_;
};

/// First-receipt self-pruning (the generic framework's FR/SP row): v
/// forwards unless the coverage condition holds under its k-hop view with
/// the packet's history marked visited.  Views and keys are built once;
/// each decision reuses one scratch status buffer.
///
/// Decisions are memoised per run.  The views never change, a view
/// ignores the status of nodes outside its ball, and the visited history
/// is a set, so the answer is a pure function of `v` and the ascending,
/// distinct ball members of `visited` — the memo key.  Each node keeps at
/// most `kMemoCapacity` entries; once its table is full, further keys are
/// evaluated but not stored.  A history with more than `kMaxHistory` ball
/// members, or any history at a node whose ball exceeds 32,767 members,
/// is evaluated and not stored.  Tables keep their capacity across runs,
/// so once a policy's tables have grown, decisions allocate nothing.
class CoveragePolicy final : public ForwardPolicy {
  public:
    /// Memo entries kept per node per run.
    static constexpr std::size_t kMemoCapacity = 32;

    CoveragePolicy(const Graph& g, std::size_t hops, PriorityScheme priority,
                   CoverageOptions coverage = {}, std::string name = {});

    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] bool should_forward(NodeId v,
                                      std::span<const NodeId> visited) const override;
    void begin_run() const override;
    [[nodiscard]] MemoStats memo_stats() const override { return stats_; }

  private:
    /// The un-memoised decision.
    [[nodiscard]] bool evaluate(NodeId v, std::span<const NodeId> visited) const;

    std::string name_;
    PriorityKeys keys_;
    CoverageOptions coverage_;
    std::vector<LocalTopology> views_;           ///< one compiled view per node
    mutable std::vector<NodeStatus> status_;     ///< scratch, size n
    mutable std::vector<NodeId> touched_;        ///< scratch undo list
    /// Per node, this run: packed keys, each with its answer in bit 63.
    mutable std::vector<std::vector<std::uint64_t>> memo_;
    mutable MemoStats stats_;                    ///< this run
};

/// Builds a policy by key: "flooding", "generic-static", "generic-fr",
/// "wu-li".  Returns nullptr for unknown keys.
[[nodiscard]] std::unique_ptr<ForwardPolicy> make_policy(const Graph& g,
                                                         const std::string& key);

}  // namespace adhoc::traffic
