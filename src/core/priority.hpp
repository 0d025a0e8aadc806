/// \file priority.hpp
/// \brief Node status and the priority total order of the generic framework.
///
/// The paper (Section 2) assigns each node a priority tuple
/// Pr(v) = (S(v), key(v)) compared lexicographically:
///  - S(v) = 0   invisible under the local view (lowest),
///  - S(v) = 1   un-visited and un-designated,
///  - S(v) = 1.5 un-visited but designated by some neighbor (Section 4.2),
///  - S(v) = 2   visited (has forwarded, or is committed to forward).
/// The key is one of the schemes of Section 4.4 (node id / node degree /
/// neighborhood connectivity ratio), each ultimately tie-broken by the
/// globally unique node id, which makes the order total.

#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/bfs_graph.hpp"
#include "graph/graph.hpp"

namespace adhoc {

/// Visited/designated status as it appears in a view.  Enumerators are
/// ordered exactly like the paper's S values 0 < 1 < 1.5 < 2.
enum class NodeStatus : std::uint8_t {
    kInvisible = 0,   ///< not captured by the local view
    kUnvisited = 1,   ///< ordinary node
    kDesignated = 2,  ///< designated forward node, not yet forwarded (S=1.5)
    kVisited = 3,     ///< has forwarded the packet (S=2)
};

/// Which static key the priority uses (Section 4.4).
enum class PriorityScheme : std::uint8_t {
    kId,      ///< 0-hop: node id only
    kDegree,  ///< 1-hop: (degree, id)
    kNcr,     ///< 2-hop: (ncr, degree, id)
};

[[nodiscard]] std::string to_string(PriorityScheme scheme);
[[nodiscard]] std::string to_string(NodeStatus status);

/// A fully-evaluated priority value.  Compared lexicographically as
/// (status, key1, key2, id); unused keys are 0 so they do not perturb the
/// order.  Distinct nodes always compare unequal (id tiebreak).
struct Priority {
    NodeStatus status = NodeStatus::kInvisible;
    double key1 = 0.0;
    double key2 = 0.0;
    NodeId id = kInvalidNode;

    // Keys are never NaN, so the double comparisons below are total.
    friend constexpr std::strong_ordering operator<=>(const Priority& a,
                                                      const Priority& b) noexcept {
        if (a.status != b.status) return a.status <=> b.status;
        if (a.key1 != b.key1) {
            return a.key1 < b.key1 ? std::strong_ordering::less : std::strong_ordering::greater;
        }
        if (a.key2 != b.key2) {
            return a.key2 < b.key2 ? std::strong_ordering::less : std::strong_ordering::greater;
        }
        return a.id <=> b.id;
    }
    friend constexpr bool operator==(const Priority& a, const Priority& b) noexcept {
        return a.status == b.status && a.key1 == b.key1 && a.key2 == b.key2 && a.id == b.id;
    }
};

/// Per-node static priority keys, computed once per topology.
///
/// The paper notes the collection cost: id costs nothing extra, degree
/// costs one extra round of "hello" exchanges, ncr two extra rounds
/// (Section 4.4).  `extra_rounds()` exposes that cost model for the
/// overhead accounting in benches.
class PriorityKeys {
  public:
    PriorityKeys() = default;

    /// Computes keys for every node of `g` under `scheme`.
    PriorityKeys(const Graph& g, PriorityScheme scheme);

    [[nodiscard]] PriorityScheme scheme() const noexcept { return scheme_; }

    /// Evaluates the full priority of node `v` given its view status.
    [[nodiscard]] Priority evaluate(NodeId v, NodeStatus status) const {
        return Priority{status, key1_[v], key2_[v], v};
    }

    /// Extra "hello" rounds needed beyond plain k-hop id collection.
    [[nodiscard]] std::size_t extra_rounds() const noexcept;

    [[nodiscard]] std::size_t node_count() const noexcept { return key1_.size(); }

  private:
    PriorityScheme scheme_ = PriorityScheme::kId;
    std::vector<double> key1_;
    std::vector<double> key2_;
};

/// The static priority keys of a `BfsGraph`'s nodes, read by internal id:
/// `key` orders nodes as `PriorityKeys(original, scheme)` orders their
/// original ids at equal status, the original id staying the last
/// tiebreak.  Only what the graph cannot give is stored: id keys need
/// nothing, a degree key is the internal row length, and NCR keeps one
/// double per node, counted on `g` itself.  The graph must outlive the
/// keys.
class BfsPriorityKeys {
  public:
    BfsPriorityKeys() = default;
    BfsPriorityKeys(const BfsGraph& g, PriorityScheme scheme);

    /// A node's static key: x outranks y at equal status iff key(x) >
    /// key(y).  The NCR double (0 unless kNcr) comes first, then degree
    /// (0 under kId) << 32 | original id as one integer, so two keys
    /// compare without branches.
    struct Key {
        double ncr;
        std::uint64_t rest;
        friend bool operator>(const Key& a, const Key& b) noexcept {
            return (a.ncr > b.ncr) | ((a.ncr == b.ncr) & (a.rest > b.rest));
        }
    };
    [[nodiscard]] Key key(NodeId v) const noexcept {
        const std::uint64_t degree = scheme_ == PriorityScheme::kId ? 0 : g_->degree(v);
        return {scheme_ == PriorityScheme::kNcr ? ncr_[v] : 0.0, degree << 32 | g_->original(v)};
    }

    [[nodiscard]] std::size_t bytes() const noexcept { return ncr_.capacity() * sizeof(double); }

  private:
    const BfsGraph* g_ = nullptr;
    PriorityScheme scheme_ = PriorityScheme::kId;
    std::vector<double> ncr_;  ///< kNcr only, by internal id
};

}  // namespace adhoc
