/// \file coverage.hpp
/// \brief The coverage condition (paper Section 3) and its special cases.
///
/// **Coverage condition.**  Node v may take non-forward status if for *any
/// two* neighbors u, w of v there is a *replacement path* from u to w whose
/// intermediate nodes (possibly none) all have priority higher than Pr(v).
///
/// **Strong coverage condition** (Section 6).  v may take non-forward
/// status if it has a *coverage set*: a set of higher-priority nodes,
/// contained in one connected component of the higher-priority induced
/// subgraph, that dominates N(v).  Strong implies the original, and is an
/// O(D^2) check versus O(D^3) for the original (D = network density).
///
/// Per Section 2, all visited nodes are assumed connected under any local
/// view (they are all connected to the source through visited paths), so
/// the component computation merges every visited node into one component.
/// Figure 6(b) of the paper depends on this merge.
///
/// **One kernel.**  Every option — full, strong, bounded replacement paths
/// (Span) and the coverage radius (restricted Rule-k) — is decided by one
/// algorithm on node masks: each view member's visible neighbours as a
/// bitset of W = ⌈m/64⌉ words (m = view members), plus the masks of the
/// higher-priority set H and of the visited nodes.  Components and reaches
/// grow by ORing rows.  `evaluate_coverage` writes the masks from a View
/// (its LocalTopology, member statuses and keys) in one pass;
/// `ball_covered` writes them from `ScaleEngine`'s BFS-ordered copy of the
/// graph.  A view of at most 64 members runs the one-word instantiation on
/// stack arrays; larger views run the same code over W words in reused
/// scratch.  Rows cost m * W words per decision, quadratic in m, and time
/// grows as deg(v) * m * W: the largest views any test, bench or campaign
/// builds have about 200 members (4 words a row).  A view of more than
/// kMaxMaskMembers members is refused with std::length_error rather than
/// decided on masks of megabytes.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/priority.hpp"
#include "core/view.hpp"
#include "graph/bfs_graph.hpp"
#include "graph/graph.hpp"
#include "graph/khop.hpp"

namespace adhoc {

/// The most view members the coverage kernel decides on: its masks for m
/// members take about m * m / 4 bytes (4 MiB here).
inline constexpr std::size_t kMaxMaskMembers = 4096;

/// Tuning knobs that turn the one generic condition into the special cases
/// of Section 6.
struct CoverageOptions {
    /// Use the strong coverage condition (connected dominating coverage
    /// set) instead of the full pairwise condition.
    bool strong = false;

    /// Maximum replacement-path length in hops (0 = unbounded).  Span uses
    /// 3 (at most two intermediate coordinators).  Only meaningful for the
    /// full condition.
    std::size_t max_path_hops = 0;

    /// Treat all visited nodes as one connected component (paper Section
    /// 2).  Disabled only by tests that demonstrate why the rule matters.
    bool merge_visited = true;

    /// Restrict coverage/replacement nodes to within this many hops of the
    /// evaluated node (0 = unlimited).  The *restricted* Rule-k
    /// implementations (Section 6.1) use 1 (coverage nodes must be
    /// neighbors, 2-hop info) or 2 (neighbors' neighbors, 3-hop info).
    std::size_t coverage_radius = 0;
};

/// Result of a coverage evaluation, with enough detail for tracing/tests.
struct CoverageOutcome {
    bool covered = false;  ///< true => v may take non-forward status
    /// For the full condition: a witness pair of neighbors with no
    /// replacement path (valid only when !covered and v has >= 2 visible
    /// neighbors).
    NodeId uncovered_u = kInvalidNode;
    NodeId uncovered_w = kInvalidNode;
};

/// Evaluates the (strong) coverage condition for `v` under `view`.
///
/// `self_status` is v's own status used on the left-hand side of the
/// priority comparisons — normally kUnvisited; pass kDesignated to model
/// the relaxed designated-node rule of Section 4.2 (a designated node may
/// still prune if covered by *visited or higher-priority designated*
/// nodes).  Throws std::length_error when the view has more than
/// kMaxMaskMembers members.
[[nodiscard]] CoverageOutcome evaluate_coverage(const View& view, NodeId v,
                                                const CoverageOptions& opts = {},
                                                NodeStatus self_status = NodeStatus::kUnvisited);

/// Convenience wrapper returning just the boolean.
[[nodiscard]] bool coverage_condition_holds(const View& view, NodeId v,
                                            const CoverageOptions& opts = {},
                                            NodeStatus self_status = NodeStatus::kUnvisited);

/// Working memory of `compile_ball_masks` and `ball_covered`, one per
/// deciding thread; every buffer only grows.
struct BallMaskScratch {
    /// Per node: epoch << 32 | hop distance << 16 | local id, current for
    /// the members of the last ball (epoch field == `epoch`), so
    /// consecutive balls clear nothing.
    std::vector<std::uint64_t> tags;
    /// Members in BFS order (local i is `queue[i]`, the center 0), written
    /// a slot per scanned adjacency entry.
    std::vector<NodeId> queue;
    std::vector<std::uint64_t> masks;  ///< rows and kernel masks above 64 members
    std::uint32_t epoch = 0;
    /// The most queue slots one ball has needed.  The queue doubles past
    /// it, by an amount that depends on the order of the balls.
    std::size_t queue_need = 0;

    [[nodiscard]] bool member(NodeId x) const noexcept { return tags[x] >> 32 == epoch; }
    /// The local id of a member `x`.
    [[nodiscard]] std::uint32_t local(NodeId x) const noexcept { return tags[x] & 0xffff; }
};

/// G_k(v) as node-mask rows in one truncated BFS over `ScaleEngine`'s
/// BFS-ordered graph `g`: each adjacency entry reads and writes one tag
/// word, numbers a new member (local ids in BFS order, v is 0) and sets
/// its row bit, and its transpose bit when it is exactly k hops out; each
/// member's bit of `above` takes one key compare after the BFS.  With W =
/// kWords (0: mask_words(cap)), row i is the W words from `rows + i * W`;
/// bit j of row i is set iff the link between locals i and j is in
/// E ∩ (N_{k-1}(v) × N_k(v)), the links `compile_ball` keeps: an interior
/// member's row is its adjacency row, and a boundary member's (exactly k
/// hops) its column of the interior rows, so no boundary node's adjacency
/// is read.  Bit i of `above` (W words) is set iff member i outranks v at
/// equal status.  Returns the member count m; a ball of more than `cap`
/// members is only counted — the pass stops writing masks and finishes
/// the BFS — so the caller compiles it again with cap = m.  Instantiated
/// for kWords 1 (cap <= 64) and 0 (cap <= kMaxMaskMembers).  Throws
/// std::invalid_argument when k > kMaxBallHops, and std::length_error as
/// soon as the ball passes kMaxMaskMembers members, so local ids fit the
/// tag's 16 bits.
template <std::size_t kWords>
std::size_t compile_ball_masks(const BfsGraph& g, NodeId v, std::size_t k,
                               const BfsPriorityKeys& keys, BallMaskScratch& s,
                               std::size_t cap, std::uint64_t* rows, std::uint64_t* above);

/// The coverage condition for `v` over its Definition-2 view G_k(v),
/// k >= 1, decided straight from `ScaleEngine`'s BFS-ordered graph `g`
/// under any options and for any ball size: `compile_ball_masks` writes
/// the rows and H (one word on the stack; a ball that outgrows it is
/// handed over to W-word masks in `s.masks`), and the kernel behind
/// `evaluate_coverage` decides on them — no sorted member list, no CSR, no
/// per-member `Priority`.  `v` and `visited` are internal ids of `g`.
/// Nodes in `visited` that are members have status visited (the
/// decision-time history), every other member is unvisited, and so is v.
/// Returns whether v is covered.  The verdict equals `evaluate_coverage` on
/// `local_topology` of the original graph at `g.original(v)` with those
/// statuses: only the witness, which this does not report, depends on
/// local-id order.  Throws std::invalid_argument when k == 0 or k >
/// kMaxBallHops, and std::length_error when the ball has more than
/// kMaxMaskMembers members.
[[nodiscard]] bool ball_covered(const BfsGraph& g, NodeId v, std::size_t k,
                                const BfsPriorityKeys& keys, std::span<const NodeId> visited,
                                const CoverageOptions& opts, BallMaskScratch& s);

/// LENWB's check (Section 6.2): the set C of nodes connected to `u` via
/// intermediates of priority greater than Pr(v).  Endpoints of the
/// expansion need not themselves have higher priority; expansion only
/// proceeds *through* higher-priority nodes (and through the merged visited
/// component).  Returns a membership mask over the original id space.
[[nodiscard]] std::vector<char> connected_via_higher_priority(const View& view, NodeId u,
                                                              const Priority& threshold,
                                                              bool merge_visited = true);

/// Naive O(n)-per-call implementations retained for cross-validation.
///
/// The production kernels above decide on node masks and local ids; these
/// are the straightforward global-id implementations they replaced.  The
/// equivalence property test (`coverage_equivalence_test`) asserts both
/// families agree bit-for-bit on every input.
namespace reference {

/// A local view in the full id space: a Graph over all `topo.id_space`
/// ids whose only edges are the view's links (invisible nodes isolated).
/// The reference kernels run on this form.
[[nodiscard]] Graph expand(const LocalTopology& topo);

[[nodiscard]] CoverageOutcome evaluate_coverage(const View& view, NodeId v,
                                                const CoverageOptions& opts = {},
                                                NodeStatus self_status = NodeStatus::kUnvisited);

[[nodiscard]] bool coverage_condition_holds(const View& view, NodeId v,
                                            const CoverageOptions& opts = {},
                                            NodeStatus self_status = NodeStatus::kUnvisited);

/// Connected components of the subgraph induced on nodes with priority
/// strictly greater than `threshold`, with all visited nodes merged into a
/// single component (when `merge_visited`).  Returns per-node labels
/// (kUnreachable outside the induced subgraph).  Tests read it to shape
/// inputs; the production kernel grows the same components as masks
/// without labelling them.
[[nodiscard]] std::vector<std::size_t> higher_priority_components(const View& view,
                                                                  const Priority& threshold,
                                                                  bool merge_visited);

[[nodiscard]] std::vector<char> connected_via_higher_priority(const View& view, NodeId u,
                                                              const Priority& threshold,
                                                              bool merge_visited = true);

}  // namespace reference

}  // namespace adhoc
