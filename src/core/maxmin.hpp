/// \file maxmin.hpp
/// \brief The MAX_MIN procedure of Lemma 1: maximal replacement paths.
///
/// Given neighbors u, w of a non-forward node v, MAX_MIN(u, w, v)
/// constructs a *maximal* replacement path — one whose intermediate nodes
/// cannot themselves be replaced under the current view (they are forward
/// or visited nodes).  It recursively splits on the *max-min node*: among
/// all replacement paths for v connecting u and w, the node of highest
/// priority that appears as the minimum-priority node of some path
/// (Definition 1).  The machinery exists to validate the paper's
/// correctness argument; the protocol itself only needs the boolean
/// coverage condition, so MAX_MIN has one, straightforward
/// implementation: each call reads the view in the full id space
/// (`reference::expand`) and re-sorts its candidates, O(n) per call.

#pragma once

#include <optional>
#include <vector>

#include "core/view.hpp"
#include "graph/graph.hpp"

namespace adhoc {

/// Finds the max-min node for (u, w, v) under `view`: the bottleneck node
/// of the widest (priority-wise) replacement path for v from u to w.
/// Returns kInvalidNode when u, w are directly connected or no replacement
/// path exists.  `self_priority` is Pr(v), the threshold intermediates must
/// exceed.
[[nodiscard]] NodeId max_min_node(const View& view, NodeId u, NodeId w,
                                  const Priority& self_priority);

/// Runs MAX_MIN(u, w, v) and returns the intermediate nodes of the maximal
/// replacement path (empty when u, w are adjacent), or nullopt when no
/// replacement path exists at all.
[[nodiscard]] std::optional<std::vector<NodeId>> max_min_path(const View& view, NodeId u,
                                                              NodeId w,
                                                              const Priority& self_priority);

/// True iff `path` (intermediates only) is a replacement path for the
/// threshold priority connecting u to w under `view`: consecutive hops are
/// edges and every intermediate has priority > threshold.
[[nodiscard]] bool is_replacement_path(const View& view, NodeId u, NodeId w,
                                       const std::vector<NodeId>& intermediates,
                                       const Priority& threshold);

}  // namespace adhoc
