#include "core/coverage.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "graph/bfs_graph.hpp"

// The decision kernels.  The coverage condition, under every option and
// for every view size, is one kernel on node masks (`covered_on_masks`):
// `evaluate_coverage` writes the masks from a View in one pass over its
// members (local ids ascend with global ids, so witnesses are the
// reference kernel's) and `ball_covered` writes them straight from
// `ScaleEngine`'s BFS-ordered graph.  LENWB's reach is a BFS over the
// view's LocalTopology.  Buffers are reused per thread, so steady-state
// decisions allocate nothing beyond their results.

namespace adhoc {

namespace {

constexpr std::uint64_t kOne = 1;

/// Masks the kernel keeps besides one reach set per component of H.
constexpr std::size_t kTempMasks = 7;

/// A verdict of the mask kernel: covered, or a witness of local ids (`w`
/// is kNoLocal for the strong condition, which names one neighbour).
struct MaskVerdict {
    bool covered = true;
    std::uint32_t u = 0;
    std::uint32_t w = kNoLocal;
};

/// Word-parallel helpers over `kWords`-word masks (kWords == 0: `words`).
template <std::size_t kWords>
struct MaskOps {
    std::size_t words;

    [[gnu::always_inline]] std::size_t size() const { return kWords != 0 ? kWords : words; }
    [[gnu::always_inline]] bool test(const std::uint64_t* a, std::size_t i) const {
        return (a[mask_word<kWords>(i)] >> (i % 64)) & 1;
    }
    [[gnu::always_inline]] void put(std::uint64_t* a, std::size_t i, bool bit) const {
        a[mask_word<kWords>(i)] |= std::uint64_t{bit} << (i % 64);
    }
    [[gnu::always_inline]] void clear(std::uint64_t* a, std::size_t i) const {
        a[mask_word<kWords>(i)] &= ~(kOne << (i % 64));
    }
    [[gnu::always_inline]] bool any(const std::uint64_t* a) const {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < size(); ++i) acc |= a[i];
        return acc != 0;
    }
    /// The lowest set bit of a nonzero mask.
    [[gnu::always_inline]] std::uint32_t lowest(const std::uint64_t* a) const {
        std::size_t i = 0;
        while (i + 1 < size() && a[i] == 0) ++i;
        return static_cast<std::uint32_t>(i * 64 + std::countr_zero(a[i]));
    }
    [[gnu::always_inline]] void fill(std::uint64_t* a, std::uint64_t word) const {
        for (std::size_t i = 0; i < size(); ++i) a[i] = word;
    }
};

/// The coverage condition for local node `lv` on node masks of W words
/// (W = kWords, or `words` when kWords == 0): `rows` holds row x of local
/// x's visible neighbours at rows + x * W, `in_h` the nodes of priority
/// above Pr(v) (v's own bit is ignored; the radius option narrows it in
/// place) and `visited` the visited nodes.  `temps` has room for
/// kTempMasks masks and `reach` for one per node of H.
///
/// - Radius: H is masked to v's radius ball, found by one mask BFS.
/// - Full and strong: H's components grow by frontier ORs (the visited
///   H-nodes seed the first one when `merge_visited`); `reach[c]` is
///   component c plus every node adjacent to it.  A neighbour u meets c
///   iff u is in reach[c].  Full: neighbours u, w share a component iff w
///   lies in the union of the reaches that hold u, so each u gets its
///   partners as one mask, and the lowest failing bit above u is the first
///   failing (i, j > i) pair.  Strong: component c drops out of the
///   running AND at the first neighbour outside reach[c], so the AND
///   empties at the latest such neighbour, unless some reach holds them
///   all.
/// - Bounded paths (Span): u's reach through H grows level by level up to
///   max_path_hops - 1 intermediates; once a level holds a visited node,
///   every visited H-node joins it (`merge_visited`).  w is joined to u
///   iff w touches that reach.
///
/// Neighbours are visited in ascending local id, so witnesses are the
/// reference kernel's when local ids ascend with global ids, as in a View.
/// Only witnesses depend on how local ids are numbered: components, reaches
/// and the pair relation are sets.
template <std::size_t kWords>
[[gnu::always_inline]] inline MaskVerdict covered_on_masks(
    const std::uint64_t* rows, std::size_t words, std::uint64_t* in_h,
    const std::uint64_t* visited, std::uint32_t lv, const CoverageOptions& opts,
    std::uint64_t* temps, std::uint64_t* reach) {
    const MaskOps<kWords> ops{words};
    const std::size_t nw = ops.size();
    const auto row = [&](std::size_t x) { return rows + x * nw; };
    std::uint64_t* const rest = temps;  // neighbours of v not yet checked
    std::uint64_t* const members = temps + nw;
    std::uint64_t* const frontier = temps + 2 * nw;
    std::uint64_t* const next = temps + 3 * nw;
    std::uint64_t* const touched = temps + 4 * nw;
    std::uint64_t* const left = temps + 5 * nw;  // H not yet in a component; then partners
    std::uint64_t* const fail = temps + 6 * nw;
    // next = the union of the rows of the nodes in `set`.
    const auto or_rows = [&](const std::uint64_t* set) {
        ops.fill(next, 0);
        for (std::size_t i = 0; i < nw; ++i) {
            for (std::uint64_t f = set[i]; f != 0; f &= f - 1) {
                const std::uint64_t* const r =
                    row(i * 64 + static_cast<std::size_t>(std::countr_zero(f)));
                for (std::size_t j = 0; j < nw; ++j) next[j] |= r[j];
            }
        }
    };
    const std::uint64_t* const nbrs = row(lv);
    const bool merge = opts.merge_visited;

    if (opts.coverage_radius > 0) {
        // Restricted implementations: only nodes within the radius may act
        // as coverage/replacement nodes.
        ops.fill(members, 0);
        ops.put(members, lv, true);
        std::copy_n(members, nw, frontier);
        for (std::size_t d = 0; d < opts.coverage_radius && ops.any(frontier); ++d) {
            or_rows(frontier);
            for (std::size_t i = 0; i < nw; ++i) {
                frontier[i] = next[i] & ~members[i];
                members[i] |= frontier[i];
            }
        }
        for (std::size_t i = 0; i < nw; ++i) in_h[i] &= members[i];
    }
    ops.clear(in_h, lv);

    if (opts.max_path_hops > 0 && !opts.strong) {
        const std::size_t cap = opts.max_path_hops - 1;
        std::copy_n(nbrs, nw, rest);
        while (ops.any(rest)) {
            const std::uint32_t u = ops.lowest(rest);
            ops.clear(rest, u);
            ops.fill(members, 0);
            ops.fill(touched, 0);
            for (std::size_t i = 0; i < nw; ++i) frontier[i] = row(u)[i] & in_h[i];
            for (std::size_t depth = 1; depth <= cap; ++depth) {
                bool meets_visited = false;
                for (std::size_t i = 0; i < nw; ++i) meets_visited |= (frontier[i] & visited[i]) != 0;
                if (merge && meets_visited) {
                    for (std::size_t i = 0; i < nw; ++i) {
                        frontier[i] |= in_h[i] & visited[i] & ~members[i];
                    }
                }
                if (!ops.any(frontier)) break;
                for (std::size_t i = 0; i < nw; ++i) members[i] |= frontier[i];
                or_rows(frontier);
                for (std::size_t i = 0; i < nw; ++i) {
                    touched[i] |= next[i];
                    frontier[i] = next[i] & in_h[i] & ~members[i];
                }
            }
            for (std::size_t i = 0; i < nw; ++i) fail[i] = rest[i] & ~row(u)[i] & ~touched[i];
            if (ops.any(fail)) return {.covered = false, .u = u, .w = ops.lowest(fail)};
        }
        return {};
    }

    std::size_t count = 0;
    std::copy_n(in_h, nw, left);
    for (std::size_t i = 0; i < nw; ++i) frontier[i] = merge ? in_h[i] & visited[i] : 0;
    while (ops.any(left)) {
        if (!ops.any(frontier)) ops.put(frontier, ops.lowest(left), true);
        std::copy_n(frontier, nw, members);
        ops.fill(touched, 0);
        while (ops.any(frontier)) {
            or_rows(frontier);
            for (std::size_t i = 0; i < nw; ++i) {
                touched[i] |= next[i];
                frontier[i] = next[i] & left[i] & ~members[i];
                members[i] |= frontier[i];
            }
        }
        std::uint64_t* const r = reach + count * nw;
        for (std::size_t i = 0; i < nw; ++i) {
            r[i] = members[i] | touched[i];
            left[i] &= ~members[i];
        }
        ++count;
    }

    if (opts.strong) {
        std::uint32_t witness = ops.lowest(nbrs);
        for (std::size_t c = 0; c < count; ++c) {
            const std::uint64_t* const r = reach + c * nw;
            for (std::size_t i = 0; i < nw; ++i) fail[i] = nbrs[i] & ~r[i];
            if (!ops.any(fail)) return {};
            witness = std::max(witness, ops.lowest(fail));
        }
        return {.covered = false, .u = witness};
    }

    // Full pairwise condition.  The relation is not transitive, so every
    // neighbour gets its own partner mask.
    std::uint64_t* const partners = left;
    std::copy_n(nbrs, nw, rest);
    while (ops.any(rest)) {
        const std::uint32_t u = ops.lowest(rest);
        ops.clear(rest, u);
        ops.fill(partners, 0);
        for (std::size_t c = 0; c < count; ++c) {
            const std::uint64_t* const r = reach + c * nw;
            const std::uint64_t holds = ops.test(r, u) ? ~std::uint64_t{0} : 0;
            for (std::size_t i = 0; i < nw; ++i) partners[i] |= r[i] & holds;
        }
        // Neighbours above u that are neither adjacent to u nor joined to it.
        for (std::size_t i = 0; i < nw; ++i) fail[i] = rest[i] & ~row(u)[i] & ~partners[i];
        if (ops.any(fail)) return {.covered = false, .u = u, .w = ops.lowest(fail)};
    }
    return {};
}

[[noreturn, gnu::cold]] void refuse_view(std::size_t m) {
    throw std::length_error("coverage: a view of at least " + std::to_string(m) +
                            " members exceeds the node-mask kernel's limit of " +
                            std::to_string(kMaxMaskMembers) +
                            " (its masks cost about m * m / 4 bytes)");
}

/// Calls `f(std::integral_constant<std::size_t, W>{}, rows, in_h, visited,
/// temps, reach)` on the kernel's masks for a view of `m` members, the one
/// place they are laid out.  W = 1 (m <= 64): separate stack arrays.
/// Otherwise W = 0 (mask_words(m) words a mask): one block of `heap`, grown
/// to exactly the largest view's need — m rows, H, the visited set,
/// kTempMasks temporaries and m reaches.  Throws std::length_error above
/// kMaxMaskMembers members.
template <class F>
[[gnu::always_inline]] inline auto on_kernel_masks(std::size_t m, std::vector<std::uint64_t>& heap,
                                                   F&& f) {
    if (m <= 64) {
        std::uint64_t rows[64];
        std::uint64_t in_h;
        std::uint64_t visited;
        std::uint64_t temps[kTempMasks];
        std::uint64_t reach[64];
        return f(std::integral_constant<std::size_t, 1>{}, rows, &in_h, &visited, temps, reach);
    }
    if (m > kMaxMaskMembers) refuse_view(m);
    const std::size_t nw = mask_words(m);
    const std::size_t words = (2 * m + 2 + kTempMasks) * nw;
    if (heap.size() < words) {
        heap.reserve(words);
        heap.resize(words);
    }
    std::uint64_t* const rows = heap.data();
    std::uint64_t* const in_h = rows + m * nw;
    std::uint64_t* const temps = in_h + 2 * nw;
    return f(std::integral_constant<std::size_t, 0>{}, rows, in_h, in_h + nw, temps,
             temps + kTempMasks * nw);
}

/// The coverage condition for local `lv` of `view` on W-word masks: rows,
/// H and the visited set in one pass over the view's members, then the
/// kernel.
template <std::size_t kWords>
[[gnu::always_inline]] inline MaskVerdict view_covered(
    const View& view, std::uint32_t lv, const Priority& pv, const CoverageOptions& opts,
    std::uint64_t* rows, std::uint64_t* in_h, std::uint64_t* visited, std::uint64_t* temps,
    std::uint64_t* reach) {
    const LocalTopology& topo = view.local();
    const MaskOps<kWords> ops{mask_words(topo.size())};
    const std::size_t nw = ops.size();
    ops.fill(in_h, 0);
    ops.fill(visited, 0);
    for (std::uint32_t x = 0; x < topo.size(); ++x) {
        std::uint64_t* const r = rows + x * nw;
        ops.fill(r, 0);
        for (const std::uint32_t y : topo.row(x)) ops.put(r, y, true);
        const NodeId member = topo.members[x];
        const NodeStatus st = view.member_status(member);
        ops.put(in_h, x, view.keys().evaluate(member, st) > pv);
        ops.put(visited, x, st == NodeStatus::kVisited);
    }
    return covered_on_masks<kWords>(rows, nw, in_h, visited, lv, opts, temps, reach);
}

/// The BFS of `compile_ball_masks` from `head` and `tail` on.  kCount: it
/// numbers members only, for a ball that outgrew the masks, and refuses
/// the ball as soon as it passes kMaxMaskMembers members, so local ids fit
/// the tag's 16 bits.
template <std::size_t kWords, bool kCount>
std::size_t ball_pass(const BfsGraph& g, NodeId v, std::size_t k, const BfsPriorityKeys& keys,
                      BallMaskScratch& s, std::size_t cap, std::uint64_t* rows,
                      std::uint64_t* above, std::size_t head, std::size_t tail) {
    const std::uint32_t epoch = s.epoch;
    const std::uint64_t stamp = std::uint64_t{epoch} << 32;
    const std::uint64_t boundary = std::uint64_t{k} << 16;
    const std::size_t nw = kWords != 0 ? kWords : mask_words(cap);
    std::uint64_t* const tags = s.tags.data();
    // Branch-free per adjacency entry: the entry is written to the next
    // free queue slot unconditionally and kept by advancing the tail by a
    // 0/1 predicate.  A non-member's tag holds a stale but initialised
    // value, so reading it is harmless.  The expanded member's row stays in
    // a register at one word, and H is filled after the BFS, one key
    // compare per member.
    const auto scan = [&](auto last_layer, NodeId x, std::uint64_t dx) -> bool {
        const auto row = g.neighbors(x);
        const std::size_t need = tail + row.size();
        if (s.queue.size() < need) s.queue.resize(2 * need);
        s.queue_need = std::max(s.queue_need, need);
        NodeId* const queue = s.queue.data();
        const std::uint64_t fresh_tag = stamp | (dx + 1) << 16;
        std::uint64_t* const rx = kCount ? nullptr : rows + head * nw;
        const std::size_t x_word = mask_word<kWords>(head);
        const std::size_t x_shift = head % 64;
        std::uint64_t one_word_row = 0;
        for (const NodeId y : row) {
            const std::uint64_t t = tags[y];
            const bool fresh = (t >> 32) != epoch;
            const std::uint64_t tag = fresh ? fresh_tag | tail : t;
            tags[y] = tag;
            queue[tail] = y;
            tail += fresh;
            if (tail > cap) [[unlikely]] return false;
            if (kCount) continue;
            const std::size_t ly = tag & 0xffff;
            const std::uint64_t y_bit = kOne << (ly % 64);
            if constexpr (kWords == 1) {
                one_word_row |= y_bit;
            } else {
                rx[ly / 64] |= y_bit;
            }
            // Only the last interior layer (k - 1 hops) sees boundary
            // members: a boundary member's row is its column of the
            // interior rows.
            if constexpr (decltype(last_layer)::value) {
                rows[ly * nw + x_word] |= std::uint64_t{(tag & 0xffff0000) == boundary}
                                          << x_shift;
            }
        }
        if constexpr (kWords == 1 && !kCount) rx[0] = one_word_row;
        return true;
    };
    bool last_layer = false;
    for (; head < tail; ++head) {
        const NodeId x = s.queue[head];
        const std::uint64_t dx = tags[x] >> 16 & 0xffff;
        if (dx == k) break;  // BFS order: every later member is on the boundary
        if (dx + 1 == k && !last_layer) {
            // One word: the rows of the last interior layer and of the
            // boundary are cleared once; every earlier row is written whole.
            last_layer = true;
            if constexpr (kWords == 1 && !kCount) std::fill(rows + head, rows + cap, 0);
        }
        const bool kept = last_layer ? scan(std::true_type{}, x, dx)
                                     : scan(std::false_type{}, x, dx);
        if (!kept) {
            if (kCount) refuse_view(tail);
            return ball_pass<kWords, true>(g, v, k, keys, s, kMaxMaskMembers, rows, above, head,
                                           tail);  // the head's row is scanned again
        }
    }
    if constexpr (!kCount) {
        // H: the members whose static key is above v's, one compare each.
        const BfsPriorityKeys::Key key_v = keys.key(v);
        std::uint64_t h = 0;
        for (std::size_t i = 1; i < tail; ++i) {
            const std::uint64_t higher = keys.key(s.queue[i]) > key_v;
            if constexpr (kWords == 1) {
                h |= higher << i;
            } else {
                above[i / 64] |= higher << (i % 64);
            }
        }
        if constexpr (kWords == 1) above[0] = h;
    }
    return tail;
}

}  // namespace

template <std::size_t kWords>
std::size_t compile_ball_masks(const BfsGraph& g, NodeId v, std::size_t k,
                               const BfsPriorityKeys& keys, BallMaskScratch& s,
                               std::size_t cap, std::uint64_t* rows, std::uint64_t* above) {
    assert(g.contains(v));
    assert(cap <= (kWords == 1 ? 64 : kMaxMaskMembers));
    if (k > kMaxBallHops) {
        throw std::invalid_argument("compile_ball_masks: hops = " + std::to_string(k) +
                                    " exceeds the 16-bit distance limit " +
                                    std::to_string(kMaxBallHops));
    }
    if (s.tags.size() < g.node_count()) s.tags.resize(g.node_count(), 0);
    if (++s.epoch == 0) {  // wrap: invalidate every tag once
        std::fill(s.tags.begin(), s.tags.end(), 0);
        s.epoch = 1;
    }
    if constexpr (kWords == 1) {
        rows[0] = 0;  // the pass writes every row, v's unless k == 0
    } else {
        std::fill_n(rows, cap * mask_words(cap), 0);
        std::fill_n(above, mask_words(cap), 0);
    }
    if (s.queue.empty()) s.queue.resize(1);
    s.queue[0] = v;
    s.tags[v] = std::uint64_t{s.epoch} << 32;
    return ball_pass<kWords, false>(g, v, k, keys, s, cap, rows, above, 0, 1);
}

template std::size_t compile_ball_masks<1>(const BfsGraph&, NodeId, std::size_t,
                                           const BfsPriorityKeys&, BallMaskScratch&, std::size_t,
                                           std::uint64_t*, std::uint64_t*);
template std::size_t compile_ball_masks<0>(const BfsGraph&, NodeId, std::size_t,
                                           const BfsPriorityKeys&, BallMaskScratch&, std::size_t,
                                           std::uint64_t*, std::uint64_t*);

std::vector<char> connected_via_higher_priority(const View& view, NodeId u,
                                                const Priority& threshold, bool merge_visited) {
    std::vector<char> out(view.node_count(), 0);  // also the BFS's membership mark
    if (!view.visible(u)) return out;
    const LocalTopology& topo = view.local();
    const std::uint32_t lu = topo.local_of(u);
    thread_local std::vector<std::uint32_t> queue;
    queue.clear();
    const auto reach = [&](std::uint32_t x) {
        out[topo.members[x]] = 1;
        queue.push_back(x);
    };
    const auto is_visited = [&](std::uint32_t x) {
        return view.member_status(topo.members[x]) == NodeStatus::kVisited;
    };
    bool visited_injected = false;
    const auto inject_visited = [&]() {
        if (visited_injected) return;
        visited_injected = true;
        for (std::uint32_t x = 0; x < topo.size(); ++x) {
            if (is_visited(x) && out[topo.members[x]] == 0) reach(x);
        }
    };

    reach(lu);
    if (merge_visited && is_visited(lu)) inject_visited();
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::uint32_t x = queue[head];
        const NodeId gx = topo.members[x];
        // Expansion proceeds only *through* the start node or nodes with
        // higher priority; lower-priority nodes may be reached (endpoints)
        // but not traversed.
        if (x != lu && !(view.keys().evaluate(gx, view.member_status(gx)) > threshold)) continue;
        for (const std::uint32_t y : topo.row(x)) {
            if (out[topo.members[y]] != 0) continue;
            reach(y);
            if (merge_visited && is_visited(y)) inject_visited();
        }
    }
    return out;
}

bool ball_covered(const BfsGraph& g, NodeId v, std::size_t k, const BfsPriorityKeys& keys,
                  std::span<const NodeId> visited, const CoverageOptions& opts,
                  BallMaskScratch& s) {
    if (k == 0) throw std::invalid_argument("ball_covered: hops must be >= 1");
    if (g.degree(v) <= 1) return true;  // no neighbor pair to connect
    // The pass compiles up to 64 members onto the stack's one-word masks;
    // a ball that outgrows them is counted and compiled again onto W-word
    // masks of exactly its size.
    std::size_t m = 64;
    const auto decide = [&](auto words, std::uint64_t* rows, std::uint64_t* in_h,
                            std::uint64_t* seen, std::uint64_t* temps,
                            std::uint64_t* reach) -> std::optional<bool> {
        constexpr std::size_t kWords = decltype(words)::value;
        const std::size_t cap = m;
        m = compile_ball_masks<kWords>(g, v, k, keys, s, cap, rows, in_h);
        if (m > cap) return std::nullopt;
        const MaskOps<kWords> ops{mask_words(m)};
        ops.fill(seen, 0);
        for (const NodeId x : visited) {
            if (s.member(x)) ops.put(seen, s.local(x), true);
        }
        // Visited members outrank v (status 2 > 1) whatever their keys.
        for (std::size_t i = 0; i < ops.size(); ++i) in_h[i] |= seen[i];
        return covered_on_masks<kWords>(rows, ops.size(), in_h, seen, 0, opts, temps, reach)
            .covered;
    };
    if (const std::optional<bool> verdict = on_kernel_masks(m, s.masks, decide)) return *verdict;
    return *on_kernel_masks(m, s.masks, decide);
}

CoverageOutcome evaluate_coverage(const View& view, NodeId v, const CoverageOptions& opts,
                                  NodeStatus self_status) {
    assert(view.visible(v));
    const LocalTopology& topo = view.local();
    const std::uint32_t lv = topo.local_of(v);
    if (topo.row(lv).size() <= 1) return {.covered = true};  // no neighbor pair to connect
    const Priority pv = view.keys().evaluate(v, self_status);
    thread_local std::vector<std::uint64_t> masks_above_64;
    const MaskVerdict verdict =
        on_kernel_masks(topo.size(), masks_above_64, [&](auto words, auto... masks) {
            return view_covered<decltype(words)::value>(view, lv, pv, opts, masks...);
        });
    if (verdict.covered) return {.covered = true};
    return {.covered = false,
            .uncovered_u = topo.members[verdict.u],
            .uncovered_w = verdict.w == kNoLocal ? kInvalidNode : topo.members[verdict.w]};
}

bool coverage_condition_holds(const View& view, NodeId v, const CoverageOptions& opts,
                              NodeStatus self_status) {
    return evaluate_coverage(view, v, opts, self_status).covered;
}

}  // namespace adhoc
