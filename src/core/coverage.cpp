#include "core/coverage.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/compact_view.hpp"

// Optimized decision kernels.  Every function here follows the same shape:
// compile the view into the thread-local compact arena (dense local ids,
// CSR adjacency, priorities evaluated once), run the whole computation over
// local ids with reused buffers — zero heap allocations per call in steady
// state — and map results back to global ids on the way out.  Iteration
// orders mirror the retained `reference::` kernels exactly (local ids are
// assigned in ascending global order), so verdicts and witness pairs are
// bit-for-bit identical.  The coverage condition, under every option, is
// one kernel on node masks (`covered_on_masks`) that both
// `evaluate_coverage_compiled` (masks from a compact view) and
// `ball_covered` (masks straight from the graph) call.

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
/// reference kernel's when local ids ascend with global ids, as in
/// `evaluate_coverage_compiled`.  Only witnesses depend on how local ids
/// are numbered: components, reaches and the pair relation are sets.
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
    throw std::length_error("coverage: a view of " + std::to_string(m) +
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

/// The coverage condition for `lv` in the compact view `c` on W-word
/// masks: rows, H and the visited set from `c`, then the kernel.
template <std::size_t kWords>
[[gnu::always_inline]] inline MaskVerdict compact_covered(
    const CompactLocalView& c, std::uint32_t lv, const Priority& pv,
    const CoverageOptions& opts, std::uint64_t* rows, std::uint64_t* in_h,
    std::uint64_t* visited, std::uint64_t* temps, std::uint64_t* reach) {
    const MaskOps<kWords> ops{mask_words(c.size)};
    const std::size_t nw = ops.size();
    ops.fill(in_h, 0);
    ops.fill(visited, 0);
    for (std::uint32_t x = 0; x < c.size; ++x) {
        std::uint64_t* const r = rows + x * nw;
        ops.fill(r, 0);
        for (const std::uint32_t y : c.row(x)) ops.put(r, y, true);
        ops.put(in_h, x, c.priority[x] > pv);
        ops.put(visited, x, c.status[x] == NodeStatus::kVisited);
    }
    return covered_on_masks<kWords>(rows, nw, in_h, visited, lv, opts, temps, reach);
}

/// `ball_covered` on W-word masks for the ball of `m` members that
/// `ball_bfs` left in `s`: rows, H and the visited set straight from the
/// graph, then the kernel.  v is local 0.
template <std::size_t kWords>
[[gnu::always_inline]] inline bool ball_covered_on(
    const Graph& g, NodeId v, std::size_t k, std::size_t m, const PriorityKeys& keys,
    std::span<const NodeId> visited, const CoverageOptions& opts, const BallScratch& s,
    std::uint64_t* rows, std::uint64_t* in_h, std::uint64_t* seen, std::uint64_t* temps,
    std::uint64_t* reach) {
    const MaskOps<kWords> ops{mask_words(m)};
    compile_ball_masks<kWords>(g, k, s, m, rows);
    ops.fill(seen, 0);
    for (const NodeId x : visited) {
        if (s.member(x)) ops.put(seen, s.g2l[x], true);
    }
    // Visited members outrank v (status 2 > 1); an unvisited member does
    // when its static key does.
    std::copy_n(seen, ops.size(), in_h);
    const Priority pv = keys.evaluate(v, NodeStatus::kUnvisited);
    for (std::size_t i = 1; i < m; ++i) {
        ops.put(in_h, i, keys.evaluate(s.bfs[i], NodeStatus::kUnvisited) > pv);
    }
    return covered_on_masks<kWords>(rows, ops.size(), in_h, seen, 0, opts, temps, reach).covered;
}

}  // namespace

std::vector<char> connected_via_higher_priority(const View& view, NodeId u,
                                                const Priority& threshold, bool merge_visited) {
    std::vector<char> out(view.node_count(), 0);
    if (!view.visible(u)) return out;

    LocalViewScratch& s = LocalViewScratch::tls();
    s.compile(view);
    const CompactLocalView& c = s.compact;
    const std::uint32_t lu = view.local().local_of(u);

    bits::reset(s.mark, c.size);  // in-C membership
    if (s.queue.size() < c.size) s.queue.resize(c.size);
    std::size_t head = 0;
    std::size_t tail = 0;
    bool visited_injected = false;

    auto inject_visited = [&]() {
        if (visited_injected) return;
        visited_injected = true;
        for (std::uint32_t x = 0; x < c.size; ++x) {
            if (c.status[x] == NodeStatus::kVisited && !bits::test(s.mark.data(), x)) {
                bits::set(s.mark.data(), x);
                s.queue[tail++] = x;
            }
        }
    };

    bits::set(s.mark.data(), lu);
    s.queue[tail++] = lu;
    if (merge_visited && c.status[lu] == NodeStatus::kVisited) inject_visited();
    while (head < tail) {
        const std::uint32_t x = s.queue[head++];
        // Expansion proceeds only *through* the start node or nodes with
        // higher priority; lower-priority nodes may be reached (endpoints)
        // but not traversed.
        if (x != lu && !(c.priority[x] > threshold)) continue;
        for (std::uint32_t y : c.row(x)) {
            if (bits::test(s.mark.data(), y)) continue;
            bits::set(s.mark.data(), y);
            s.queue[tail++] = y;
            if (merge_visited && c.status[y] == NodeStatus::kVisited) inject_visited();
        }
    }

    for (std::uint32_t x = 0; x < c.size; ++x) {
        if (bits::test(s.mark.data(), x)) out[c.members[x]] = 1;
    }
    return out;
}

CoverageOutcome evaluate_coverage_compiled(LocalViewScratch& s, std::uint32_t lv,
                                           const Priority& pv, const CoverageOptions& opts) {
    const CompactLocalView& c = s.compact;
    if (c.row(lv).size() <= 1) return {.covered = true};  // no neighbor pair to connect
    const MaskVerdict verdict = on_kernel_masks(
        c.size, s.masks, [&](auto words, auto... masks) {
            return compact_covered<decltype(words)::value>(c, lv, pv, opts, masks...);
        });
    if (verdict.covered) return {.covered = true};
    return {.covered = false,
            .uncovered_u = c.members[verdict.u],
            .uncovered_w = verdict.w == kNoLocal ? kInvalidNode : c.members[verdict.w]};
}

bool ball_covered(const Graph& g, NodeId v, std::size_t k, const PriorityKeys& keys,
                  std::span<const NodeId> visited, const CoverageOptions& opts, BallScratch& s) {
    if (k == 0) throw std::invalid_argument("ball_covered: hops must be >= 1");
    if (g.neighbors(v).size() <= 1) return true;  // no neighbor pair to connect
    const std::size_t m = ball_bfs(g, v, k, s);
    return on_kernel_masks(m, s.masks, [&](auto words, auto... masks) {
        return ball_covered_on<decltype(words)::value>(g, v, k, m, keys, visited, opts, s,
                                                       masks...);
    });
}

CoverageOutcome evaluate_coverage(const View& view, NodeId v, const CoverageOptions& opts,
                                  NodeStatus self_status) {
    assert(view.visible(v));
    LocalViewScratch& s = LocalViewScratch::tls();
    s.compile(view);
    const std::uint32_t lv = view.local().local_of(v);
    const Priority pv = view.keys().evaluate(v, self_status);
    return evaluate_coverage_compiled(s, lv, pv, opts);
}

bool coverage_condition_holds(const View& view, NodeId v, const CoverageOptions& opts,
                              NodeStatus self_status) {
    return evaluate_coverage(view, v, opts, self_status).covered;
}

}  // namespace adhoc
