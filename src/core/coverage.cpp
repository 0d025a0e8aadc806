#include "core/coverage.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "core/compact_view.hpp"
#include "graph/traversal.hpp"

// Optimized decision kernels.  Every function here follows the same shape:
// compile the view into the thread-local compact arena (dense local ids,
// CSR adjacency, priorities evaluated once), run the whole computation over
// local ids with reused buffers — zero heap allocations per call in steady
// state — and map results back to global ids on the way out.  Iteration
// orders mirror the retained `reference::` kernels exactly (local ids are
// assigned in ascending global order), so verdicts and witness pairs are
// bit-for-bit identical, as are the labels `higher_priority_components`
// returns.  The full condition on views of at most 64 members computes no
// labels at all: it decides on one-word node masks, in one kernel that
// both `evaluate_coverage_compiled` (masks from a compact view) and
// `ball_covered_on_words` (masks straight from the graph) call.

namespace adhoc {

namespace {

/// Bitset of local nodes with priority strictly greater than `threshold`
/// (excluding `exclude_local` when != kNoLocal).  Fills `s.in_h`.
void higher_priority_bits(LocalViewScratch& s, const Priority& threshold,
                          std::uint32_t exclude_local) {
    const CompactLocalView& c = s.compact;
    bits::reset(s.in_h, c.size);
    for (std::uint32_t x = 0; x < c.size; ++x) {
        if (x == exclude_local) continue;
        if (c.priority[x] > threshold) bits::set(s.in_h.data(), x);
    }
}

/// Component labels of the subgraph induced on `s.in_h`, into `s.labels`
/// (kNoLocal outside).  Discovery order matches the reference kernel:
/// roots in ascending id order, BFS expanding sorted rows.  Returns the
/// number of labels assigned.
std::uint32_t components_on_bits(LocalViewScratch& s) {
    const CompactLocalView& c = s.compact;
    s.labels.assign(c.size, kNoLocal);
    if (s.queue.size() < c.size) s.queue.resize(c.size);
    std::uint32_t next = 0;
    const std::size_t words = bits::word_count(c.size);
    for (std::size_t wi = 0; wi < words; ++wi) {
        // Roots ascend: the set bits of each word, low to high.
        for (std::uint64_t word = s.in_h[wi]; word != 0; word &= word - 1) {
            const auto root =
                static_cast<std::uint32_t>(wi * bits::kWordBits + std::countr_zero(word));
            if (s.labels[root] != kNoLocal) continue;
            std::size_t head = 0;
            std::size_t tail = 0;
            s.labels[root] = next;
            s.queue[tail++] = root;
            while (head < tail) {
                const std::uint32_t x = s.queue[head++];
                for (std::uint32_t y : c.row(x)) {
                    if (!bits::test(s.in_h.data(), y) || s.labels[y] != kNoLocal) continue;
                    s.labels[y] = next;
                    s.queue[tail++] = y;
                }
            }
            ++next;
        }
    }
    return next;
}

/// Remaps component labels so every component containing a visited node
/// shares one label (the merged "visited super-component").  The visited
/// label set, its size and its minimum are collected in one pass; with at
/// most one visited component the remap is the identity and is skipped.
void merge_visited_labels(LocalViewScratch& s, std::uint32_t label_count) {
    const CompactLocalView& c = s.compact;
    std::uint32_t rep = kNoLocal;
    std::uint32_t visited_components = 0;
    bits::reset(s.mark, label_count);
    for (std::uint32_t x = 0; x < c.size; ++x) {
        if (s.labels[x] == kNoLocal || c.status[x] != NodeStatus::kVisited) continue;
        rep = std::min(rep, s.labels[x]);
        visited_components += !bits::test(s.mark.data(), s.labels[x]);
        bits::set(s.mark.data(), s.labels[x]);
    }
    if (visited_components <= 1) return;
    for (std::uint32_t x = 0; x < c.size; ++x) {
        if (s.labels[x] != kNoLocal && bits::test(s.mark.data(), s.labels[x])) {
            s.labels[x] = rep;
        }
    }
}

/// Label set that local node `u` belongs to or is adjacent to, as a bitset
/// over label ids into the zeroed words at `out` (the word-parallel
/// replacement for the sorted label vectors the reference kernel
/// intersects pairwise).
void adjacent_component_bits(const LocalViewScratch& s, std::uint32_t u, std::uint64_t* out) {
    if (s.labels[u] != kNoLocal) bits::set(out, s.labels[u]);
    for (std::uint32_t y : s.compact.row(u)) {
        if (s.labels[y] != kNoLocal) bits::set(out, s.labels[y]);
    }
}

/// Sets the bits of `u`'s neighbor row in `s.row_bits`: an O(deg) adjacency
/// index for the pair loops, which test u–w adjacency with one bit read
/// instead of a binary search.  `unmark_row` zeroes the words it touched,
/// so the bitset is all-zero again between rows.
void mark_row(LocalViewScratch& s, std::uint32_t u) {
    for (std::uint32_t y : s.compact.row(u)) bits::set(s.row_bits.data(), y);
}

void unmark_row(LocalViewScratch& s, std::uint32_t u) {
    for (std::uint32_t y : s.compact.row(u)) s.row_bits[y / bits::kWordBits] = 0;
}

/// Bounded-depth reach of H-nodes from `u` (paper: replacement paths with
/// at most `max_intermediates` intermediate H-nodes, the first adjacent to
/// `u`).  Fills `s.dist` with the number of H-nodes on the walk up to and
/// including each node (kNoLocal = unreached).  When `merge_visited`, the
/// visited H-nodes behave as one hyper-node.
void bounded_reach(LocalViewScratch& s, std::uint32_t u, std::size_t max_intermediates,
                   bool merge_visited) {
    const CompactLocalView& c = s.compact;
    s.dist.assign(c.size, kNoLocal);
    if (s.queue.size() < c.size) s.queue.resize(c.size);
    std::size_t head = 0;
    std::size_t tail = 0;
    bool visited_injected = false;

    auto inject_visited = [&](std::uint32_t d) {
        if (visited_injected) return;
        visited_injected = true;
        for (std::uint32_t x = 0; x < c.size; ++x) {
            if (bits::test(s.in_h.data(), x) && c.status[x] == NodeStatus::kVisited &&
                s.dist[x] == kNoLocal) {
                s.dist[x] = d;
                s.queue[tail++] = x;
            }
        }
    };

    for (std::uint32_t y : c.row(u)) {
        if (!bits::test(s.in_h.data(), y) || s.dist[y] != kNoLocal) continue;
        s.dist[y] = 1;
        s.queue[tail++] = y;
        if (merge_visited && c.status[y] == NodeStatus::kVisited) inject_visited(1);
    }
    while (head < tail) {
        const std::uint32_t x = s.queue[head++];
        if (s.dist[x] >= max_intermediates) continue;
        for (std::uint32_t y : c.row(x)) {
            if (!bits::test(s.in_h.data(), y) || s.dist[y] != kNoLocal) continue;
            s.dist[y] = s.dist[x] + 1;
            s.queue[tail++] = y;
            if (merge_visited && c.status[y] == NodeStatus::kVisited) inject_visited(s.dist[y]);
        }
    }
}

/// A verdict of the one-word kernel: covered, or a witness pair of local
/// ids.
struct WordVerdict {
    bool covered = true;
    std::uint32_t u = 0;
    std::uint32_t w = 0;
};

/// The full condition (unbounded paths, no radius) on one-word node masks,
/// for views of at most 64 members: `rows[x]` is local x's visible
/// neighbours, `in_h` the nodes of priority above Pr(v) (v's own bit is
/// ignored) and `visited` the visited nodes.  H's components grow by
/// frontier ORs (the visited H-nodes seed the first one when
/// `merge_visited`), and each component's closed neighbourhood `reach` is
/// the set of nodes that component touches.  Neighbours u, w of v share a
/// component iff w lies in the union of the reaches of the components that
/// touch u, so each u gets its failing partners as one mask; the lowest set
/// bit above u is the first failing (i, j > i) pair in local-id order —
/// the reference kernel's witness when local ids ascend with global ids,
/// as in `evaluate_coverage_compiled`.  Only that witness depends on how
/// local ids are numbered: the components and the pair relation are sets,
/// so the verdict does not.
[[gnu::always_inline]] inline WordVerdict full_condition_on_words(
    const std::uint64_t (&rows)[bits::kWordBits], std::uint64_t in_h, std::uint64_t visited,
    std::uint32_t lv, bool merge_visited) {
    constexpr std::uint64_t kOne = 1;
    in_h &= ~(kOne << lv);

    std::uint64_t comp[bits::kWordBits];
    std::uint64_t reach[bits::kWordBits];
    std::uint32_t count = 0;
    std::uint64_t left = in_h;
    std::uint64_t seed = merge_visited ? in_h & visited : 0;
    while (left != 0) {
        if (seed == 0) seed = left & (~left + 1);
        std::uint64_t members = seed;
        std::uint64_t touched = 0;
        for (std::uint64_t frontier = seed; frontier != 0;) {
            std::uint64_t next = 0;
            for (std::uint64_t f = frontier; f != 0; f &= f - 1) {
                next |= rows[std::countr_zero(f)];
            }
            touched |= next;
            frontier = next & left & ~members;
            members |= frontier;
        }
        comp[count] = members;
        reach[count] = members | touched;
        ++count;
        left &= ~members;
        seed = 0;
    }

    const std::uint64_t nbrs = rows[lv];
    for (std::uint64_t rest = nbrs; rest != 0; rest &= rest - 1) {
        const auto u = static_cast<std::uint32_t>(std::countr_zero(rest));
        const std::uint64_t closed = rows[u] | (kOne << u);
        std::uint64_t partners = 0;
        for (std::uint32_t k = 0; k < count; ++k) {
            partners |= (comp[k] & closed) != 0 ? reach[k] : 0;
        }
        // Neighbours above u that are neither adjacent to u nor joined to it.
        const std::uint64_t failing = rest & ~(kOne << u) & ~closed & ~partners;
        if (failing != 0) {
            return {.covered = false,
                    .u = u,
                    .w = static_cast<std::uint32_t>(std::countr_zero(failing))};
        }
    }
    return {};
}

/// Plain BFS hop distances from `source` over the compact topology, into
/// `s.dist` (kNoLocal = unreachable).  Used by the coverage-radius clamp.
void compact_bfs(LocalViewScratch& s, std::uint32_t source) {
    const CompactLocalView& c = s.compact;
    s.dist.assign(c.size, kNoLocal);
    if (s.queue.size() < c.size) s.queue.resize(c.size);
    std::size_t head = 0;
    std::size_t tail = 0;
    s.dist[source] = 0;
    s.queue[tail++] = source;
    while (head < tail) {
        const std::uint32_t x = s.queue[head++];
        for (std::uint32_t y : c.row(x)) {
            if (s.dist[y] != kNoLocal) continue;
            s.dist[y] = s.dist[x] + 1;
            s.queue[tail++] = y;
        }
    }
}

}  // namespace

std::vector<std::size_t> higher_priority_components(const View& view, const Priority& threshold,
                                                    bool merge_visited) {
    LocalViewScratch& s = LocalViewScratch::tls();
    s.compile(view);
    // The threshold owner is excluded by the strict comparison itself.
    higher_priority_bits(s, threshold, kNoLocal);
    const std::uint32_t label_count = components_on_bits(s);
    if (merge_visited) merge_visited_labels(s, label_count);

    std::vector<std::size_t> out(view.node_count(), kUnreachable);
    for (std::uint32_t x = 0; x < s.compact.size; ++x) {
        if (s.labels[x] != kNoLocal) out[s.compact.members[x]] = s.labels[x];
    }
    return out;
}

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
    const auto nv = c.row(lv);
    if (nv.size() <= 1) return {.covered = true};  // no neighbor pair to connect
    if (c.size <= bits::kWordBits && !opts.strong && opts.max_path_hops == 0 &&
        opts.coverage_radius == 0) {
        constexpr std::uint64_t kOne = 1;
        std::uint64_t rows[bits::kWordBits];
        std::uint64_t in_h = 0;
        std::uint64_t visited = 0;
        for (std::uint32_t x = 0; x < c.size; ++x) {
            std::uint64_t r = 0;
            for (std::uint32_t y : c.row(x)) r |= kOne << y;
            rows[x] = r;
            in_h |= std::uint64_t{c.priority[x] > pv} << x;
            visited |= std::uint64_t{c.status[x] == NodeStatus::kVisited} << x;
        }
        const WordVerdict verdict =
            full_condition_on_words(rows, in_h, visited, lv, opts.merge_visited);
        if (verdict.covered) return {.covered = true};
        return {.covered = false,
                .uncovered_u = c.members[verdict.u],
                .uncovered_w = c.members[verdict.w]};
    }

    higher_priority_bits(s, pv, lv);
    if (opts.coverage_radius > 0) {
        // Restricted implementations: only nodes within the radius may act
        // as coverage/replacement nodes.
        compact_bfs(s, lv);
        for (std::uint32_t x = 0; x < c.size; ++x) {
            if (s.dist[x] == kNoLocal || s.dist[x] > opts.coverage_radius) {
                bits::clear(s.in_h.data(), x);
            }
        }
    }

    if (opts.max_path_hops > 0 && !opts.strong) {
        // Bounded replacement paths (Span): pairwise BFS with a depth cap
        // of max_path_hops - 1 intermediates.
        const std::size_t cap = opts.max_path_hops - 1;
        bits::reset(s.row_bits, c.size);
        for (std::size_t i = 0; i < nv.size(); ++i) {
            const std::uint32_t u = nv[i];
            bounded_reach(s, u, cap, opts.merge_visited);
            mark_row(s, u);
            for (std::size_t j = i + 1; j < nv.size(); ++j) {
                const std::uint32_t w = nv[j];
                if (bits::test(s.row_bits.data(), w)) continue;
                bool ok = false;
                for (std::uint32_t x : c.row(w)) {
                    if (s.dist[x] != kNoLocal && s.dist[x] <= cap) {
                        ok = true;
                        break;
                    }
                }
                if (!ok) {
                    return {.covered = false,
                            .uncovered_u = c.members[u],
                            .uncovered_w = c.members[w]};
                }
            }
            unmark_row(s, u);
        }
        return {.covered = true};
    }

    // Component machinery shared by the full and strong conditions.
    const std::uint32_t label_count = components_on_bits(s);
    if (opts.merge_visited) merge_visited_labels(s, label_count);

    const std::size_t words = bits::word_count(label_count);
    bits::reset(s.comp_bits, nv.size() * words * bits::kWordBits);
    const auto comp = [&](std::size_t i) { return s.comp_bits.data() + i * words; };
    for (std::size_t i = 0; i < nv.size(); ++i) adjacent_component_bits(s, nv[i], comp(i));

    if (opts.strong) {
        // Strong condition: one component must dominate every neighbor.
        if (!bits::any(comp(0), words)) {
            return {.covered = false, .uncovered_u = c.members[nv[0]]};
        }
        bits::reset(s.acc, label_count);
        std::copy_n(comp(0), words, s.acc.begin());
        for (std::size_t i = 1; i < nv.size(); ++i) {
            bits::and_inplace(s.acc.data(), comp(i), words);
            if (!bits::any(s.acc.data(), words)) {
                return {.covered = false, .uncovered_u = c.members[nv[i]]};
            }
        }
        return {.covered = true};
    }

    // Full pairwise condition.  Note this relation is not transitive, so
    // all O(deg^2) pairs are checked.
    bits::reset(s.row_bits, c.size);
    for (std::size_t i = 0; i < nv.size(); ++i) {
        const std::uint32_t u = nv[i];
        mark_row(s, u);
        for (std::size_t j = i + 1; j < nv.size(); ++j) {
            const std::uint32_t w = nv[j];
            if (bits::test(s.row_bits.data(), w)) continue;
            if (!bits::intersects(comp(i), comp(j), words)) {
                return {.covered = false,
                        .uncovered_u = c.members[u],
                        .uncovered_w = c.members[w]};
            }
        }
        unmark_row(s, u);
    }
    return {.covered = true};
}

std::optional<bool> ball_covered_on_words(const Graph& g, NodeId v, std::size_t k,
                                          const PriorityKeys& keys,
                                          std::span<const NodeId> visited, bool merge_visited,
                                          BallScratch& s) {
    if (k == 0) throw std::invalid_argument("ball_covered_on_words: hops must be >= 1");
    if (g.neighbors(v).size() <= 1) return true;  // no neighbor pair to connect
    std::uint64_t rows[bits::kWordBits];
    const std::size_t m = compile_ball_masks(g, v, k, s, rows);
    if (m == 0) return std::nullopt;
    // Visited members outrank v (status 2 > 1); an unvisited member does
    // when its static key does.  v is local 0.
    std::uint64_t seen = 0;
    for (const NodeId x : visited) {
        seen |= std::uint64_t{s.member(x)} << (s.g2l[x] & 63);
    }
    const Priority pv = keys.evaluate(v, NodeStatus::kUnvisited);
    std::uint64_t in_h = seen;
    for (std::size_t i = 1; i < m; ++i) {
        in_h |= std::uint64_t{keys.evaluate(s.bfs[i], NodeStatus::kUnvisited) > pv} << i;
    }
    return full_condition_on_words(rows, in_h, seen, 0, merge_visited).covered;
}

bool ball_covered_compiled(const Graph& g, NodeId v, std::size_t k, const PriorityKeys& keys,
                           std::span<const NodeId> visited, const CoverageOptions& opts,
                           BallScratch& s) {
    compile_ball(g, v, k, s);
    LocalViewScratch& scratch = LocalViewScratch::tls();
    CompactLocalView& c = scratch.compact;
    c.bind(s.view);
    for (std::uint32_t i = 0; i < c.size; ++i) {
        const NodeId x = c.members[i];
        const bool seen = std::find(visited.begin(), visited.end(), x) != visited.end();
        c.status[i] = seen ? NodeStatus::kVisited : NodeStatus::kUnvisited;
        c.priority[i] = keys.evaluate(x, c.status[i]);
    }
    const Priority pv = keys.evaluate(v, NodeStatus::kUnvisited);
    return evaluate_coverage_compiled(scratch, s.g2l[v], pv, opts).covered;
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
