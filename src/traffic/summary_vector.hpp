/// \file summary_vector.hpp
/// \brief DTN-style summary vectors: compact advertisements of the
/// `(source, seq)` ids a node currently holds.
///
/// Epidemic/DTN routing reconciles stores by exchanging *summary vectors*
/// — bitmaps of held message ids — and pulling the gaps.  The traffic
/// plane piggybacks the same idea on periodic HELLO-cadence beacons: each
/// node advertises, per source, the base sequence number and the window
/// bitmap of its duplicate cache; a neighbor diffs the advertisement
/// against its own cache and pulls missing sessions through the
/// NACK/retransmit machinery (engine.cpp), which is what lets delivery
/// recover across churn and healed partitions.
///
/// Wire format (little-endian, documented in docs/TRAFFIC.md):
///
///   u16 source_count
///   repeated source_count times:
///     u32 source id
///     u32 window base sequence
///     u16 word_count            (64-bit bitmap words, trailing zeros trimmed)
///     u64 * word_count bitmap
///
/// Sources are sorted ascending, so the encoding of a given store state is
/// canonical — byte-identical across runs and job counts.

#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "traffic/dup_cache.hpp"

namespace adhoc::traffic {

/// A `(source, seq)` broadcast-session identifier.
struct SessionKey {
    NodeId source = kInvalidNode;
    std::uint32_t seq = 0;

    friend constexpr auto operator<=>(const SessionKey&, const SessionKey&) = default;
};

/// One source's advertised window.
struct SourceSummary {
    NodeId source = kInvalidNode;
    std::uint32_t base = 0;
    std::vector<std::uint64_t> bits;  ///< trailing zero words trimmed

    friend bool operator==(const SourceSummary&, const SourceSummary&) = default;
};

/// Everything one node advertises in one beacon.
struct SummaryVector {
    std::vector<SourceSummary> sources;  ///< sorted by source id

    friend bool operator==(const SummaryVector&, const SummaryVector&) = default;
};

/// Builds the canonical advertisement of a cache's current holdings.
/// Empty windows are skipped; sources are sorted; trailing zero words are
/// trimmed (they carry no ids and would only inflate the wire size).
[[nodiscard]] SummaryVector summarize(const DupCache& cache);

/// Exact wire size of `encode(sv)` in bytes — the per-beacon byte cost the
/// engine meters.
[[nodiscard]] std::size_t encoded_size(const SummaryVector& sv);

[[nodiscard]] std::vector<std::uint8_t> encode(const SummaryVector& sv);

/// Strict decoder: rejects truncated buffers, trailing garbage, unsorted
/// or duplicate sources.  Returns false leaving `out` unspecified.
[[nodiscard]] bool decode(const std::uint8_t* data, std::size_t size, SummaryVector* out);

/// Every id the vector advertises, in (source, seq) order.
[[nodiscard]] std::vector<SessionKey> advertised_keys(const SummaryVector& sv);

/// Ids advertised by `theirs` that `mine` does not hold — the gaps a node
/// pulls after hearing a neighbor's beacon — in (advertised source, bit)
/// order.  Capped at `limit` (0 = all).  `theirs.sources` must ascend, as
/// `summarize` and `decode` guarantee: a merge walk against the cache's
/// source-ordered entries and one word read per advertised word make the
/// cost O(sources + advertised words + missing ids).
[[nodiscard]] std::vector<SessionKey> missing_keys(const SummaryVector& theirs,
                                                   const DupCache& mine,
                                                   std::size_t limit = 0);

/// The per-bit diff `missing_keys` replaced — one `holds` lookup per
/// advertised id — kept as its oracle (tests, bench_micro).  Same output
/// for every input.
namespace reference {
[[nodiscard]] std::vector<SessionKey> missing_keys(const SummaryVector& theirs,
                                                   const DupCache& mine,
                                                   std::size_t limit = 0);
}  // namespace reference

}  // namespace adhoc::traffic
