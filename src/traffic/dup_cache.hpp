/// \file dup_cache.hpp
/// \brief Bounded per-node duplicate cache for concurrent broadcast
/// sessions: LRU over sources, sliding sequence window per source.
///
/// One-shot runs mark duplicates with a single `received` flag because
/// exactly one message exists.  Under continuous traffic a node sees
/// thousands of `(source, seq)`-identified sessions and must answer "have
/// I seen this one?" fast with *bounded* memory — the classic DTN
/// message-store problem.  The cache keeps at most `max_sources` per-source
/// entries (least-recently-used eviction), ascending by source so a lookup
/// is a binary search, and, per source, a `window`-bit bitmap anchored at a
/// sliding base sequence number:
///
///   - seq in [base, base+window): exact membership bit;
///   - seq >= base+window: the window slides forward, forgetting the
///     oldest bits (a slide is counted; forgotten payloads are no longer
///     *held*, so they vanish from summary vectors and cannot serve
///     repairs);
///   - seq < base: conservatively reported as already-seen.  This is the
///     deliberate bounded-memory trade-off: a very late copy of an expired
///     session is suppressed rather than re-flooded.
///
/// Memory therefore never exceeds
/// `max_sources * (kEntryOverheadBytes + window / 8)` bytes per node,
/// which the engine exports as a per-node memory-ceiling gauge.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace adhoc::traffic {

struct DupCacheConfig {
    std::size_t max_sources = 64;  ///< distinct sources tracked (LRU bound)
    std::uint32_t window = 256;    ///< seq-window width in bits per source
};

/// Outcome of recording one `(source, seq)` id.
enum class CacheInsert : std::uint8_t {
    kNew,          ///< first sighting: deliver and consider forwarding
    kDuplicate,    ///< bit already set (or conservatively below the window)
    kBelowWindow,  ///< below the window base: suppressed without a bit check
};

class DupCache {
  public:
    /// Accounting model for one per-source entry, excluding the bitmap:
    /// source id + window base + LRU stamp (documented in docs/TRAFFIC.md).
    static constexpr std::size_t kEntryOverheadBytes = 16;

    explicit DupCache(DupCacheConfig config = {});

    /// Records `(source, seq)`.  kNew means the id was not held before
    /// (the caller should treat the packet as fresh).
    CacheInsert insert(NodeId source, std::uint32_t seq);

    /// True iff the payload is currently *held* (in-window bit set).
    /// Strict, unlike insert's below-window suppression: an expired id is
    /// not held and cannot be advertised or served as a repair.
    [[nodiscard]] bool holds(NodeId source, std::uint32_t seq) const;

    [[nodiscard]] std::size_t source_count() const noexcept { return entries_.size(); }
    [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }
    [[nodiscard]] std::size_t window_slides() const noexcept { return window_slides_; }
    [[nodiscard]] std::size_t below_window_hits() const noexcept { return below_window_; }

    /// Current footprint under the documented accounting model.  O(1).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return entries_.size() * entry_bytes();
    }
    /// Largest footprint ever reached (== the configured ceiling once the
    /// LRU bound has been hit).
    [[nodiscard]] std::size_t peak_bytes() const noexcept { return peak_bytes_; }
    /// The hard ceiling implied by the configuration.
    [[nodiscard]] std::size_t ceiling_bytes() const noexcept {
        return config_.max_sources * entry_bytes();
    }

    struct Entry {
        NodeId source = kInvalidNode;
        std::uint32_t base = 0;               ///< window start sequence
        std::uint64_t last_use = 0;           ///< logical LRU clock
        std::vector<std::uint64_t> bits;      ///< window/64 words
    };

    /// Entries in ascending source order.
    [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

    /// The held bits of `entry` for seqs `[start, start + 64)`: bit i
    /// answers `holds(entry.source, start + i)`.  Seqs below the window
    /// base or at or above `base + window` (negative ones included) read
    /// as not held.  `entry` must be one of `entries()`.
    [[nodiscard]] std::uint64_t held_word(const Entry& entry, std::int64_t start) const noexcept;

    [[nodiscard]] const DupCacheConfig& config() const noexcept { return config_; }

  private:
    [[nodiscard]] std::size_t entry_bytes() const noexcept {
        return kEntryOverheadBytes + config_.window / 8;
    }
    Entry* find(NodeId source);
    [[nodiscard]] const Entry* find(NodeId source) const;
    Entry& emplace(NodeId source, std::uint32_t seq);

    DupCacheConfig config_;
    std::vector<Entry> entries_;
    std::uint64_t use_clock_ = 0;
    std::size_t evictions_ = 0;
    std::size_t window_slides_ = 0;
    std::size_t below_window_ = 0;
    std::size_t peak_bytes_ = 0;
};

}  // namespace adhoc::traffic
