#include "traffic/dup_cache.hpp"

#include <algorithm>
#include <cassert>

namespace adhoc::traffic {

DupCache::DupCache(DupCacheConfig config) : config_(config) {
    assert(config_.max_sources > 0);
    // Whole words keep the slide shift simple; round up silently.
    if (config_.window == 0) config_.window = 64;
    config_.window = (config_.window + 63) / 64 * 64;
}

namespace {

bool source_less(const DupCache::Entry& e, NodeId source) { return e.source < source; }

}  // namespace

DupCache::Entry* DupCache::find(NodeId source) {
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), source, source_less);
    return it != entries_.end() && it->source == source ? &*it : nullptr;
}

const DupCache::Entry* DupCache::find(NodeId source) const {
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), source, source_less);
    return it != entries_.end() && it->source == source ? &*it : nullptr;
}

DupCache::Entry& DupCache::emplace(NodeId source, std::uint32_t seq) {
    if (entries_.size() >= config_.max_sources) {
        // Evict the least-recently-used entry; ties (possible only before
        // the first touch) break on the smallest source id — deterministic.
        auto victim = entries_.begin();
        for (auto it = entries_.begin() + 1; it != entries_.end(); ++it) {
            if (it->last_use < victim->last_use ||
                (it->last_use == victim->last_use && it->source < victim->source)) {
                victim = it;
            }
        }
        entries_.erase(victim);
        ++evictions_;
    }
    Entry e;
    e.source = source;
    // Anchor with `seq` at the *top* of the window (like a slide), not the
    // bottom: jitter can reorder same-source packets, and a bottom anchor
    // would below-window-suppress an earlier seq still in flight.
    e.base = seq >= config_.window ? seq - config_.window + 1 : 0;
    e.bits.assign(config_.window / 64, 0);
    const auto at = std::lower_bound(entries_.begin(), entries_.end(), source, source_less);
    Entry& placed = *entries_.insert(at, std::move(e));
    peak_bytes_ = std::max(peak_bytes_, memory_bytes());
    return placed;
}

CacheInsert DupCache::insert(NodeId source, std::uint32_t seq) {
    Entry* e = find(source);
    if (e == nullptr) {
        Entry& fresh = emplace(source, seq);
        fresh.last_use = ++use_clock_;
        const std::uint32_t offset = seq - fresh.base;
        fresh.bits[offset / 64] |= std::uint64_t{1} << (offset % 64);
        return CacheInsert::kNew;
    }
    e->last_use = ++use_clock_;
    if (seq < e->base) {
        ++below_window_;
        return CacheInsert::kBelowWindow;
    }
    if (seq - e->base >= config_.window) {
        // Slide the window so `seq` lands on the last bit; everything the
        // shift pushes below the new base is forgotten.
        const std::uint32_t new_base = seq - config_.window + 1;
        const std::uint32_t shift = new_base - e->base;
        const std::size_t words = e->bits.size();
        if (shift >= config_.window) {
            std::fill(e->bits.begin(), e->bits.end(), 0);
        } else {
            const std::size_t word_shift = shift / 64;
            const std::size_t bit_shift = shift % 64;
            for (std::size_t i = 0; i < words; ++i) {
                const std::size_t from = i + word_shift;
                std::uint64_t w = from < words ? e->bits[from] >> bit_shift : 0;
                if (bit_shift != 0 && from + 1 < words) {
                    w |= e->bits[from + 1] << (64 - bit_shift);
                }
                e->bits[i] = w;
            }
        }
        e->base = new_base;
        ++window_slides_;
    }
    const std::uint32_t offset = seq - e->base;
    const std::uint64_t mask = std::uint64_t{1} << (offset % 64);
    if ((e->bits[offset / 64] & mask) != 0) return CacheInsert::kDuplicate;
    e->bits[offset / 64] |= mask;
    return CacheInsert::kNew;
}

bool DupCache::holds(NodeId source, std::uint32_t seq) const {
    const Entry* e = find(source);
    if (e == nullptr || seq < e->base || seq - e->base >= config_.window) return false;
    const std::uint32_t offset = seq - e->base;
    return (e->bits[offset / 64] >> (offset % 64) & 1) != 0;
}

std::uint64_t DupCache::held_word(const Entry& entry, std::int64_t start) const noexcept {
    // Window bit j is seq base + j, so result bit i is window bit
    // offset + i: a right shift of the window for offset >= 0, a left
    // shift of its first word for offset < 0.
    const std::int64_t offset = start - std::int64_t{entry.base};
    if (offset <= -64 || offset >= std::int64_t{config_.window}) return 0;
    if (offset < 0) return entry.bits[0] << -offset;
    const auto word = static_cast<std::size_t>(offset / 64);
    const auto bit = static_cast<unsigned>(offset % 64);
    std::uint64_t held = entry.bits[word] >> bit;
    if (bit != 0 && word + 1 < entry.bits.size()) held |= entry.bits[word + 1] << (64 - bit);
    return held;
}

}  // namespace adhoc::traffic
