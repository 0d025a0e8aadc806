// Unit tests for the bounded per-node duplicate cache: LRU eviction over
// sources, sliding seq windows, and the hard memory ceiling.

#include "traffic/dup_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace adhoc::traffic {
namespace {

TEST(DupCache, FirstInsertIsNewThenDuplicate) {
    DupCache cache;
    EXPECT_EQ(cache.insert(3, 7), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(3, 7), CacheInsert::kDuplicate);
    EXPECT_TRUE(cache.holds(3, 7));
    EXPECT_FALSE(cache.holds(3, 8));
    EXPECT_FALSE(cache.holds(4, 7));
}

TEST(DupCache, IndependentSequencesPerSource) {
    DupCache cache;
    EXPECT_EQ(cache.insert(1, 0), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(2, 0), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(1, 1), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(2, 0), CacheInsert::kDuplicate);
    EXPECT_EQ(cache.source_count(), 2u);
}

TEST(DupCache, WindowRoundsUpToWholeWords) {
    DupCache a(DupCacheConfig{.max_sources = 4, .window = 100});
    EXPECT_EQ(a.config().window, 128u);
    DupCache b(DupCacheConfig{.max_sources = 4, .window = 0});
    EXPECT_EQ(b.config().window, 64u);
}

TEST(DupCache, WindowSlideForgetsOldestIds) {
    DupCache cache(DupCacheConfig{.max_sources = 4, .window = 64});
    EXPECT_EQ(cache.insert(9, 0), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(9, 63), CacheInsert::kNew);
    EXPECT_TRUE(cache.holds(9, 0));
    // seq 64 is one past the window: base slides to 1, seq 0 is forgotten.
    EXPECT_EQ(cache.insert(9, 64), CacheInsert::kNew);
    EXPECT_EQ(cache.window_slides(), 1u);
    EXPECT_FALSE(cache.holds(9, 0));
    EXPECT_TRUE(cache.holds(9, 63));
    EXPECT_TRUE(cache.holds(9, 64));
}

TEST(DupCache, BelowWindowIsSuppressedButNotHeld) {
    DupCache cache(DupCacheConfig{.max_sources = 4, .window = 64});
    EXPECT_EQ(cache.insert(9, 200), CacheInsert::kNew);  // base anchors at 137 (200 on top)
    EXPECT_EQ(cache.insert(9, 5), CacheInsert::kBelowWindow);
    EXPECT_EQ(cache.below_window_hits(), 1u);
    // The conservative trade-off: suppressed as a duplicate, but never
    // advertised or served as a repair.
    EXPECT_FALSE(cache.holds(9, 5));
}

TEST(DupCache, FarSlideClearsWholeBitmap) {
    DupCache cache(DupCacheConfig{.max_sources = 4, .window = 128});
    EXPECT_EQ(cache.insert(1, 0), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(1, 10000), CacheInsert::kNew);  // shift >= window
    EXPECT_FALSE(cache.holds(1, 0));
    EXPECT_TRUE(cache.holds(1, 10000));
    // Only the landing bit survives.
    EXPECT_EQ(cache.insert(1, 10000), CacheInsert::kDuplicate);
    EXPECT_EQ(cache.insert(1, 9999), CacheInsert::kNew);
}

TEST(DupCache, LruEvictionAtSourceBound) {
    DupCache cache(DupCacheConfig{.max_sources = 2, .window = 64});
    EXPECT_EQ(cache.insert(10, 0), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(20, 0), CacheInsert::kNew);
    EXPECT_EQ(cache.insert(10, 1), CacheInsert::kNew);  // touch 10: 20 is LRU
    EXPECT_EQ(cache.insert(30, 0), CacheInsert::kNew);  // evicts 20
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.source_count(), 2u);
    EXPECT_FALSE(cache.holds(20, 0));
    EXPECT_TRUE(cache.holds(10, 1));
    EXPECT_TRUE(cache.holds(30, 0));
    // A re-inserted evicted source counts as new again (state was lost).
    EXPECT_EQ(cache.insert(20, 0), CacheInsert::kNew);
    EXPECT_EQ(cache.evictions(), 2u);
}

TEST(DupCache, MemoryNeverExceedsCeiling) {
    const DupCacheConfig config{.max_sources = 8, .window = 128};
    DupCache cache(config);
    const std::size_t ceiling = cache.ceiling_bytes();
    EXPECT_EQ(ceiling, 8u * (DupCache::kEntryOverheadBytes + 128 / 8));
    for (NodeId s = 0; s < 100; ++s) {
        for (std::uint32_t q = 0; q < 5; ++q) cache.insert(s, q * 977);
        EXPECT_LE(cache.memory_bytes(), ceiling);
    }
    EXPECT_LE(cache.peak_bytes(), ceiling);
    EXPECT_EQ(cache.peak_bytes(), ceiling);  // bound was reached and held
    EXPECT_EQ(cache.source_count(), 8u);
}

TEST(DupCache, EntriesAscendBySourceAfterEveryInsertAndEviction) {
    Rng rng(7);
    DupCache cache(DupCacheConfig{.max_sources = 5, .window = 64});
    const auto ascending = [&cache] {
        const std::vector<DupCache::Entry>& entries = cache.entries();
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (entries[i - 1].source >= entries[i].source) return false;
        }
        return true;
    };
    for (std::size_t i = 0; i < 2000; ++i) {
        const auto source = static_cast<NodeId>(rng.index(16));
        const std::size_t evictions = cache.evictions();
        cache.insert(source, static_cast<std::uint32_t>(rng.index(500)));
        ASSERT_TRUE(ascending()) << "after insert " << i << " (source " << source << ", "
                                 << (cache.evictions() > evictions ? "evicting" : "no eviction")
                                 << ")";
    }
    EXPECT_GT(cache.evictions(), 100u);
}

TEST(DupCache, HeldWordReadsTheWindowAtAnyOffset) {
    DupCache cache(DupCacheConfig{.max_sources = 2, .window = 128});
    for (std::uint32_t q : {1000u, 1001u, 1064u, 1127u, 1100u}) cache.insert(3, q);
    ASSERT_EQ(cache.entries().size(), 1u);
    const DupCache::Entry& entry = cache.entries()[0];
    ASSERT_EQ(entry.base, 1000u);
    for (std::int64_t start = 800; start < 1300; ++start) {
        std::uint64_t expected = 0;
        for (std::uint32_t i = 0; i < 64; ++i) {
            if (cache.holds(3, static_cast<std::uint32_t>(start + i))) expected |= 1ULL << i;
        }
        ASSERT_EQ(cache.held_word(entry, start), expected) << "start " << start;
    }
    EXPECT_EQ(cache.held_word(entry, -5), 0u);  // negative seqs are never held
}

TEST(DupCache, WindowEndingAtTheTopOfTheSeqSpace) {
    // The largest seq anchors the window at 2^32 - window; base + window
    // must not wrap to 0 and empty the window.
    DupCache cache(DupCacheConfig{.max_sources = 2, .window = 64});
    EXPECT_EQ(cache.insert(1, 0xFFFFFFFFu), CacheInsert::kNew);
    EXPECT_EQ(cache.entries()[0].base, 0xFFFFFFC0u);
    EXPECT_TRUE(cache.holds(1, 0xFFFFFFFFu));
    EXPECT_EQ(cache.insert(1, 0xFFFFFFFFu), CacheInsert::kDuplicate);
    EXPECT_EQ(cache.insert(1, 0xFFFFFFF0u), CacheInsert::kNew);
    EXPECT_TRUE(cache.holds(1, 0xFFFFFFF0u));
    EXPECT_TRUE(cache.holds(1, 0xFFFFFFFFu));  // no slide cleared it
    EXPECT_EQ(cache.window_slides(), 0u);
}

}  // namespace
}  // namespace adhoc::traffic
