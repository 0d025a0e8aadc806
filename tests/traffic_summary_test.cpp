// Unit tests for summary vectors: canonical summarization of a duplicate
// cache, the wire codec, and the gap-diff that drives recovery pulls.

#include "traffic/summary_vector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
#include "traffic/dup_cache.hpp"

namespace adhoc::traffic {
namespace {

TEST(SummaryVector, SummarizeSortsAndTrimsTrailingZeros) {
    DupCache cache(DupCacheConfig{.max_sources = 8, .window = 128});
    cache.insert(7, 0);
    cache.insert(2, 3);
    const SummaryVector sv = summarize(cache);
    ASSERT_EQ(sv.sources.size(), 2u);
    EXPECT_EQ(sv.sources[0].source, 2u);  // sorted ascending
    EXPECT_EQ(sv.sources[1].source, 7u);
    // 128-bit windows with only low bits set: second word trimmed.
    EXPECT_EQ(sv.sources[0].bits.size(), 1u);
    EXPECT_EQ(sv.sources[1].bits.size(), 1u);
}

TEST(SummaryVector, AdvertisedKeysMatchHoldings) {
    DupCache cache(DupCacheConfig{.max_sources = 8, .window = 64});
    cache.insert(4, 10);
    cache.insert(4, 12);
    cache.insert(9, 0);
    const std::vector<SessionKey> keys = advertised_keys(summarize(cache));
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], (SessionKey{4, 10}));
    EXPECT_EQ(keys[1], (SessionKey{4, 12}));
    EXPECT_EQ(keys[2], (SessionKey{9, 0}));
    for (const SessionKey key : keys) EXPECT_TRUE(cache.holds(key.source, key.seq));
}

TEST(SummaryVector, EncodeDecodeRoundTrip) {
    DupCache cache(DupCacheConfig{.max_sources = 8, .window = 192});
    for (std::uint32_t q : {0u, 1u, 70u, 150u}) cache.insert(5, q);
    cache.insert(11, 42);
    const SummaryVector sv = summarize(cache);
    const std::vector<std::uint8_t> wire = encode(sv);
    EXPECT_EQ(wire.size(), encoded_size(sv));

    SummaryVector decoded;
    ASSERT_TRUE(decode(wire.data(), wire.size(), &decoded));
    EXPECT_EQ(decoded, sv);
}

TEST(SummaryVector, EmptyVectorRoundTrips) {
    const SummaryVector sv;
    const std::vector<std::uint8_t> wire = encode(sv);
    EXPECT_EQ(wire.size(), 2u);
    SummaryVector decoded;
    ASSERT_TRUE(decode(wire.data(), wire.size(), &decoded));
    EXPECT_TRUE(decoded.sources.empty());
}

TEST(SummaryVector, DecodeRejectsMalformedInput) {
    DupCache cache;
    cache.insert(1, 0);
    cache.insert(2, 0);
    const std::vector<std::uint8_t> wire = encode(summarize(cache));
    SummaryVector out;
    // Truncations at every prefix length must fail, never read past end.
    for (std::size_t len = 0; len < wire.size(); ++len) {
        EXPECT_FALSE(decode(wire.data(), len, &out)) << "accepted truncation " << len;
    }
    // Trailing garbage.
    std::vector<std::uint8_t> padded = wire;
    padded.push_back(0);
    EXPECT_FALSE(decode(padded.data(), padded.size(), &out));
    // Unsorted sources: swap the two source ids in place.
    std::vector<std::uint8_t> unsorted = wire;
    unsorted[2] = 2;   // first source id (little-endian low byte)
    unsorted[2 + 4 + 4 + 2 + 8] = 1;  // second source id
    EXPECT_FALSE(decode(unsorted.data(), unsorted.size(), &out));
}

TEST(SummaryVector, MissingKeysDiffsAgainstLocalCache) {
    DupCache theirs(DupCacheConfig{.max_sources = 8, .window = 64});
    theirs.insert(3, 0);
    theirs.insert(3, 1);
    theirs.insert(8, 5);
    DupCache mine(DupCacheConfig{.max_sources = 8, .window = 64});
    mine.insert(3, 1);

    const SummaryVector sv = summarize(theirs);
    const std::vector<SessionKey> gaps = missing_keys(sv, mine);
    ASSERT_EQ(gaps.size(), 2u);
    EXPECT_EQ(gaps[0], (SessionKey{3, 0}));
    EXPECT_EQ(gaps[1], (SessionKey{8, 5}));

    const std::vector<SessionKey> capped = missing_keys(sv, mine, /*limit=*/1);
    ASSERT_EQ(capped.size(), 1u);
    EXPECT_EQ(capped[0], (SessionKey{3, 0}));
}

/// A cache fed a lossy copy of one shared `(source, seq)` stream, plus its
/// own far jumps, below-window stragglers and LRU churn, so two caches
/// built from the same stream overlap partly and disagree on bases.
DupCache random_cache(Rng& rng, const std::vector<SessionKey>& stream) {
    static constexpr std::uint32_t kWindows[] = {64, 128, 256};
    DupCache cache(DupCacheConfig{.max_sources = 2 + rng.index(7),
                                  .window = kWindows[rng.index(3)]});
    for (const SessionKey key : stream) {
        if (rng.chance(0.3)) continue;  // lost on this side
        std::uint32_t seq = key.seq;
        if (rng.chance(0.02)) seq += 300 + static_cast<std::uint32_t>(rng.index(600));  // far slide
        if (rng.chance(0.05)) seq = seq > 400 ? seq - 400 : 0;                        // straggler
        cache.insert(key.source, seq);
    }
    return cache;
}

/// Interleaved per-source seq runs: mostly small steps forward, some
/// reordering, some jumps past a whole window.
std::vector<SessionKey> random_stream(Rng& rng) {
    std::vector<std::uint32_t> next(12);
    for (std::uint32_t& q : next) q = static_cast<std::uint32_t>(rng.index(200));
    std::vector<SessionKey> stream(40 + rng.index(400));
    for (SessionKey& key : stream) {
        key.source = static_cast<NodeId>(rng.index(next.size()));
        std::uint32_t& q = next[key.source];
        q += rng.chance(0.05) ? 64 + static_cast<std::uint32_t>(rng.index(300))
                              : static_cast<std::uint32_t>(rng.index(4));
        key.seq = rng.chance(0.1) && q >= 5 ? q - static_cast<std::uint32_t>(rng.index(5)) : q;
    }
    return stream;
}

/// A hand-built advertisement: ascending sources (some the caches never
/// saw), bases unaligned to 64 on either side of the cache's, 1-5 words.
SummaryVector random_summary(Rng& rng, std::uint32_t around) {
    SummaryVector sv;
    for (NodeId source = 0; source < 14; ++source) {
        if (!rng.chance(0.5)) continue;
        SourceSummary s;
        s.source = source;
        s.base = around > 300 ? around - 300 + static_cast<std::uint32_t>(rng.index(600))
                              : static_cast<std::uint32_t>(rng.index(600));
        s.bits.resize(1 + rng.index(5));
        for (std::uint64_t& w : s.bits) {
            w = rng.engine()();
            if (rng.chance(0.3)) w &= rng.engine()();  // sparser words too
        }
        sv.sources.push_back(std::move(s));
    }
    return sv;
}

void expect_matches_oracle(const SummaryVector& theirs, const DupCache& mine,
                           const char* what, std::size_t trial) {
    const std::vector<SessionKey> all = reference::missing_keys(theirs, mine);
    for (const std::size_t limit : {std::size_t{0}, std::size_t{1}, std::size_t{7}, all.size()}) {
        EXPECT_EQ(missing_keys(theirs, mine, limit), reference::missing_keys(theirs, mine, limit))
            << what << " trial " << trial << " limit " << limit;
    }
}

TEST(SummaryVector, MissingKeysMatchesPerBitOracle) {
    Rng rng(20261017);
    std::size_t gaps = 0;
    std::size_t slides = 0;
    std::size_t evictions = 0;
    std::size_t below = 0;
    for (std::size_t trial = 0; trial < 400; ++trial) {
        const std::vector<SessionKey> stream = random_stream(rng);
        const DupCache theirs = random_cache(rng, stream);
        const DupCache mine = random_cache(rng, stream);
        slides += mine.window_slides();
        evictions += mine.evictions();
        below += mine.below_window_hits();
        gaps += reference::missing_keys(summarize(theirs), mine).size();

        expect_matches_oracle(summarize(theirs), mine, "summary", trial);
        expect_matches_oracle(summarize(mine), theirs, "reverse", trial);
        expect_matches_oracle(random_summary(rng, stream.back().seq), mine, "hand-built", trial);
    }
    // The stream generator must actually reach every cache path.
    EXPECT_GT(gaps, 0u);
    EXPECT_GT(slides, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(below, 0u);
}

TEST(SummaryVector, MissingKeysMatchesOracleAcrossSeqWrap) {
    // Advertised seqs are u32: a word past 2^32 wraps to seq 0.  The cache
    // holds ids on both sides of the wrap (two sources).
    DupCache mine(DupCacheConfig{.max_sources = 4, .window = 128});
    for (std::uint32_t q : {0xFFFFFFFFu, 0xFFFFFFF0u, 0xFFFFFFC1u}) mine.insert(1, q);
    for (std::uint32_t q : {0u, 3u, 41u}) mine.insert(2, q);
    SummaryVector theirs;
    for (NodeId source : {1u, 2u, 3u}) {
        theirs.sources.push_back(SourceSummary{source, 0xFFFFFFA7u, {~0ULL, ~0ULL, 0x5555ULL}});
    }
    ASSERT_TRUE(mine.holds(1, 0xFFFFFFFFu));
    expect_matches_oracle(theirs, mine, "wrap", 0);
    EXPECT_EQ(missing_keys(theirs, mine).size(), 3u * (128 + 8) - 6);
}

TEST(SummaryVector, CanonicalEncodingIsDeterministic) {
    // Insertion order must not leak into the wire bytes.
    DupCache a(DupCacheConfig{.max_sources = 8, .window = 64});
    a.insert(1, 0);
    a.insert(2, 7);
    DupCache b(DupCacheConfig{.max_sources = 8, .window = 64});
    b.insert(2, 7);
    b.insert(1, 0);
    EXPECT_EQ(encode(summarize(a)), encode(summarize(b)));
}

}  // namespace
}  // namespace adhoc::traffic
