#include "traffic/summary_vector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>

#include "io/wire.hpp"

namespace adhoc::traffic {

SummaryVector summarize(const DupCache& cache) {
    SummaryVector sv;
    for (const DupCache::Entry& e : cache.entries()) {
        SourceSummary s;
        s.source = e.source;
        s.base = e.base;
        s.bits = e.bits;
        while (!s.bits.empty() && s.bits.back() == 0) s.bits.pop_back();
        if (s.bits.empty()) continue;  // nothing held: nothing to advertise
        sv.sources.push_back(std::move(s));
    }
    // The cache keeps its entries ascending by source: already canonical.
    assert(std::is_sorted(sv.sources.begin(), sv.sources.end(),
                          [](const SourceSummary& a, const SourceSummary& b) {
                              return a.source < b.source;
                          }));
    return sv;
}

std::size_t encoded_size(const SummaryVector& sv) {
    std::size_t bytes = 2;
    for (const SourceSummary& s : sv.sources) bytes += 4 + 4 + 2 + 8 * s.bits.size();
    return bytes;
}

std::vector<std::uint8_t> encode(const SummaryVector& sv) {
    std::vector<std::uint8_t> out;
    out.reserve(encoded_size(sv));
    wire::put_u16(out, static_cast<std::uint16_t>(sv.sources.size()));
    for (const SourceSummary& s : sv.sources) {
        wire::put_u32(out, s.source);
        wire::put_u32(out, s.base);
        wire::put_u16(out, static_cast<std::uint16_t>(s.bits.size()));
        for (const std::uint64_t w : s.bits) wire::put_u64(out, w);
    }
    return out;
}

bool decode(const std::uint8_t* data, std::size_t size, SummaryVector* out) {
    wire::Reader r(data, size);
    const auto count = r.u16();
    if (!count) return false;
    out->sources.clear();
    out->sources.reserve(*count);
    NodeId prev = kInvalidNode;
    for (std::uint16_t i = 0; i < *count; ++i) {
        const auto source = r.u32();
        const auto base = r.u32();
        const auto words = r.u16();
        if (!source || !base || !words) return false;
        if (i > 0 && *source <= prev) return false;  // must be sorted, unique
        prev = *source;
        SourceSummary s;
        s.source = *source;
        s.base = *base;
        s.bits.resize(*words);
        for (std::uint64_t& w : s.bits) {
            const auto word = r.u64();
            if (!word) return false;
            w = *word;
        }
        out->sources.push_back(std::move(s));
    }
    return r.exhausted();
}

std::vector<SessionKey> advertised_keys(const SummaryVector& sv) {
    std::vector<SessionKey> keys;
    for (const SourceSummary& s : sv.sources) {
        for (std::size_t w = 0; w < s.bits.size(); ++w) {
            std::uint64_t word = s.bits[w];
            while (word != 0) {
                const int bit = std::countr_zero(word);
                word &= word - 1;
                keys.push_back(
                    SessionKey{s.source, s.base + static_cast<std::uint32_t>(64 * w + bit)});
            }
        }
    }
    return keys;
}

std::vector<SessionKey> missing_keys(const SummaryVector& theirs, const DupCache& mine,
                                     std::size_t limit) {
    // Both sides ascend by source, so one merge walk pairs each advertised
    // source with its cache entry.  Per advertised word the gaps are
    // `theirs & ~held`: one shifted-word read instead of 64 lookups.
    constexpr std::int64_t kSeqSpace = std::int64_t{1} << 32;
    std::vector<SessionKey> missing;
    const std::vector<DupCache::Entry>& entries = mine.entries();
    auto entry = entries.begin();
    for (const SourceSummary& s : theirs.sources) {
        assert(entry == entries.begin() || std::prev(entry)->source < s.source);
        while (entry != entries.end() && entry->source < s.source) ++entry;
        const bool known = entry != entries.end() && entry->source == s.source;
        for (std::size_t w = 0; w < s.bits.size(); ++w) {
            const std::int64_t start = std::int64_t{s.base} + 64 * static_cast<std::int64_t>(w);
            std::uint64_t gaps = s.bits[w];
            if (known) {
                // Advertised seqs are u32: the part of a word past 2^32
                // wraps around to seq 0.
                std::uint64_t held = mine.held_word(*entry, start);
                if (start + 64 > kSeqSpace) held |= mine.held_word(*entry, start - kSeqSpace);
                gaps &= ~held;
            }
            while (gaps != 0) {
                const int bit = std::countr_zero(gaps);
                gaps &= gaps - 1;
                missing.push_back(SessionKey{s.source, static_cast<std::uint32_t>(start + bit)});
                if (limit != 0 && missing.size() >= limit) return missing;
            }
        }
    }
    return missing;
}

namespace reference {

std::vector<SessionKey> missing_keys(const SummaryVector& theirs, const DupCache& mine,
                                     std::size_t limit) {
    std::vector<SessionKey> missing;
    for (const SourceSummary& s : theirs.sources) {
        for (std::size_t w = 0; w < s.bits.size(); ++w) {
            std::uint64_t word = s.bits[w];
            while (word != 0) {
                const int bit = std::countr_zero(word);
                word &= word - 1;
                const std::uint32_t seq = s.base + static_cast<std::uint32_t>(64 * w + bit);
                if (!mine.holds(s.source, seq)) {
                    missing.push_back(SessionKey{s.source, seq});
                    if (limit != 0 && missing.size() >= limit) return missing;
                }
            }
        }
    }
    return missing;
}

}  // namespace reference

}  // namespace adhoc::traffic
