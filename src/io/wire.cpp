#include "io/wire.hpp"

#include <cassert>

namespace adhoc {

std::vector<std::uint8_t> encode_state(const BroadcastState& state) {
    assert(state.history.size() <= 255);
    assert(state.sender_two_hop.size() <= 65535);
    std::vector<std::uint8_t> out;
    out.reserve(encoded_size(state));
    out.push_back(static_cast<std::uint8_t>(state.history.size()));
    for (const VisitedRecord& rec : state.history) {
        assert(rec.designated.size() <= 255);
        wire::put_u32(out, rec.node);
        out.push_back(static_cast<std::uint8_t>(rec.designated.size()));
        for (NodeId d : rec.designated) wire::put_u32(out, d);
    }
    wire::put_u16(out, static_cast<std::uint16_t>(state.sender_two_hop.size()));
    for (NodeId x : state.sender_two_hop) wire::put_u32(out, x);
    return out;
}

std::optional<BroadcastState> decode_state(const std::vector<std::uint8_t>& bytes) {
    wire::Reader reader(bytes);
    BroadcastState state;

    const auto records = reader.u8();
    if (!records) return std::nullopt;
    state.history.reserve(*records);
    for (std::size_t i = 0; i < *records; ++i) {
        VisitedRecord rec;
        const auto node = reader.u32();
        const auto count = reader.u8();
        if (!node || !count) return std::nullopt;
        rec.node = *node;
        rec.designated.reserve(*count);
        for (std::size_t j = 0; j < *count; ++j) {
            const auto d = reader.u32();
            if (!d) return std::nullopt;
            rec.designated.push_back(*d);
        }
        state.history.push_back(std::move(rec));
    }
    const auto two_hop = reader.u16();
    if (!two_hop) return std::nullopt;
    state.sender_two_hop.reserve(*two_hop);
    for (std::size_t i = 0; i < *two_hop; ++i) {
        const auto x = reader.u32();
        if (!x) return std::nullopt;
        state.sender_two_hop.push_back(*x);
    }
    if (!reader.exhausted()) return std::nullopt;  // trailing garbage
    return state;
}

std::size_t encoded_size(const BroadcastState& state) {
    std::size_t bytes = 1 + 2;  // record count + two-hop count
    for (const VisitedRecord& rec : state.history) {
        bytes += 4 + 1 + 4 * rec.designated.size();
    }
    bytes += 4 * state.sender_two_hop.size();
    return bytes;
}

}  // namespace adhoc
