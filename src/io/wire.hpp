/// \file wire.hpp
/// \brief Wire format for the piggybacked broadcast state.
///
/// Grounds the overhead accounting (Section 4.3: "the broadcast packet
/// needs to be kept relatively small") in an actual byte encoding: node
/// ids are 32-bit little-endian, lists are length-prefixed.  Layout:
///
///   u8  record_count
///   repeated record:
///     u32 node id
///     u8  designated_count,  u32 designated ids...
///   u16 two_hop_count, u32 two-hop ids...            (TDP only; 0 else)
///
/// `encode`/`decode` round-trip exactly, and `encoded_size` agrees with
/// `piggyback_bytes` up to the fixed framing bytes (tested).
///
/// The `wire::` little-endian codec below is the one byte layer of the
/// library; the traffic plane's summary vectors use it too.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/packet.hpp"

namespace adhoc {

namespace wire {

/// Appends `x` to `out`, least significant byte first.
template <class T>
void put_le(std::vector<std::uint8_t>& out, T x) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    }
}
inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t x) { put_le(out, x); }
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t x) { put_le(out, x); }
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t x) { put_le(out, x); }

/// Bounds-checked little-endian cursor over a byte range: a read past the
/// end returns nullopt and consumes nothing.
class Reader {
  public:
    Reader(const std::uint8_t* data, std::size_t size) noexcept : data_(data), size_(size) {}
    explicit Reader(const std::vector<std::uint8_t>& bytes) noexcept
        : Reader(bytes.data(), bytes.size()) {}

    [[nodiscard]] std::optional<std::uint8_t> u8() { return read<std::uint8_t>(); }
    [[nodiscard]] std::optional<std::uint16_t> u16() { return read<std::uint16_t>(); }
    [[nodiscard]] std::optional<std::uint32_t> u32() { return read<std::uint32_t>(); }
    [[nodiscard]] std::optional<std::uint64_t> u64() { return read<std::uint64_t>(); }
    [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }

  private:
    template <class T>
    std::optional<T> read() {
        if (size_ - pos_ < sizeof(T)) return std::nullopt;
        T x = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            x |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
        }
        pos_ += sizeof(T);
        return x;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

}  // namespace wire

/// Serializes `state` to bytes.  Precondition: at most 255 history
/// records, 255 designated per record, 65535 two-hop entries.
[[nodiscard]] std::vector<std::uint8_t> encode_state(const BroadcastState& state);

/// Parses bytes back into a BroadcastState; nullopt on malformed or
/// truncated input (never reads out of bounds).
[[nodiscard]] std::optional<BroadcastState> decode_state(
    const std::vector<std::uint8_t>& bytes);

/// Exact on-the-wire size of `state` without encoding it.
[[nodiscard]] std::size_t encoded_size(const BroadcastState& state);

}  // namespace adhoc
