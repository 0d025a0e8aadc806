/// \file json.hpp
/// \brief The one JSON module: the string escaper and number formatter
/// every writer shares (bench sinks, telemetry, repro files), and the
/// reader behind repro files and telemetry span lines.
///
/// The repo deliberately has no third-party JSON dependency; the reader
/// covers what its documents need (objects, arrays, byte strings, finite
/// numbers, booleans, null).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace adhoc::io {

/// Escapes a string for inclusion inside a JSON string literal: `"` and
/// `\` are backslash-escaped, `\n` `\r` `\t` use their short forms, other
/// bytes below 0x20 become `\u00XX`, and everything else (UTF-8 included)
/// is copied through.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Shortest round-trippable rendering of a double: integral values below
/// 1e15 print without a fraction, others with the fewest significant
/// digits that parse back to the same double.  JSON has no NaN/Inf, so
/// those render as `null`.
[[nodiscard]] std::string json_number(double x);

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/// One parsed value.  Numbers are doubles; strings are byte strings, so a
/// `\u` escape decodes only U+0000..U+007F (what `json_escape` writes).
struct JsonValue {
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

    /// The value as a `T`, or nullptr when it holds another type.
    template <typename T>
    [[nodiscard]] const T* get() const {
        return std::get_if<T>(&v);
    }
};

/// Parses one complete document (surrounding whitespace allowed).  On a
/// malformed document returns nullopt and, when `error` is non-null and
/// empty, stores the first error with its byte offset.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

// Field accessors.  Each returns false when the member is missing or has
// the wrong type, and then stores a message naming the member in `error`
// (when non-null and still empty), so the first failure is the one kept.

[[nodiscard]] const JsonValue* find(const JsonObject& obj, std::string_view key);
bool get_string(const JsonObject& obj, std::string_view key, std::string* out,
                std::string* error);
bool get_number(const JsonObject& obj, std::string_view key, double* out, std::string* error);
bool get_bool(const JsonObject& obj, std::string_view key, bool* out, std::string* error);
/// A number holding a non-negative integer of at most 2^53 (exact in a double).
bool get_u64(const JsonObject& obj, std::string_view key, std::uint64_t* out,
             std::string* error);
/// A 64-bit integer written as a string in `base` (16 accepts a `0x`
/// prefix), for values a double cannot hold exactly.
bool get_u64_string(const JsonObject& obj, std::string_view key, int base, std::uint64_t* out,
                    std::string* error);

}  // namespace adhoc::io
