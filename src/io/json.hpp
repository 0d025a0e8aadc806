/// \file json.hpp
/// \brief The JSON string escaper shared by the bench sinks, telemetry
/// (metrics, JSONL, chrome traces) and fuzz repro files.

#pragma once

#include <string>
#include <string_view>

namespace adhoc::io {

/// Escapes a string for inclusion inside a JSON string literal: `"` and
/// `\` are backslash-escaped, `\n` `\r` `\t` use their short forms, other
/// bytes below 0x20 become `\u00XX`, and everything else (UTF-8 included)
/// is copied through.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace adhoc::io
