#include "io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace adhoc::io {

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string json_number(double x) {
    if (!std::isfinite(x)) return "null";
    char buf[32];
    if (x == std::floor(x) && std::fabs(x) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", x);
        return buf;
    }
    // Trim to the shortest representation that still round-trips.
    for (int precision = 1; precision < 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, x);
        double parsed = 0.0;
        std::sscanf(buf, "%lf", &parsed);
        if (parsed == x) return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

namespace {

class JsonParser {
  public:
    JsonParser(std::string_view text, std::string* error) : text_(text), error_(error) {}

    std::optional<JsonValue> parse() {
        auto value = parse_value();
        if (!value) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) {
            set_error("trailing characters after document");
            return std::nullopt;
        }
        return value;
    }

  private:
    void set_error(const std::string& what) {
        if (error_ != nullptr && error_->empty()) {
            *error_ = what + " (offset " + std::to_string(pos_) + ")";
        }
    }

    void skip_ws() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool consume(char c) {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::optional<JsonValue> parse_value() {
        skip_ws();
        if (pos_ >= text_.size()) {
            set_error("unexpected end of input");
            return std::nullopt;
        }
        const char c = text_[pos_];
        if (c == '{') return parse_object();
        if (c == '[') return parse_array();
        if (c == '"') {
            auto s = parse_string();
            if (!s) return std::nullopt;
            return JsonValue{std::move(*s)};
        }
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return JsonValue{true};
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return JsonValue{false};
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return JsonValue{nullptr};
        }
        return parse_number();
    }

    std::optional<std::string> parse_string() {
        if (!consume('"')) {
            set_error("expected string");
            return std::nullopt;
        }
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c == '\\') {
                if (pos_ >= text_.size()) break;
                const char esc = text_[pos_++];
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'n': out.push_back('\n'); break;
                    case 't': out.push_back('\t'); break;
                    case 'r': out.push_back('\r'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    case 'u': {
                        // json_escape writes \u00XX for control bytes.  Strings
                        // are byte strings here, so only U+0000..U+007F (one
                        // byte each) can be represented.
                        const std::string hex(text_.substr(pos_, 4));
                        unsigned code = 0;
                        const auto [end, ec] =
                            std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
                        if (hex.size() != 4 || ec != std::errc{} ||
                            end != hex.data() + hex.size()) {
                            set_error("malformed escape '\\u" + hex + "'");
                            return std::nullopt;
                        }
                        if (code > 0x7f) {
                            set_error("unsupported escape '\\u" + hex +
                                      "' (only \\u0000-\\u007f decode to one byte)");
                            return std::nullopt;
                        }
                        out.push_back(static_cast<char>(code));
                        pos_ += 4;
                        break;
                    }
                    default:
                        set_error(std::string("unsupported escape '\\") + esc + "'");
                        return std::nullopt;
                }
            } else {
                out.push_back(c);
            }
        }
        set_error("unterminated string");
        return std::nullopt;
    }

    std::optional<JsonValue> parse_number() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
                text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        double value = 0.0;
        const auto [end, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, value);
        if (ec != std::errc{} || end != text_.data() + pos_ || start == pos_) {
            set_error("malformed number");
            return std::nullopt;
        }
        return JsonValue{value};
    }

    std::optional<JsonValue> parse_array() {
        consume('[');
        JsonArray out;
        skip_ws();
        if (consume(']')) return JsonValue{std::move(out)};
        while (true) {
            auto value = parse_value();
            if (!value) return std::nullopt;
            out.push_back(std::move(*value));
            if (consume(',')) continue;
            if (consume(']')) return JsonValue{std::move(out)};
            set_error("expected ',' or ']'");
            return std::nullopt;
        }
    }

    std::optional<JsonValue> parse_object() {
        consume('{');
        JsonObject out;
        skip_ws();
        if (consume('}')) return JsonValue{std::move(out)};
        while (true) {
            skip_ws();
            auto key = parse_string();
            if (!key) return std::nullopt;
            if (!consume(':')) {
                set_error("expected ':'");
                return std::nullopt;
            }
            auto value = parse_value();
            if (!value) return std::nullopt;
            out.emplace(std::move(*key), std::move(*value));
            if (consume(',')) continue;
            if (consume('}')) return JsonValue{std::move(out)};
            set_error("expected ',' or '}'");
            return std::nullopt;
        }
    }

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
};

/// The member `key` as a `T`; otherwise nullptr, with "missing <what>
/// field 'key'" stored in `error`.
template <typename T>
const T* typed(const JsonObject& obj, std::string_view key, const char* what,
               std::string* error) {
    const JsonValue* v = find(obj, key);
    const T* out = v == nullptr ? nullptr : v->get<T>();
    if (out == nullptr && error != nullptr && error->empty()) {
        *error = std::string("missing ") + what + " field '" + std::string(key) + "'";
    }
    return out;
}

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
    return JsonParser(text, error).parse();
}

const JsonValue* find(const JsonObject& obj, std::string_view key) {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

bool get_string(const JsonObject& obj, std::string_view key, std::string* out,
                std::string* error) {
    const auto* s = typed<std::string>(obj, key, "string", error);
    if (s != nullptr) *out = *s;
    return s != nullptr;
}

bool get_number(const JsonObject& obj, std::string_view key, double* out, std::string* error) {
    const auto* x = typed<double>(obj, key, "numeric", error);
    if (x != nullptr) *out = *x;
    return x != nullptr;
}

bool get_bool(const JsonObject& obj, std::string_view key, bool* out, std::string* error) {
    const auto* b = typed<bool>(obj, key, "boolean", error);
    if (b != nullptr) *out = *b;
    return b != nullptr;
}

bool get_u64(const JsonObject& obj, std::string_view key, std::uint64_t* out,
             std::string* error) {
    double x = 0.0;
    if (!get_number(obj, key, &x, error)) return false;
    if (!(x >= 0.0 && x <= 9007199254740992.0 && x == std::floor(x))) {
        if (error != nullptr && error->empty()) {
            *error = "field '" + std::string(key) + "' is not an integer in [0, 2^53]";
        }
        return false;
    }
    *out = static_cast<std::uint64_t>(x);
    return true;
}

bool get_u64_string(const JsonObject& obj, std::string_view key, int base, std::uint64_t* out,
                    std::string* error) {
    std::string s;
    if (!get_string(obj, key, &s, error)) return false;
    std::string_view digits = s;
    if (base == 16 && digits.starts_with("0x")) digits.remove_prefix(2);
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), *out, base);
    if (ec != std::errc{} || end != digits.data() + digits.size() || digits.empty()) {
        if (error != nullptr && error->empty()) {
            *error = "malformed integer in '" + std::string(key) + "'";
        }
        return false;
    }
    return true;
}

}  // namespace adhoc::io
