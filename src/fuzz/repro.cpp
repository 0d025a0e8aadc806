#include "fuzz/repro.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <variant>
#include <vector>

#include "io/json.hpp"

namespace adhoc::fuzz {
namespace {

// ---- Minimal JSON reader ---------------------------------------------
//
// Restricted to what the repro schema needs (objects, arrays, strings,
// finite numbers, booleans); kept private to this translation unit.  The
// repo deliberately has no third-party JSON dependency.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;
};

class JsonParser {
  public:
    JsonParser(const std::string& text, std::string* error) : text_(text), error_(error) {}

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
                        const std::string hex = text_.substr(pos_, 4);
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

    const std::string& text_;
    std::string* error_;
    std::size_t pos_ = 0;
};

// ---- Field accessors --------------------------------------------------

const JsonValue* find(const JsonObject& obj, const std::string& key) {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

bool get_string(const JsonObject& obj, const std::string& key, std::string* out,
                std::string* error) {
    const JsonValue* v = find(obj, key);
    if (v == nullptr || !std::holds_alternative<std::string>(v->v)) {
        if (error != nullptr && error->empty()) *error = "missing string field '" + key + "'";
        return false;
    }
    *out = std::get<std::string>(v->v);
    return true;
}

bool get_number(const JsonObject& obj, const std::string& key, double* out, std::string* error) {
    const JsonValue* v = find(obj, key);
    if (v == nullptr || !std::holds_alternative<double>(v->v)) {
        if (error != nullptr && error->empty()) *error = "missing numeric field '" + key + "'";
        return false;
    }
    *out = std::get<double>(v->v);
    return true;
}

bool get_bool(const JsonObject& obj, const std::string& key, bool* out, std::string* error) {
    const JsonValue* v = find(obj, key);
    if (v == nullptr || !std::holds_alternative<bool>(v->v)) {
        if (error != nullptr && error->empty()) *error = "missing boolean field '" + key + "'";
        return false;
    }
    *out = std::get<bool>(v->v);
    return true;
}

bool get_u64_string(const JsonObject& obj, const std::string& key, int base, std::uint64_t* out,
                    std::string* error) {
    std::string s;
    if (!get_string(obj, key, &s, error)) return false;
    std::string_view digits = s;
    if (base == 16 && digits.starts_with("0x")) digits.remove_prefix(2);
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), *out, base);
    if (ec != std::errc{} || end != digits.data() + digits.size() || digits.empty()) {
        if (error != nullptr && error->empty()) *error = "malformed integer in '" + key + "'";
        return false;
    }
    return true;
}

bool get_edges(const JsonObject& obj, const std::string& key, std::vector<Edge>* out,
               std::string* error) {
    const JsonValue* v = find(obj, key);
    if (v == nullptr || !std::holds_alternative<JsonArray>(v->v)) {
        if (error != nullptr && error->empty()) *error = "missing edge array '" + key + "'";
        return false;
    }
    out->clear();
    for (const JsonValue& item : std::get<JsonArray>(v->v)) {
        if (!std::holds_alternative<JsonArray>(item.v)) return false;
        const JsonArray& pair = std::get<JsonArray>(item.v);
        if (pair.size() != 2 || !std::holds_alternative<double>(pair[0].v) ||
            !std::holds_alternative<double>(pair[1].v)) {
            if (error != nullptr && error->empty()) *error = "malformed edge in '" + key + "'";
            return false;
        }
        out->push_back(Edge{static_cast<NodeId>(std::get<double>(pair[0].v)),
                            static_cast<NodeId>(std::get<double>(pair[1].v))});
    }
    return true;
}

// ---- Enum spellings (reusing the library's to_string forms) -----------

template <typename Enum, std::size_t N>
bool parse_enum(const std::string& text, const Enum (&values)[N], Enum* out) {
    for (const Enum value : values) {
        if (to_string(value) == text) {
            *out = value;
            return true;
        }
    }
    return false;
}

constexpr Timing kTimings[] = {Timing::kStatic, Timing::kFirstReceipt, Timing::kRandomBackoff,
                               Timing::kDegreeBackoff};
constexpr Selection kSelections[] = {Selection::kSelfPruning, Selection::kNeighborDesignating,
                                     Selection::kHybridMaxDegree, Selection::kHybridMinId};
constexpr PriorityScheme kPriorities[] = {PriorityScheme::kId, PriorityScheme::kDegree,
                                          PriorityScheme::kNcr};

void write_edges(std::ostream& out, const std::vector<Edge>& edges) {
    out << '[';
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i != 0) out << ',';
        out << '[' << edges[i].a << ',' << edges[i].b << ']';
    }
    out << ']';
}

}  // namespace

std::string to_repro_json(const Repro& repro) {
    const Scenario& s = repro.scenario;
    std::ostringstream out;
    out << std::setprecision(17);  // doubles must round-trip exactly
    out << "{\n";
    out << "  \"schema\": \"adhoc-repro-v1\",\n";
    out << "  \"family\": \"" << io::json_escape(s.family) << "\",\n";
    out << "  \"run_seed\": \"" << s.run_seed << "\",\n";
    out << "  \"node_count\": " << s.node_count << ",\n";
    out << "  \"edges\": ";
    write_edges(out, s.edges);
    out << ",\n";
    out << "  \"source\": " << s.source << ",\n";
    out << "  \"algorithm\": \"" << io::json_escape(s.config.algorithm) << "\",\n";
    out << "  \"timing\": \"" << to_string(s.config.timing) << "\",\n";
    out << "  \"selection\": \"" << to_string(s.config.selection) << "\",\n";
    out << "  \"hops\": " << s.config.hops << ",\n";
    out << "  \"priority\": \"" << to_string(s.config.priority) << "\",\n";
    out << "  \"strong\": " << (s.config.strong ? "true" : "false") << ",\n";
    out << "  \"strict_designation\": " << (s.config.strict_designation ? "true" : "false")
        << ",\n";
    out << "  \"history\": " << s.config.history << ",\n";
    out << "  \"loss\": " << s.loss << ",\n";
    out << "  \"jitter\": " << s.jitter << ",\n";
    out << "  \"lost_edges\": ";
    write_edges(out, s.lost_edges);
    out << ",\n";
    // Fault fields are optional so pre-fault corpus files stay byte-stable.
    if (!s.crashes.empty()) {
        out << "  \"crashes\": [";
        for (std::size_t i = 0; i < s.crashes.size(); ++i) {
            if (i != 0) out << ',';
            out << '[' << s.crashes[i].node << ',' << s.crashes[i].at << ','
                << s.crashes[i].recover_at << ']';
        }
        out << "],\n";
    }
    if (!s.asym.empty()) {
        out << "  \"asym\": [";
        for (std::size_t i = 0; i < s.asym.size(); ++i) {
            if (i != 0) out << ',';
            out << '[' << s.asym[i].link.a << ',' << s.asym[i].link.b << ','
                << s.asym[i].loss_ab << ',' << s.asym[i].loss_ba << ']';
        }
        out << "],\n";
    }
    if (s.recovery) {
        out << "  \"recovery\": true,\n";
    }
    if (s.traffic_sessions > 0) {
        out << "  \"traffic\": [" << s.traffic_sessions << ',' << s.traffic_rate << ','
            << (s.traffic_bursty ? "true" : "false") << "],\n";
    }
    if (s.scale_check) {
        out << "  \"scale_check\": true,\n";
    }
    if (s.medium_backend != MediumBackend::kIdeal) {
        out << "  \"medium\": [\"" << to_string(s.medium_backend) << "\"," << s.sinr_alpha << ','
            << s.sinr_beta << ',' << s.sinr_noise << ',' << s.interference_range << ','
            << s.vulnerability_window << "],\n";
        out << "  \"positions\": [";
        for (std::size_t i = 0; i < s.positions.size(); ++i) {
            if (i != 0) out << ',';
            out << '[' << s.positions[i].x << ',' << s.positions[i].y << ']';
        }
        out << "],\n";
    }
    out << "  \"oracle\": \"" << io::json_escape(repro.oracle) << "\",\n";
    if (repro.digest.has_value()) {
        std::ostringstream hex;
        hex << std::hex << *repro.digest;
        out << "  \"digest\": \"0x" << hex.str() << "\",\n";
    }
    out << "  \"note\": \"" << io::json_escape(repro.note) << "\"\n";
    out << "}\n";
    return out.str();
}

std::optional<Repro> parse_repro(const std::string& text, std::string* error) {
    JsonParser parser(text, error);
    auto doc = parser.parse();
    if (!doc) return std::nullopt;
    if (!std::holds_alternative<JsonObject>(doc->v)) {
        if (error != nullptr && error->empty()) *error = "top-level value is not an object";
        return std::nullopt;
    }
    const JsonObject& obj = std::get<JsonObject>(doc->v);

    std::string schema;
    if (!get_string(obj, "schema", &schema, error)) return std::nullopt;
    if (schema != "adhoc-repro-v1") {
        if (error != nullptr && error->empty()) *error = "unknown schema '" + schema + "'";
        return std::nullopt;
    }

    Repro repro;
    Scenario& s = repro.scenario;
    double number = 0.0;
    std::string text_field;

    if (!get_string(obj, "family", &s.family, error)) return std::nullopt;
    if (!get_u64_string(obj, "run_seed", 10, &s.run_seed, error)) return std::nullopt;
    if (!get_number(obj, "node_count", &number, error)) return std::nullopt;
    s.node_count = static_cast<std::size_t>(number);
    if (!get_edges(obj, "edges", &s.edges, error)) return std::nullopt;
    if (!get_number(obj, "source", &number, error)) return std::nullopt;
    s.source = static_cast<NodeId>(number);
    if (!get_string(obj, "algorithm", &s.config.algorithm, error)) return std::nullopt;

    if (!get_string(obj, "timing", &text_field, error)) return std::nullopt;
    if (!parse_enum(text_field, kTimings, &s.config.timing)) {
        if (error != nullptr && error->empty()) *error = "unknown timing '" + text_field + "'";
        return std::nullopt;
    }
    if (!get_string(obj, "selection", &text_field, error)) return std::nullopt;
    if (!parse_enum(text_field, kSelections, &s.config.selection)) {
        if (error != nullptr && error->empty()) *error = "unknown selection '" + text_field + "'";
        return std::nullopt;
    }
    if (!get_number(obj, "hops", &number, error)) return std::nullopt;
    s.config.hops = static_cast<std::size_t>(number);
    if (!get_string(obj, "priority", &text_field, error)) return std::nullopt;
    if (!parse_enum(text_field, kPriorities, &s.config.priority)) {
        if (error != nullptr && error->empty()) *error = "unknown priority '" + text_field + "'";
        return std::nullopt;
    }
    if (!get_bool(obj, "strong", &s.config.strong, error)) return std::nullopt;
    if (!get_bool(obj, "strict_designation", &s.config.strict_designation, error)) {
        return std::nullopt;
    }
    if (!get_number(obj, "history", &number, error)) return std::nullopt;
    s.config.history = static_cast<std::size_t>(number);
    if (!get_number(obj, "loss", &s.loss, error)) return std::nullopt;
    if (!get_number(obj, "jitter", &s.jitter, error)) return std::nullopt;
    if (!get_edges(obj, "lost_edges", &s.lost_edges, error)) return std::nullopt;
    if (const JsonValue* v = find(obj, "crashes"); v != nullptr) {
        if (!std::holds_alternative<JsonArray>(v->v)) {
            if (error != nullptr && error->empty()) *error = "malformed 'crashes'";
            return std::nullopt;
        }
        for (const JsonValue& item : std::get<JsonArray>(v->v)) {
            const JsonArray* triple =
                std::holds_alternative<JsonArray>(item.v) ? &std::get<JsonArray>(item.v) : nullptr;
            if (triple == nullptr || triple->size() != 3 ||
                !std::holds_alternative<double>((*triple)[0].v) ||
                !std::holds_alternative<double>((*triple)[1].v) ||
                !std::holds_alternative<double>((*triple)[2].v)) {
                if (error != nullptr && error->empty()) *error = "malformed entry in 'crashes'";
                return std::nullopt;
            }
            s.crashes.push_back(CrashFault{static_cast<NodeId>(std::get<double>((*triple)[0].v)),
                                           std::get<double>((*triple)[1].v),
                                           std::get<double>((*triple)[2].v)});
        }
    }
    if (const JsonValue* v = find(obj, "asym"); v != nullptr) {
        if (!std::holds_alternative<JsonArray>(v->v)) {
            if (error != nullptr && error->empty()) *error = "malformed 'asym'";
            return std::nullopt;
        }
        for (const JsonValue& item : std::get<JsonArray>(v->v)) {
            const JsonArray* quad =
                std::holds_alternative<JsonArray>(item.v) ? &std::get<JsonArray>(item.v) : nullptr;
            if (quad == nullptr || quad->size() != 4 ||
                !std::holds_alternative<double>((*quad)[0].v) ||
                !std::holds_alternative<double>((*quad)[1].v) ||
                !std::holds_alternative<double>((*quad)[2].v) ||
                !std::holds_alternative<double>((*quad)[3].v)) {
                if (error != nullptr && error->empty()) *error = "malformed entry in 'asym'";
                return std::nullopt;
            }
            s.asym.push_back(AsymLoss{Edge{static_cast<NodeId>(std::get<double>((*quad)[0].v)),
                                           static_cast<NodeId>(std::get<double>((*quad)[1].v))},
                                      std::get<double>((*quad)[2].v),
                                      std::get<double>((*quad)[3].v)});
        }
    }
    if (find(obj, "recovery") != nullptr) {
        if (!get_bool(obj, "recovery", &s.recovery, error)) return std::nullopt;
    }
    if (const JsonValue* v = find(obj, "traffic"); v != nullptr) {
        const JsonArray* triple =
            std::holds_alternative<JsonArray>(v->v) ? &std::get<JsonArray>(v->v) : nullptr;
        if (triple == nullptr || triple->size() != 3 ||
            !std::holds_alternative<double>((*triple)[0].v) ||
            !std::holds_alternative<double>((*triple)[1].v) ||
            !std::holds_alternative<bool>((*triple)[2].v)) {
            if (error != nullptr && error->empty()) *error = "malformed 'traffic'";
            return std::nullopt;
        }
        s.traffic_sessions = static_cast<std::size_t>(std::get<double>((*triple)[0].v));
        s.traffic_rate = std::get<double>((*triple)[1].v);
        s.traffic_bursty = std::get<bool>((*triple)[2].v);
    }
    if (find(obj, "scale_check") != nullptr) {
        if (!get_bool(obj, "scale_check", &s.scale_check, error)) return std::nullopt;
    }
    if (const JsonValue* v = find(obj, "medium"); v != nullptr) {
        const JsonArray* arr =
            std::holds_alternative<JsonArray>(v->v) ? &std::get<JsonArray>(v->v) : nullptr;
        bool shaped = arr != nullptr && arr->size() == 6 &&
                      std::holds_alternative<std::string>((*arr)[0].v);
        for (std::size_t i = 1; shaped && i < 6; ++i) {
            shaped = std::holds_alternative<double>((*arr)[i].v);
        }
        if (!shaped) {
            if (error != nullptr && error->empty()) *error = "malformed 'medium'";
            return std::nullopt;
        }
        const auto backend = medium_backend_from_string(std::get<std::string>((*arr)[0].v));
        if (!backend || *backend == MediumBackend::kIdeal) {
            // "ideal" is canonical absence: the writer never emits it.
            if (error != nullptr && error->empty()) {
                *error = "unknown medium backend '" + std::get<std::string>((*arr)[0].v) + "'";
            }
            return std::nullopt;
        }
        s.medium_backend = *backend;
        s.sinr_alpha = std::get<double>((*arr)[1].v);
        s.sinr_beta = std::get<double>((*arr)[2].v);
        s.sinr_noise = std::get<double>((*arr)[3].v);
        s.interference_range = std::get<double>((*arr)[4].v);
        s.vulnerability_window = std::get<double>((*arr)[5].v);
        const JsonValue* pv = find(obj, "positions");
        if (pv == nullptr || !std::holds_alternative<JsonArray>(pv->v)) {
            if (error != nullptr && error->empty()) *error = "'medium' requires 'positions'";
            return std::nullopt;
        }
        for (const JsonValue& item : std::get<JsonArray>(pv->v)) {
            const JsonArray* pair =
                std::holds_alternative<JsonArray>(item.v) ? &std::get<JsonArray>(item.v) : nullptr;
            if (pair == nullptr || pair->size() != 2 ||
                !std::holds_alternative<double>((*pair)[0].v) ||
                !std::holds_alternative<double>((*pair)[1].v)) {
                if (error != nullptr && error->empty()) *error = "malformed entry in 'positions'";
                return std::nullopt;
            }
            s.positions.push_back(
                Point2D{std::get<double>((*pair)[0].v), std::get<double>((*pair)[1].v)});
        }
    } else if (find(obj, "positions") != nullptr) {
        if (error != nullptr && error->empty()) *error = "'positions' requires a 'medium' entry";
        return std::nullopt;
    }
    if (!get_string(obj, "oracle", &repro.oracle, error)) return std::nullopt;
    if (find(obj, "digest") != nullptr) {
        std::uint64_t digest = 0;
        if (!get_u64_string(obj, "digest", 16, &digest, error)) return std::nullopt;
        repro.digest = digest;
    }
    if (find(obj, "note") != nullptr) {
        if (!get_string(obj, "note", &repro.note, error)) return std::nullopt;
    }

    // Structural validation: ids in range, no self loops.
    if (s.node_count == 0 || s.source >= s.node_count) {
        if (error != nullptr && error->empty()) *error = "source out of range";
        return std::nullopt;
    }
    for (const std::vector<Edge>* edges : {&s.edges, &s.lost_edges}) {
        for (const Edge& e : *edges) {
            if (e.a >= s.node_count || e.b >= s.node_count || e.a == e.b) {
                if (error != nullptr && error->empty()) *error = "edge endpoint out of range";
                return std::nullopt;
            }
        }
    }
    for (const CrashFault& c : s.crashes) {
        if (c.node >= s.node_count) {
            if (error != nullptr && error->empty()) *error = "crash node out of range";
            return std::nullopt;
        }
    }
    for (const AsymLoss& a : s.asym) {
        if (a.link.a >= s.node_count || a.link.b >= s.node_count || a.link.a == a.link.b) {
            if (error != nullptr && error->empty()) *error = "asym link out of range";
            return std::nullopt;
        }
    }
    if (s.traffic_sessions > 0 && !(s.traffic_rate > 0.0)) {
        if (error != nullptr && error->empty()) *error = "traffic rate must be positive";
        return std::nullopt;
    }
    if (s.has_medium()) {
        // Reject anything Medium's own validation (under run_once's
        // propagation_delay of 1.0) would throw on — replay must never
        // die on an exception from a crafted corpus file.
        const auto bad = [](double x) { return !std::isfinite(x); };
        if (s.positions.size() != s.node_count) {
            if (error != nullptr && error->empty()) {
                *error = "'positions' must hold one point per node";
            }
            return std::nullopt;
        }
        if (bad(s.sinr_alpha) || s.sinr_alpha < 1.0 || bad(s.sinr_beta) || s.sinr_beta < 0.0 ||
            bad(s.sinr_noise) || s.sinr_noise < 0.0 || bad(s.interference_range) ||
            s.interference_range <= 0.0 || bad(s.vulnerability_window) ||
            s.vulnerability_window < 0.0 || s.vulnerability_window >= 1.0) {
            if (error != nullptr && error->empty()) *error = "medium parameters out of range";
            return std::nullopt;
        }
        for (const Point2D& p : s.positions) {
            if (bad(p.x) || bad(p.y)) {
                if (error != nullptr && error->empty()) *error = "non-finite position";
                return std::nullopt;
            }
        }
        if (!s.lost_edges.empty()) {
            if (error != nullptr && error->empty()) {
                *error = "'medium' is exclusive with 'lost_edges'";
            }
            return std::nullopt;
        }
    }
    return repro;
}

std::optional<Repro> load_repro(const std::string& path, std::string* error) {
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr) *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_repro(buffer.str(), error);
}

bool save_repro(const std::string& path, const Repro& repro) {
    std::ofstream out(path);
    if (!out) return false;
    out << to_repro_json(repro);
    return static_cast<bool>(out);
}

}  // namespace adhoc::fuzz
