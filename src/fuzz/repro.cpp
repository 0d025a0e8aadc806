#include "fuzz/repro.hpp"

#include <array>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "io/json.hpp"

namespace adhoc::fuzz {
namespace {

using io::find;
using io::get_bool;
using io::get_number;
using io::get_string;
using io::get_u64_string;
using io::JsonArray;
using io::JsonObject;
using io::JsonValue;

// ---- Repro-specific accessors ------------------------------------------

/// Entries [first, first + N) of array `v` as numbers (an edge pair, a
/// crash triple, ...); nullopt unless `v` is an array of exactly first + N
/// entries whose last N are numbers.
template <std::size_t N>
std::optional<std::array<double, N>> numbers(const JsonValue& v, std::size_t first = 0) {
    const JsonArray* arr = v.get<JsonArray>();
    if (arr == nullptr || arr->size() != first + N) return std::nullopt;
    std::array<double, N> out{};
    for (std::size_t i = 0; i < N; ++i) {
        const double* x = (*arr)[first + i].get<double>();
        if (x == nullptr) return std::nullopt;
        out[i] = *x;
    }
    return out;
}

/// Reads member `key`, an array of N-number entries, passing each entry
/// to `add`.  An absent member is an error only when `required`.
template <std::size_t N, typename Add>
bool get_tuples(const JsonObject& obj, const std::string& key, bool required, Add&& add,
                std::string* error) {
    const JsonValue* v = find(obj, key);
    if (v == nullptr && !required) return true;
    const JsonArray* items = v == nullptr ? nullptr : v->get<JsonArray>();
    if (items == nullptr) {
        if (error != nullptr && error->empty()) *error = "missing array '" + key + "'";
        return false;
    }
    for (const JsonValue& item : *items) {
        const auto entry = numbers<N>(item);
        if (!entry) {
            if (error != nullptr && error->empty()) *error = "malformed entry in '" + key + "'";
            return false;
        }
        add(*entry);
    }
    return true;
}

bool get_edges(const JsonObject& obj, const std::string& key, std::vector<Edge>* out,
               std::string* error) {
    out->clear();
    return get_tuples<2>(
        obj, key, true,
        [&](const std::array<double, 2>& e) {
            out->push_back(Edge{static_cast<NodeId>(e[0]), static_cast<NodeId>(e[1])});
        },
        error);
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
    const auto doc = io::parse_json(text, error);
    if (!doc) return std::nullopt;
    const JsonObject* root = doc->get<JsonObject>();
    if (root == nullptr) {
        if (error != nullptr && error->empty()) *error = "top-level value is not an object";
        return std::nullopt;
    }
    const JsonObject& obj = *root;

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
    const bool faults_ok =
        get_tuples<3>(
            obj, "crashes", false,
            [&](const std::array<double, 3>& c) {
                s.crashes.push_back(CrashFault{static_cast<NodeId>(c[0]), c[1], c[2]});
            },
            error) &&
        get_tuples<4>(
            obj, "asym", false,
            [&](const std::array<double, 4>& a) {
                s.asym.push_back(AsymLoss{
                    Edge{static_cast<NodeId>(a[0]), static_cast<NodeId>(a[1])}, a[2], a[3]});
            },
            error);
    if (!faults_ok) return std::nullopt;
    if (find(obj, "recovery") != nullptr) {
        if (!get_bool(obj, "recovery", &s.recovery, error)) return std::nullopt;
    }
    if (const JsonValue* v = find(obj, "traffic"); v != nullptr) {
        const JsonArray* t = v->get<JsonArray>();
        if (t == nullptr || t->size() != 3 || (*t)[0].get<double>() == nullptr ||
            (*t)[1].get<double>() == nullptr || (*t)[2].get<bool>() == nullptr) {
            if (error != nullptr && error->empty()) *error = "malformed 'traffic'";
            return std::nullopt;
        }
        s.traffic_sessions = static_cast<std::size_t>(*(*t)[0].get<double>());
        s.traffic_rate = *(*t)[1].get<double>();
        s.traffic_bursty = *(*t)[2].get<bool>();
    }
    if (find(obj, "scale_check") != nullptr) {
        if (!get_bool(obj, "scale_check", &s.scale_check, error)) return std::nullopt;
    }
    if (const JsonValue* v = find(obj, "medium"); v != nullptr) {
        const auto params = numbers<5>(*v, 1);
        const std::string* name =
            params ? (*v->get<JsonArray>())[0].get<std::string>() : nullptr;
        if (name == nullptr) {
            if (error != nullptr && error->empty()) *error = "malformed 'medium'";
            return std::nullopt;
        }
        const auto backend = medium_backend_from_string(*name);
        if (!backend || *backend == MediumBackend::kIdeal) {
            // "ideal" is canonical absence: the writer never emits it.
            if (error != nullptr && error->empty()) {
                *error = "unknown medium backend '" + *name + "'";
            }
            return std::nullopt;
        }
        s.medium_backend = *backend;
        s.sinr_alpha = (*params)[0];
        s.sinr_beta = (*params)[1];
        s.sinr_noise = (*params)[2];
        s.interference_range = (*params)[3];
        s.vulnerability_window = (*params)[4];
        if (find(obj, "positions") == nullptr) {
            if (error != nullptr && error->empty()) *error = "'medium' requires 'positions'";
            return std::nullopt;
        }
        const bool positions_ok = get_tuples<2>(
            obj, "positions", true,
            [&](const std::array<double, 2>& p) { s.positions.push_back(Point2D{p[0], p[1]}); },
            error);
        if (!positions_ok) return std::nullopt;
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
