#include "telemetry/sinks.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

#include "io/json.hpp"

namespace adhoc::telemetry {

namespace {

void append_u64_array(std::string& out, const std::vector<std::uint64_t>& xs) {
    out += '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(xs[i]);
    }
    out += ']';
}

struct JsonlSink {
    std::mutex mutex;
    std::FILE* file = nullptr;
};

JsonlSink& jsonl_sink() {
    static JsonlSink s;
    return s;
}

}  // namespace

// -------------------------------------------------------- metrics export --

std::uint64_t histogram_quantile(const std::vector<std::uint64_t>& bounds,
                                 const std::vector<std::uint64_t>& buckets,
                                 std::uint64_t max_value, double q) {
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets) total += b;
    if (total == 0) return 0;
    // ceil(q * total) without floating-point accumulation issues: the
    // target rank is at least 1 so q=0 still resolves to the first sample.
    std::uint64_t target = static_cast<std::uint64_t>(q * static_cast<double>(total));
    if (static_cast<double>(target) < q * static_cast<double>(total)) ++target;
    if (target == 0) target = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cumulative += buckets[i];
        if (cumulative >= target) {
            return i < bounds.size() ? bounds[i] : max_value;
        }
    }
    return max_value;
}

std::string metrics_json(const Snapshot& snapshot, bool include_timing) {
    struct Entry {
        const MetricDef* def;
        const MetricValue* value;
    };
    std::vector<Entry> entries;
    const std::vector<MetricValue>& values = snapshot.values();
    for (MetricId id = 0; id < values.size(); ++id) {
        if (values[id].empty()) continue;
        const MetricDef& def = metric(id);
        if (!include_timing && def.kind == Kind::kTimer) continue;
        entries.push_back({&def, &values[id]});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.def->name < b.def->name; });

    std::string out = "{";
    bool first = true;
    for (const Entry& e : entries) {
        if (!first) out += ", ";
        first = false;
        out += '"' + io::json_escape(e.def->name) + "\": {";
        const MetricValue& v = *e.value;
        switch (e.def->kind) {
            case Kind::kCounter:
                out += "\"kind\": \"counter\", \"value\": " + std::to_string(v.sum);
                break;
            case Kind::kGauge:
                out += "\"kind\": \"gauge\", \"max\": " + std::to_string(v.max) +
                       ", \"samples\": " + std::to_string(v.count);
                break;
            case Kind::kTimer:
                out += "\"kind\": \"timer\", \"count\": " + std::to_string(v.count) +
                       ", \"total_ns\": " + std::to_string(v.sum) +
                       ", \"max_ns\": " + std::to_string(v.max);
                break;
            case Kind::kHistogram: {
                out += "\"kind\": \"histogram\", \"count\": " + std::to_string(v.count) +
                       ", \"sum\": " + std::to_string(v.sum) +
                       ", \"max\": " + std::to_string(v.max) + ", \"bounds\": ";
                append_u64_array(out, e.def->bounds);
                out += ", \"buckets\": ";
                std::vector<std::uint64_t> buckets = v.buckets;
                buckets.resize(e.def->bounds.size() + 1, 0);
                append_u64_array(out, buckets);
                out += ", \"p50\": " +
                       std::to_string(histogram_quantile(e.def->bounds, buckets, v.max, 0.50));
                out += ", \"p95\": " +
                       std::to_string(histogram_quantile(e.def->bounds, buckets, v.max, 0.95));
                out += ", \"p99\": " +
                       std::to_string(histogram_quantile(e.def->bounds, buckets, v.max, 0.99));
                break;
            }
        }
        if (!e.def->unit.empty()) out += ", \"unit\": \"" + io::json_escape(e.def->unit) + '"';
        out += '}';
    }
    out += '}';
    return out;
}

void write_metrics_json(std::ostream& out, const Snapshot& snapshot, bool include_timing) {
    out << metrics_json(snapshot, include_timing);
}

// ------------------------------------------------------------ JSONL sink --

void configure_jsonl(const std::string& path) {
    JsonlSink& sink = jsonl_sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    if (sink.file) std::fclose(sink.file);
    sink.file = std::fopen(path.c_str(), "w");
}

void close_jsonl() {
    JsonlSink& sink = jsonl_sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    if (sink.file) {
        std::fclose(sink.file);
        sink.file = nullptr;
    }
}

bool jsonl_enabled() {
    JsonlSink& sink = jsonl_sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    return sink.file != nullptr;
}

void jsonl_write_run(std::string_view label,
                     const std::vector<std::pair<std::string_view, std::uint64_t>>& fields,
                     const Snapshot& snapshot) {
    JsonlSink& sink = jsonl_sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    if (!sink.file) return;
    std::string line = "{\"type\": \"run\", \"label\": \"" + io::json_escape(label) + '"';
    for (const auto& [key, value] : fields) {
        line += ", \"" + io::json_escape(key) + "\": " + std::to_string(value);
    }
    line += ", \"ts_ns\": " + std::to_string(timeline_now_ns());
    line += ", \"metrics\": " + metrics_json(snapshot, /*include_timing=*/true) + "}\n";
    std::fputs(line.c_str(), sink.file);
    std::fflush(sink.file);
}

namespace detail {

bool jsonl_consume_spans(const std::vector<Span>& spans) {
    JsonlSink& sink = jsonl_sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    if (!sink.file) return false;
    for (const Span& span : spans) {
        std::fprintf(sink.file,
                     "{\"type\": \"span\", \"name\": \"%s\", \"ts_ns\": %" PRIu64
                     ", \"dur_ns\": %" PRIu64 ", \"tid\": %" PRIu32 "}\n",
                     io::json_escape(metric(span.metric).name).c_str(), span.ts_ns, span.dur_ns,
                     span.tid);
    }
    std::fflush(sink.file);
    return true;
}

}  // namespace detail

// -------------------------------------------------------- JSONL parsing --

std::optional<SpanRecord> parse_span_line(std::string_view line) {
    const std::optional<io::JsonValue> doc = io::parse_json(line);
    const io::JsonObject* obj = doc ? doc->get<io::JsonObject>() : nullptr;
    std::string type;
    if (obj == nullptr || !io::get_string(*obj, "type", &type, nullptr) || type != "span") {
        return std::nullopt;
    }
    SpanRecord record;
    std::uint64_t tid = 0;
    if (!io::get_string(*obj, "name", &record.name, nullptr) ||
        !io::get_u64(*obj, "ts_ns", &record.ts_ns, nullptr) ||
        !io::get_u64(*obj, "dur_ns", &record.dur_ns, nullptr) ||
        !io::get_u64(*obj, "tid", &tid, nullptr) || tid > UINT32_MAX) {
        return std::nullopt;
    }
    record.tid = static_cast<std::uint32_t>(tid);
    return record;
}

// -------------------------------------------------------- chrome tracing --

void write_chrome_trace(std::ostream& out, const std::vector<ChromeEvent>& events) {
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const ChromeEvent& e = events[i];
        char num[64];
        out << "{\"name\":\"" << io::json_escape(e.name) << "\",\"cat\":\""
            << io::json_escape(e.cat) << "\",\"ph\":\"" << e.ph
            << "\",\"pid\":1,\"tid\":" << e.tid;
        std::snprintf(num, sizeof(num), "%.3f", e.ts_us);
        out << ",\"ts\":" << num;
        if (e.ph == 'X') {
            std::snprintf(num, sizeof(num), "%.3f", e.dur_us);
            out << ",\"dur\":" << num;
        }
        if (e.ph == 'i') out << ",\"s\":\"t\"";  // instant scope: thread
        if (!e.args_json.empty()) out << ",\"args\":" << e.args_json;
        out << '}' << (i + 1 == events.size() ? "\n" : ",\n");
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::vector<ChromeEvent> chrome_events_from_spans(const std::vector<Span>& spans) {
    std::vector<ChromeEvent> events;
    events.reserve(spans.size());
    for (const Span& span : spans) {
        ChromeEvent e;
        e.name = metric(span.metric).name;
        e.ph = 'X';
        e.tid = span.tid;
        e.ts_us = static_cast<double>(span.ts_ns) / 1000.0;
        e.dur_us = static_cast<double>(span.dur_ns) / 1000.0;
        events.push_back(std::move(e));
    }
    return events;
}

}  // namespace adhoc::telemetry
