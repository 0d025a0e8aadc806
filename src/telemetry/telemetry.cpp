#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "telemetry/sinks.hpp"

namespace adhoc::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_spans_enabled{false};
}  // namespace detail

namespace {

// ------------------------------------------------------------- registry --

/// Writers serialize on `mutex`; readers go lock-free via the published
/// `count` (deque references stay valid across growth).  Contract: all
/// registration happens before instrumented worker threads start — true
/// for the namespace-scope `const MetricId` registration idiom every
/// instrumentation site uses.
struct Registry {
    std::mutex mutex;  ///< writers only
    std::deque<MetricDef> defs;
    std::unordered_map<std::string, MetricId> by_name;
    std::atomic<std::size_t> count{0};
};

Registry& registry() {
    static Registry r;
    return r;
}

// --------------------------------------------------------------- frames --

struct Frame {
    std::vector<MetricValue> values;
    Frame* parent = nullptr;
};

thread_local Frame t_root;
thread_local Frame* t_top = &t_root;

/// Element-wise fold of `src` into `dst` (the kind-agnostic merge rule).
void merge_values(std::vector<MetricValue>& dst, const std::vector<MetricValue>& src) {
    if (dst.size() < src.size()) dst.resize(src.size());
    for (std::size_t id = 0; id < src.size(); ++id) {
        const MetricValue& from = src[id];
        if (from.count == 0) continue;
        MetricValue& into = dst[id];
        into.count += from.count;
        into.sum += from.sum;
        if (from.max > into.max) into.max = from.max;
        if (!from.buckets.empty()) {
            if (into.buckets.size() < from.buckets.size()) {
                into.buckets.resize(from.buckets.size(), 0);
            }
            for (std::size_t b = 0; b < from.buckets.size(); ++b) {
                into.buckets[b] += from.buckets[b];
            }
        }
    }
}

MetricValue& slot(Frame& frame, MetricId id) {
    if (frame.values.size() <= id) frame.values.resize(id + 1);
    return frame.values[id];
}

// ---------------------------------------------------------------- spans --

std::chrono::steady_clock::time_point epoch() {
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

struct SpanStore {
    std::mutex mutex;
    std::vector<Span> retained;
};

SpanStore& span_store() {
    static SpanStore s;
    return s;
}

thread_local std::vector<Span> t_spans;

constexpr std::size_t kSpanFlushThreshold = 8192;
constexpr std::size_t kSpanRetainCap = 1 << 20;

// ------------------------------------------------------------- env init --

/// Reads ADHOC_TELEMETRY / ADHOC_TELEMETRY_SPANS once at process start so
/// any binary can be instrumented without code changes.
struct EnvInit {
    EnvInit() {
        if (const char* value = std::getenv("ADHOC_TELEMETRY")) {
            const std::string_view v(value);
            if (!v.empty() && v != "0" && v != "off") {
                set_enabled(true);
                if (v != "1" && v != "on") configure_jsonl(std::string(v));
            }
        }
        if (const char* value = std::getenv("ADHOC_TELEMETRY_SPANS")) {
            const std::string_view v(value);
            if (!v.empty() && v != "0" && v != "off") set_spans_enabled(true);
        }
    }
    ~EnvInit() {
        flush_thread_spans();
        close_jsonl();
    }
};

const EnvInit g_env_init;

}  // namespace

// ---------------------------------------------------------- enable flags --

void set_enabled(bool on) noexcept {
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_spans_enabled(bool on) noexcept {
    detail::g_spans_enabled.store(on, std::memory_order_relaxed);
}

// ----------------------------------------------------------- registration --

MetricId register_metric(MetricDef def) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.by_name.find(def.name);
    if (it != reg.by_name.end()) {
        assert(reg.defs[it->second].kind == def.kind &&
               "metric re-registered with a different kind");
        return it->second;
    }
    const MetricId id = reg.defs.size();
    reg.by_name.emplace(def.name, id);
    reg.defs.push_back(std::move(def));
    reg.count.store(reg.defs.size(), std::memory_order_release);
    return id;
}

MetricId counter(std::string name, std::string unit) {
    return register_metric({std::move(name), std::move(unit), Kind::kCounter, {}});
}

MetricId gauge(std::string name, std::string unit) {
    return register_metric({std::move(name), std::move(unit), Kind::kGauge, {}});
}

MetricId timer(std::string name) {
    return register_metric({std::move(name), "ns", Kind::kTimer, {}});
}

MetricId histogram(std::string name, std::vector<std::uint64_t> bounds, std::string unit) {
    assert(!bounds.empty());
    return register_metric(
        {std::move(name), std::move(unit), Kind::kHistogram, std::move(bounds)});
}

std::size_t metric_count() {
    return registry().count.load(std::memory_order_acquire);
}

const MetricDef& metric(MetricId id) {
    Registry& reg = registry();
    assert(id < reg.count.load(std::memory_order_acquire));
    return reg.defs[id];
}

// -------------------------------------------------------------- recording --

namespace detail {

void record_count(MetricId id, std::uint64_t n) {
    MetricValue& v = slot(*t_top, id);
    ++v.count;
    v.sum += n;
}

void record_gauge(MetricId id, std::uint64_t level) {
    MetricValue& v = slot(*t_top, id);
    ++v.count;
    v.sum += level;
    if (level > v.max) v.max = level;
}

void record_sample(MetricId id, std::uint64_t sample) {
    MetricValue& v = slot(*t_top, id);
    ++v.count;
    v.sum += sample;
    if (sample > v.max) v.max = sample;
    const MetricDef& def = metric(id);
    if (v.buckets.size() < def.bounds.size() + 1) v.buckets.resize(def.bounds.size() + 1, 0);
    std::size_t b = 0;
    while (b < def.bounds.size() && sample > def.bounds[b]) ++b;
    ++v.buckets[b];
}

void record_duration(MetricId id, std::chrono::steady_clock::time_point start) {
    const auto end = std::chrono::steady_clock::now();
    const auto ns =
        static_cast<std::uint64_t>(std::chrono::nanoseconds(end - start).count());
    MetricValue& v = slot(*t_top, id);
    ++v.count;
    v.sum += ns;
    if (ns > v.max) v.max = ns;
    if (spans_enabled()) {
        // The epoch starts at its first use, which can fall inside the
        // first span: such a span starts at the epoch rather than before
        // it (a negative offset would wrap to ~2^64).
        const auto ts = static_cast<std::uint64_t>(
            std::chrono::nanoseconds(std::max(start, epoch()) - epoch()).count());
        t_spans.push_back(Span{id, ts, ns, thread_index()});
        if (t_spans.size() >= kSpanFlushThreshold) flush_thread_spans();
    }
}

}  // namespace detail

// ---------------------------------------------------------------- spans --

std::uint64_t timeline_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::nanoseconds(std::chrono::steady_clock::now() - epoch()).count());
}

void flush_thread_spans() {
    if (t_spans.empty()) return;
    std::vector<Span> pending;
    pending.swap(t_spans);
    if (detail::jsonl_consume_spans(pending)) return;  // streamed to the JSONL sink
    SpanStore& store = span_store();
    std::lock_guard<std::mutex> lock(store.mutex);
    if (store.retained.size() >= kSpanRetainCap) return;  // bounded memory
    store.retained.insert(store.retained.end(), pending.begin(), pending.end());
}

std::vector<Span> drain_spans() {
    flush_thread_spans();
    SpanStore& store = span_store();
    std::lock_guard<std::mutex> lock(store.mutex);
    std::vector<Span> out;
    out.swap(store.retained);
    return out;
}

// ------------------------------------------------------------- snapshot --

void Snapshot::merge(const Snapshot& other) { merge_values(values_, other.values_); }

void Snapshot::add_count(MetricId id, std::uint64_t n) {
    if (values_.size() <= id) values_.resize(id + 1);
    ++values_[id].count;
    values_[id].sum += n;
}

bool Snapshot::empty() const noexcept {
    for (const MetricValue& v : values_) {
        if (v.count != 0) return false;
    }
    return true;
}

// ------------------------------------------------------------- RunScope --

RunScope::RunScope() {
    if (!enabled()) return;
    auto* frame = new Frame;
    frame->parent = t_top;
    t_top = frame;
    frame_ = frame;
    active_ = true;
}

void RunScope::detach(bool fold_into_parent) {
    auto* frame = static_cast<Frame*>(frame_);
    assert(t_top == frame && "RunScope must end on the thread that created it");
    t_top = frame->parent;
    if (fold_into_parent) merge_values(t_top->values, frame->values);
    flush_thread_spans();
    active_ = false;
}

Snapshot RunScope::harvest() {
    Snapshot out;
    if (!active_) return out;
    auto* frame = static_cast<Frame*>(frame_);
    detach(/*fold_into_parent=*/false);
    out.values() = std::move(frame->values);
    delete frame;
    frame_ = nullptr;
    return out;
}

RunScope::~RunScope() {
    if (!active_) return;
    auto* frame = static_cast<Frame*>(frame_);
    detach(/*fold_into_parent=*/true);
    delete frame;
}

}  // namespace adhoc::telemetry
