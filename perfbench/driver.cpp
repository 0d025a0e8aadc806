/// \file driver.cpp
/// \brief The repository benchmark: four seeded workloads timed end to end,
/// plus a traced run that times the calls into each module.
///
///   perfbench_driver --workload W --seed S --seconds T --trace 0|1
///                    [--jobs J] [--tiny]
///   perfbench_driver --anchor
///
/// Workloads (perfbench/README.md says why each was chosen):
///   scale_generic         warm ScaleEngine::run of generic FR (k = 2) on a
///                         10^5-node constant-density placement
///   scale_churn_recovery  cold engine + attach_faults + set_recovery + run
///                         + classify_outcome under crash 5% + link churn
///   traffic_saturation    TrafficEngine::run of the generic-fr policy at
///                         bench_saturation's full configuration, load 8.0
///   paper_fig15           run_campaign of the Fig. 15 set at d = 6 and 18
///
/// The untraced run (--trace 0) builds the workload's inputs, runs one
/// untimed warm-up op whose outputs are the reference, then repeats timed
/// ops for T seconds (timing one throwaway set-up and a fixed reference
/// kernel after each) and checks every op's outputs against the reference
/// and the workload's invariants.  setup_s and op_s are reported at the
/// reference kernel's nominal speed, so that the host's drift cancels.
/// The traced
/// run (--trace 1) compares traced and untraced ops of the named workload
/// for T seconds, then times the calls the driver makes into each module on
/// all four workloads' inputs.  Nothing inside src/ is instrumented beyond
/// the existing telemetry registry, which the traced ops switch on.
///
/// Output: one JSON document on stdout with `meta`, `rows` (the
/// {key, deterministic{}, timing{reps}} row format) and `result`
/// ({correct, attempted, failed, metrics}).  run.py adds the host metadata
/// and prints the result line.  --anchor reproduces the committed
/// bench_scale n = 10^4 generic_fr row and the bench_saturation smoke
/// generic-fr row at load 8.0 (seed 42) and prints their fields.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/dominant_pruning.hpp"
#include "algorithms/generic.hpp"
#include "algorithms/lenwb.hpp"
#include "core/coverage.hpp"
#include "core/priority.hpp"
#include "core/view.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_session.hpp"
#include "faults/outcome.hpp"
#include "faults/recovery.hpp"
#include "graph/khop.hpp"
#include "graph/unit_disk.hpp"
#include "io/cli.hpp"
#include "runner/campaign.hpp"
#include "runner/seed.hpp"
#include "sim/generic_protocol.hpp"
#include "sim/scale_engine.hpp"
#include "stats/rng.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/engine.hpp"
#include "traffic/policy.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace adhoc;
using Clock = std::chrono::steady_clock;

const char* const kWorkloads[] = {"scale_generic", "scale_churn_recovery",
                                  "traffic_saturation", "paper_fig15"};

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Peak resident set of this process image in MB (Linux VmHWM; unlike
/// ru_maxrss it does not carry over the parent's peak across exec).
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
        }
    }
    return 0.0;
}

std::string hex64(std::uint64_t x) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
    return buf;
}

std::string json_number(double x) {
    if (!std::isfinite(x)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

/// Insertion-ordered JSON object builder.
class JsonObject {
  public:
    JsonObject& num(const std::string& key, double value) {
        return raw(key, json_number(value));
    }
    JsonObject& str(const std::string& key, const std::string& value) {
        return raw(key, json_string(value));
    }
    JsonObject& raw(const std::string& key, const std::string& json) {
        body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
        return *this;
    }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string json_array(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i ? ", " : "") + json_number(values[i]);
    }
    return out + "]";
}

struct Options {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::size_t jobs = 1;
    bool tiny = false;    ///< self-test sizes (seconds, not minutes)
    bool anchor = false;  ///< reproduce the committed baseline rows
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One {key, deterministic{}, timing{reps}} row.
struct Row {
    JsonObject key;
    JsonObject deterministic;
    std::vector<std::pair<std::string, std::vector<double>>> timing;

    [[nodiscard]] std::string text() const {
        JsonObject t;
        for (const auto& [name, reps] : timing) {
            JsonObject entry;
            entry.raw("reps", json_array(reps));
            entry.num("min", reps.empty() ? 0.0 : *std::min_element(reps.begin(), reps.end()));
            entry.num("median", median(reps));
            t.raw(name, entry.text());
        }
        JsonObject row;
        row.raw("key", key.text()).raw("deterministic", deterministic.text()).raw("timing",
                                                                                  t.text());
        return row.text();
    }
};

/// Everything one driver invocation reports.
struct Report {
    std::vector<Row> rows;
    std::vector<Metric> metrics;  ///< the result line's metrics
    std::vector<Metric> extra;    ///< workload-specific end-to-end metrics (printed only)
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    /// Records one op's verdict; `what` names the first broken check.
    void op(const std::string& what) {
        ++attempted;
        if (!what.empty()) {
            ++failed;
            if (errors.size() < 20) errors.push_back(what);
        }
    }
    void add(std::vector<Metric>& into, const std::string& name, double value,
             const std::string& unit) {
        if (!std::isfinite(value)) errors.push_back("metric " + name + " is not finite");
        into.push_back({name, value, unit});
    }
};

/// The reference kernel's nominal time: end-to-end times are reported as if
/// one `reference_kernel_s` call took this long.
constexpr double kReferenceNominalS = 0.020;

/// Times a fixed CPU-bound kernel that calls nothing in src/: fill 2^16
/// 64-bit values with a splitmix64 finaliser and sort them, four times.
/// The host's CPU speed drifts by tens of percent over minutes on a shared
/// machine, and this kernel's time drifts with it: scaling each op by the
/// kernel's time right after it narrows the ten-seed spread of op_s
/// (perfbench/README.md, Noise).
double reference_kernel_s() {
    static std::vector<std::uint64_t> v(std::size_t{1} << 16);
    const auto t0 = Clock::now();
    for (std::uint64_t pass = 0; pass < 4; ++pass) {
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::uint64_t z = (i + pass) * 0x9e3779b97f4a7c15ULL;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            v[i] = z ^ (z >> 31);
        }
        std::sort(v.begin(), v.end());
    }
    const double s = since(t0);
    if (v.front() > v.back()) std::abort();  // keeps the sort observable
    return s;
}

/// One untraced run's wall times: per op, the op, a throwaway set-up built
/// after it, and the reference kernel timed after that.
struct Timed {
    std::vector<double> op;
    std::vector<double> setup;
    std::vector<double> reference;

    /// Wall time `walls[i]` at the reference speed: scaled by nominal over
    /// the reference kernel's time right after it.
    [[nodiscard]] double scaled(const std::vector<double>& walls, std::size_t i) const {
        return walls[i] * kReferenceNominalS / reference[i];
    }
    /// nominal / median reference time: below 1 when the host was slow.
    [[nodiscard]] double speed() const { return kReferenceNominalS / median(reference); }
};

/// Mean over `groups` interleaved inputs (op i is input i % groups) of each
/// input's median, of `value(i)`.  One group is the plain median.
double grouped_median(std::size_t count, std::size_t groups,
                      const std::function<double(std::size_t)>& value) {
    double mean = 0.0;
    for (std::size_t g = 0; g < groups; ++g) {
        std::vector<double> own;
        for (std::size_t i = g; i < count; i += groups) own.push_back(value(i));
        mean += median(own) / static_cast<double>(groups);
    }
    return mean;
}

/// Repeats `op` until `seconds` have elapsed and at least `min_reps` ran,
/// stopping only after a multiple of `step` calls.  After each op, untimed
/// by it, runs `setup` (which builds the inputs into a throwaway copy and
/// returns its set-up time, so the set-up median covers the same stretch of
/// time as the op median) and then the reference kernel.
Timed timed_loop(double seconds, std::size_t min_reps, const std::function<void()>& op,
                 const std::function<double()>& setup, std::size_t step = 1) {
    Timed t;
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    while (t.op.size() < min_reps || t.op.size() % step != 0 || Clock::now() < deadline) {
        const auto t0 = Clock::now();
        op();
        t.op.push_back(since(t0));
        t.setup.push_back(setup());
        t.reference.push_back(reference_kernel_s());
    }
    return t;
}

/// Runs `fn` with the telemetry registry on, inside a discarded run scope.
void with_telemetry(const std::function<void()>& fn) {
    telemetry::set_enabled(true);
    {
        telemetry::RunScope scope;
        fn();
        (void)scope.harvest();
    }
    telemetry::set_enabled(false);
}

std::uint64_t counter_total(const telemetry::Snapshot& snap, const std::string& name) {
    for (telemetry::MetricId id = 0; id < telemetry::metric_count(); ++id) {
        if (telemetry::metric(id).name == name) {
            return id < snap.values().size() ? snap.values()[id].sum : 0;
        }
    }
    return 0;
}

// ------------------------------------------------------------ placements --

/// bench_scale's constant-density placement (same formula: degree-6 range
/// over a 1000 x 1000 area), keeping the positions.
struct Placement {
    std::vector<Point2D> positions;
    Graph graph;
    NodeId source = 0;          ///< largest-component node nearest the centre
    std::size_t component = 0;  ///< nodes in the source's component
    double positions_s = 0.0;
    double unit_disk_s = 0.0;
};

std::unique_ptr<Placement> make_placement(std::uint64_t seed, std::size_t n,
                                          bool source_zero = false) {
    auto p = std::make_unique<Placement>();
    auto t0 = Clock::now();
    Rng rng(runner::splitmix64(seed ^ (0x5ca1eULL * n)));
    const double area = 1000.0;
    p->positions.resize(n);
    for (Point2D& q : p->positions) {
        q.x = rng.uniform(0.0, area);
        q.y = rng.uniform(0.0, area);
    }
    const double range =
        std::sqrt(6.0 * area * area / (3.14159265358979323846 * static_cast<double>(n)));
    p->positions_s = since(t0);
    t0 = Clock::now();
    p->graph = unit_disk_graph(p->positions, range);
    p->unit_disk_s = since(t0);

    // Component labels; the source is the node of the largest component
    // nearest the centre, so completion time and delivery do not hinge on
    // where node 0 happened to land.
    std::vector<std::uint32_t> label(n, UINT32_MAX);
    std::vector<std::size_t> sizes;
    std::vector<NodeId> stack;
    for (NodeId s = 0; s < n; ++s) {
        if (label[s] != UINT32_MAX) continue;
        const auto id = static_cast<std::uint32_t>(sizes.size());
        sizes.push_back(0);
        label[s] = id;
        stack.assign(1, s);
        while (!stack.empty()) {
            const NodeId v = stack.back();
            stack.pop_back();
            ++sizes[id];
            for (const NodeId w : p->graph.neighbors(v)) {
                if (label[w] == UINT32_MAX) {
                    label[w] = id;
                    stack.push_back(w);
                }
            }
        }
    }
    if (source_zero) {
        p->source = 0;
    } else {
        const auto big = static_cast<std::uint32_t>(
            std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
        double best = INFINITY;
        for (NodeId v = 0; v < n; ++v) {
            if (label[v] != big) continue;
            const double dx = p->positions[v].x - area / 2;
            const double dy = p->positions[v].y - area / 2;
            if (dx * dx + dy * dy < best) {
                best = dx * dx + dy * dy;
                p->source = v;
            }
        }
    }
    p->component = sizes[label[p->source]];
    return p;
}

ScaleConfig fr_scale_config(const Options& opts) {
    ScaleConfig cfg;
    cfg.jobs = opts.jobs;
    cfg.policy = ScalePolicy::kGenericCoverage;
    cfg.generic = generic_fr_config(2);
    cfg.view_mode = ScaleViewMode::kScratch;
    return cfg;
}

std::size_t scale_n(const Options& opts) { return opts.tiny ? 10'000 : 100'000; }

/// First differing field of two runs of the same broadcast, or "".
std::string diff_scale(const ScaleResult& a, const ScaleResult& b) {
    if (a.forward_count != b.forward_count) return "forward_count";
    if (a.received_count != b.received_count) return "received_count";
    if (a.delivered_events != b.delivered_events) return "delivered_events";
    if (a.windows != b.windows) return "windows";
    if (a.completion_time != b.completion_time) return "completion_time";
    if (a.order_digest != b.order_digest) return "order_digest";
    if (a.retransmit_count != b.retransmit_count) return "retransmit_count";
    if (a.control_count != b.control_count) return "control_count";
    if (a.fault_suppressed != b.fault_suppressed) return "fault_suppressed";
    return "";
}

void scale_deterministic(JsonObject& det, const Placement& p, const ScaleResult& r) {
    det.num("edges", static_cast<double>(p.graph.edge_count()))
        .num("source", p.source)
        .num("component", static_cast<double>(p.component))
        .num("forward_count", static_cast<double>(r.forward_count))
        .num("received_count", static_cast<double>(r.received_count))
        .num("delivered_events", static_cast<double>(r.delivered_events))
        .num("windows", static_cast<double>(r.windows))
        .num("peak_queue_events", static_cast<double>(r.peak_queue_events))
        .num("completion_time", r.completion_time)
        .str("order_digest", hex64(r.order_digest));
}

// --------------------------------------------------------- scale_generic --

struct ScaleGeneric {
    std::unique_ptr<Placement> place;
    std::unique_ptr<ScaleEngine> engine;
    ScaleResult ref;
    double ctor_s = 0.0;

    /// Builds the placement and the engine; returns the set-up time.
    double build(const Options& opts, std::size_t n) {
        const auto t0 = Clock::now();
        place = make_placement(opts.seed, n);
        const auto t1 = Clock::now();
        engine = std::make_unique<ScaleEngine>(place->graph, fr_scale_config(opts));
        ctor_s = since(t1);
        return since(t0);
    }

    void warm_up() { ref = engine->run(place->source); }

    [[nodiscard]] std::string check(const ScaleResult& r) const {
        if (r.received_count != place->component) return "scale_generic: delivery not component-exact";
        if (r.forward_count == 0 || r.forward_count > r.received_count) {
            return "scale_generic: forward count out of range";
        }
        const std::string d = diff_scale(r, ref);
        return d.empty() ? "" : "scale_generic: repeated run differs in " + d;
    }
};

// -------------------------------------------------- scale_churn_recovery --

faults::FaultSpec churn_spec() {
    faults::FaultSpec spec;
    spec.crash_rate = 0.05;
    spec.crash_window = 6.0;
    spec.link_churn_rate = 0.1;
    spec.churn_window = 8.0;
    return spec;
}

faults::RecoveryConfig churn_recovery() {
    faults::RecoveryConfig rec;
    rec.enabled = true;
    rec.nack_delay = 1.0;  // window-aligned (docs/SCALING.md)
    return rec;
}

/// Per-call wall times of one churn op.
struct ChurnSplit {
    double ctor_s = 0.0;
    double attach_s = 0.0;
    double run_s = 0.0;
    double classify_s = 0.0;
    double warm_run_s = 0.0;  ///< second run on the same engine (warm reruns only)
};

struct ChurnOutcome {
    ScaleResult result;
    faults::ResilienceSummary summary;
    ChurnSplit split;
    bool warm_matches = true;  ///< the warm rerun reproduced the cold run
};

struct ScaleChurn {
    std::unique_ptr<Placement> place;
    faults::FaultPlan plan;
    ChurnOutcome ref;
    double make_plan_s = 0.0;
    Options opts;

    /// Builds the placement and the fault plan; returns the set-up time.
    double build(const Options& o) {
        opts = o;
        // bench_scale --resilience's cell seed for crash 5% + churn.
        const std::uint64_t cell_tag = 50 * 2 + 1;
        const std::uint64_t cell_seed =
            runner::splitmix64(o.seed ^ (0xfa170a115ULL + cell_tag * 0x9e3779b97f4a7c15ULL));
        const auto t0 = Clock::now();
        place = make_placement(o.seed, scale_n(o));
        const auto t1 = Clock::now();
        plan = faults::make_fault_plan(churn_spec(), place->graph, place->source, cell_seed, 0);
        make_plan_s = since(t1);
        return since(t0);
    }

    void warm_up() { ref = op(); }

    /// One cold op, timed call by call; with `warm_rerun` the engine then
    /// runs the same broadcast a second time.
    ChurnOutcome op(bool warm_rerun = false) {
        ChurnOutcome out;
        auto t = Clock::now();
        const auto lap = [&t] {
            const double s = since(t);
            t = Clock::now();
            return s;
        };
        ScaleEngine engine(place->graph, fr_scale_config(opts));
        out.split.ctor_s = lap();
        engine.attach_faults(&plan);
        engine.set_recovery(churn_recovery());
        out.split.attach_s = lap();
        out.result = engine.run(place->source);
        out.split.run_s = lap();
        out.summary =
            faults::classify_outcome(place->graph, place->source, engine.received_mask(), plan);
        out.split.classify_s = lap();
        if (warm_rerun) {
            const ScaleResult warm = engine.run(place->source);
            out.split.warm_run_s = lap();
            out.warm_matches = diff_scale(warm, out.result).empty();
        }
        return out;
    }

    [[nodiscard]] std::string check(const ChurnOutcome& o) const {
        const ScaleResult& r = o.result;
        if (!o.warm_matches) return "scale_churn_recovery: warm rerun differs";
        if (o.summary.delivery_ratio < 0.0 || o.summary.delivery_ratio > 1.0) {
            return "scale_churn_recovery: delivery ratio out of range";
        }
        if (r.received_count > place->graph.node_count() || r.forward_count > r.received_count) {
            return "scale_churn_recovery: counts out of range";
        }
        if (r.down.size() != place->graph.node_count()) {
            return "scale_churn_recovery: faulted run reported no down mask";
        }
        const std::string d = diff_scale(r, ref.result);
        if (!d.empty()) return "scale_churn_recovery: repeated run differs in " + d;
        if (o.summary.delivered_up != ref.summary.delivered_up ||
            o.summary.outcome != ref.summary.outcome) {
            return "scale_churn_recovery: repeated classification differs";
        }
        return "";
    }
};

// ---------------------------------------------------- traffic_saturation --

/// bench_saturation's per-run inputs (same seed derivation), for one cell.
struct TrafficInput {
    UnitDiskNetwork net;
    traffic::Workload workload;
    faults::FaultPlan plan;
    std::unique_ptr<traffic::ForwardPolicy> policy;
    Rng algo_rng;  ///< the generic-fr fork (third of bench_saturation's four)
};

struct TrafficShape {
    std::size_t nodes = 60;
    /// bench_saturation runs max(runs / 40, 4) networks per cell; 20 is its
    /// `--runs 800` cell (the first 5 are its default cell).  Twenty small
    /// networks keep seed-to-seed input variation well inside the bounds.
    std::size_t runs = 20;
    std::size_t sessions = 1000;
    std::size_t cell_tag = 4;  ///< load 8.0 is the fifth cell of the full sweep
    double load = 8.0;
};

TrafficShape traffic_shape(const Options& opts) {
    // --tiny is bench_saturation --smoke: n = 24, 2 runs x 550 sessions,
    // load 8.0 as its second cell.
    return opts.tiny ? TrafficShape{24, 2, 550, 1, 8.0} : TrafficShape{};
}

std::string diff_traffic(const traffic::TrafficResult& a, const traffic::TrafficResult& b) {
    if (a.delivered != b.delivered || a.degraded != b.degraded ||
        a.partitioned != b.partitioned) {
        return "outcomes";
    }
    if (a.data_transmissions != b.data_transmissions) return "data_tx";
    if (a.fresh_deliveries != b.fresh_deliveries) return "fresh_deliveries";
    if (a.duplicates_suppressed != b.duplicates_suppressed) return "duplicates";
    if (a.sv_beacons != b.sv_beacons || a.pulls_sent != b.pulls_sent ||
        a.repairs_served != b.repairs_served) {
        return "recovery counters";
    }
    if (a.completion_time != b.completion_time) return "completion_time";
    return "";
}

struct TrafficSaturation {
    TrafficShape shape;
    std::vector<TrafficInput> inputs;
    std::vector<traffic::TrafficResult> ref;
    double policy_build_s = 0.0;
    double workload_s = 0.0;

    /// Builds every run's network, workload, plan and policy; returns the
    /// set-up time.
    double build(const Options& opts) {
        shape = traffic_shape(opts);
        const std::uint64_t cell_seed =
            opts.seed ^ runner::splitmix64(0x5a70a71049ULL + shape.cell_tag);
        const double degree = 6.0;
        const auto t0 = Clock::now();
        for (std::size_t run = 0; run < shape.runs; ++run) {
            Rng rng(runner::derive_run_seed(cell_seed, shape.nodes, degree, run));
            UnitDiskParams params;
            params.node_count = shape.nodes;
            params.average_degree = degree;
            TrafficInput in{generate_network_checked(params, rng), {}, {}, nullptr, Rng{}};
            auto t = Clock::now();
            traffic::TrafficConfig tc;
            tc.sessions = shape.sessions;
            tc.rate = shape.load;
            in.workload = traffic::make_workload(tc, shape.nodes, cell_seed, run);
            workload_s += since(t);
            faults::FaultSpec spec;
            spec.crash_rate = 0.15;
            spec.crash_window = in.workload.horizon * 0.8;
            spec.recover_probability = 0.7;
            spec.link_churn_rate = 0.2;
            spec.churn_window = in.workload.horizon * 0.8;
            spec.protect_source = false;
            in.plan = faults::make_fault_plan(spec, in.net.graph, 0, cell_seed, run);
            t = Clock::now();
            in.policy = traffic::make_policy(in.net.graph, "generic-fr");
            policy_build_s += since(t);
            (void)rng.fork();  // flooding
            (void)rng.fork();  // generic-static
            in.algo_rng = rng.fork();
            inputs.push_back(std::move(in));
        }
        return since(t0);
    }

    /// The first run of input 0; each input's first result is its
    /// reference.
    void warm_up() { (void)check(0, op(0)); }

    traffic::TrafficResult op(std::size_t k) {
        TrafficInput& in = inputs[k];
        traffic::TrafficEngine engine(in.net.graph, *in.policy);
        engine.attach_faults(&in.plan);
        Rng rng = in.algo_rng;
        return engine.run(in.workload, rng);
    }

    /// Checks one result; the first result of each input becomes its
    /// reference, later ones must reproduce it.
    std::string check(std::size_t k, traffic::TrafficResult r) {
        if (ref.size() < inputs.size()) ref.resize(inputs.size());
        if (r.sessions.size() != shape.sessions ||
            r.delivered + r.degraded + r.partitioned != r.sessions.size()) {
            return "traffic_saturation: unclassified sessions";
        }
        if (r.cache_peak_bytes > r.cache_ceiling_bytes) {
            return "traffic_saturation: duplicate cache exceeded its ceiling";
        }
        if (ref[k].sessions.empty()) {
            ref[k] = std::move(r);
            return "";
        }
        const std::string d = diff_traffic(r, ref[k]);
        return d.empty() ? "" : "traffic_saturation: repeated run differs in " + d;
    }

    /// Runs every input once (recording references); returns the op times.
    std::vector<double> cycle(Report& rep, bool traced) {
        std::vector<double> times;
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            traffic::TrafficResult r;
            const auto t0 = Clock::now();
            if (traced) {
                with_telemetry([&] { r = op(k); });
            } else {
                r = op(k);
            }
            times.push_back(since(t0));
            rep.op(check(k, std::move(r)));
        }
        return times;
    }

    /// Sums over the references (one run per input).
    struct Totals {
        double sessions = 0, delivered = 0, degraded = 0, partitioned = 0, data_tx = 0,
               fresh = 0, duplicates = 0, beacons = 0, pulls = 0, repairs = 0, evictions = 0,
               slides = 0, bytes = 0, completion = 0, cache_peak = 0, reachable = 0, missed = 0;
        std::uint64_t latency_max = 0;
        std::vector<std::uint64_t> hist;
        std::vector<double> latencies;  ///< delivered sessions, exact
    };
    [[nodiscard]] Totals totals() const {
        Totals t;
        for (const traffic::TrafficResult& r : ref) {
            t.sessions += static_cast<double>(r.sessions.size());
            t.delivered += static_cast<double>(r.delivered);
            t.degraded += static_cast<double>(r.degraded);
            t.partitioned += static_cast<double>(r.partitioned);
            t.data_tx += static_cast<double>(r.data_transmissions);
            t.fresh += static_cast<double>(r.fresh_deliveries);
            t.duplicates += static_cast<double>(r.duplicates_suppressed);
            t.beacons += static_cast<double>(r.sv_beacons);
            t.pulls += static_cast<double>(r.pulls_sent);
            t.repairs += static_cast<double>(r.repairs_served);
            t.evictions += static_cast<double>(r.cache_evictions);
            t.slides += static_cast<double>(r.window_slides);
            t.bytes += static_cast<double>(r.data_bytes + r.control_bytes);
            t.completion += r.completion_time;
            t.cache_peak = std::max(t.cache_peak, static_cast<double>(r.cache_peak_bytes));
            if (t.hist.empty()) t.hist.assign(r.latency_hist.size(), 0);
            for (std::size_t i = 0; i < r.latency_hist.size(); ++i) t.hist[i] += r.latency_hist[i];
            for (const traffic::SessionOutcome& s : r.sessions) {
                t.reachable += static_cast<double>(s.reachable_count);
                t.missed += static_cast<double>(s.missed_reachable);
                if (s.last_delivery > s.start_time) {
                    t.latency_max = std::max(
                        t.latency_max,
                        static_cast<std::uint64_t>(std::ceil(s.last_delivery - s.start_time)));
                }
                if (s.outcome == faults::DeliveryOutcome::kDelivered) {
                    t.latencies.push_back(s.last_delivery - s.start_time);
                }
            }
        }
        std::sort(t.latencies.begin(), t.latencies.end());
        return t;
    }
};

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// ------------------------------------------------------------ paper_fig15 --

struct Fig15 {
    DominantPruningAlgorithm dp{DominantPruningVariant::kDp};
    DominantPruningAlgorithm pdp{DominantPruningVariant::kPdp};
    LenwbAlgorithm lenwb{LenwbConfig{.hops = 2}};
    GenericBroadcast generic{generic_fr_config(2, PriorityScheme::kDegree), "Generic"};
    std::vector<const BroadcastAlgorithm*> algos{&dp, &pdp, &lenwb, &generic};
    std::vector<ExperimentConfig> configs;  ///< d = 6, d = 18
    std::vector<std::vector<AlgorithmSeries>> ref;
    std::size_t runs_per_cell = 0;
    std::size_t probe_failures = 0;
    std::size_t jobs = 1;

    /// Builds both sweep configurations and, per cell, generates the
    /// campaign's run-0 topology and runs each algorithm on it once: the
    /// cell regime is checked feasible and per-thread scratch is warm
    /// before the first timed campaign.  Returns the set-up time.
    double build(const Options& opts) {
        runs_per_cell = opts.tiny ? 2 : 6;
        jobs = opts.jobs;
        const auto t0 = Clock::now();
        for (const double d : {6.0, 18.0}) {
            ExperimentConfig cfg;
            if (opts.tiny) cfg.node_counts = {20, 30};
            cfg.average_degree = d;
            cfg.min_runs = cfg.max_runs = runs_per_cell;
            cfg.seed = opts.seed;
            cfg.jobs = opts.jobs;
            configs.push_back(cfg);
            for (const std::size_t n : cfg.node_counts) {
                Rng rng(runner::derive_run_seed(cfg.seed, n, d, 0));
                UnitDiskParams params;
                params.node_count = n;
                params.average_degree = d;
                params.area_side = cfg.area_side;
                const UnitDiskNetwork net = generate_network_checked(params, rng);
                const auto source = static_cast<NodeId>(rng.index(n));
                for (const BroadcastAlgorithm* a : algos) {
                    Rng algo_rng = rng.fork();
                    if (!a->broadcast(net.graph, source, algo_rng).full_delivery) {
                        ++probe_failures;
                    }
                }
            }
        }
        return since(t0);
    }

    void warm_up() { ref = op(nullptr); }

    std::vector<std::vector<AlgorithmSeries>> op(telemetry::Snapshot* metrics) {
        std::vector<std::vector<AlgorithmSeries>> out;
        for (const ExperimentConfig& cfg : configs) {
            runner::CampaignOptions campaign;
            campaign.jobs = jobs;
            telemetry::Snapshot snap;
            if (metrics) campaign.telemetry_out = &snap;
            out.push_back(runner::run_campaign(algos, cfg, campaign));
            if (metrics) metrics->merge(snap);
        }
        return out;
    }

    [[nodiscard]] std::string check(const std::vector<std::vector<AlgorithmSeries>>& got) const {
        if (probe_failures != 0) return "paper_fig15: a set-up probe broadcast missed nodes";
        if (got.size() != ref.size()) return "paper_fig15: panel count differs";
        double generic_total = 0.0;
        double dp_total = 0.0;
        for (std::size_t p = 0; p < got.size(); ++p) {
            if (got[p].size() != algos.size()) return "paper_fig15: series count differs";
            for (std::size_t a = 0; a < got[p].size(); ++a) {
                const auto& pts = got[p][a].points;
                const auto& want = ref[p][a].points;
                if (pts.size() != configs[p].node_counts.size() || pts.size() != want.size()) {
                    return "paper_fig15: cell count differs";
                }
                for (std::size_t i = 0; i < pts.size(); ++i) {
                    if (pts[i].delivery_failures != 0) {
                        return "paper_fig15: " + got[p][a].name + " failed delivery";
                    }
                    if (pts[i].runs != runs_per_cell) return "paper_fig15: run count differs";
                    if (pts[i].mean_forward != want[i].mean_forward ||
                        pts[i].mean_completion_time != want[i].mean_completion_time) {
                        return "paper_fig15: repeated campaign differs";
                    }
                    if (a == 0) dp_total += pts[i].mean_forward;
                    if (a == 3) generic_total += pts[i].mean_forward;
                }
            }
        }
        // The paper's Fig. 15 ordering at the ends: Generic FR needs no
        // more forward nodes than DP over the sweep.
        if (generic_total > dp_total) return "paper_fig15: Generic FR forwards more than DP";
        return "";
    }

    /// Generic FR's share of nodes forwarding and mean completion time
    /// over every cell (all cells run `runs_per_cell` broadcasts).
    void generic_means(double& forward_ratio, double& completion, double& runs) const {
        double fwd = 0.0;
        double nodes = 0.0;
        double comp = 0.0;
        double cells = 0.0;
        runs = 0.0;
        for (const auto& panel : ref) {
            for (const AlgorithmSeries& s : panel) {
                for (const SeriesPoint& p : s.points) runs += static_cast<double>(p.runs);
            }
            for (const SeriesPoint& p : panel[3].points) {
                fwd += p.mean_forward;
                nodes += static_cast<double>(p.node_count);
                comp += p.mean_completion_time;
                cells += 1.0;
            }
        }
        forward_ratio = fwd / nodes;
        completion = comp / cells;
    }
};

// -------------------------------------------------------- untraced runs --

/// Reports setup_s and op_s at the reference speed, each the median of its
/// scaled walls, so that the host's drift cancels; with `groups` > 1 op_s
/// is the mean of the inputs' medians.  Prints the wall medians and the
/// host speed beside them.  Returns op_s.  The rows keep every wall time,
/// the reference kernel's included.
double finish_e2e(Report& rep, Row& row, const Timed& timed, std::size_t groups = 1) {
    row.timing.push_back({"setup_s", timed.setup});
    row.timing.push_back({"op_s", timed.op});
    row.timing.push_back({"reference_s", timed.reference});
    const std::size_t count = timed.op.size();
    const double op_s =
        grouped_median(count, groups, [&](std::size_t i) { return timed.scaled(timed.op, i); });
    rep.add(rep.metrics, "setup_s",
            grouped_median(count, 1, [&](std::size_t i) { return timed.scaled(timed.setup, i); }),
            "s");
    rep.add(rep.metrics, "op_s", op_s, "s");
    rep.add(rep.extra, "wall_setup_s", median(timed.setup), "s");
    rep.add(rep.extra, "wall_op_s",
            grouped_median(count, groups, [&](std::size_t i) { return timed.op[i]; }), "s");
    rep.add(rep.extra, "host_speed", timed.speed(), "ratio");
    return op_s;
}

void run_scale_generic(const Options& opts, Report& rep) {
    ScaleGeneric w;
    w.build(opts, scale_n(opts));
    w.warm_up();
    // Peak after set-up and one op; later throwaway set-ups are not counted.
    const double rss_mb = peak_rss_mb();
    const Timed timed = timed_loop(
        opts.seconds, 3, [&] { rep.op(w.check(w.engine->run(w.place->source))); },
        [&] { return ScaleGeneric{}.build(opts, scale_n(opts)); });
    const ScaleResult& r = w.ref;
    Row row;
    row.key.str("workload", "scale_generic").num("n", scale_n(opts)).num("seed", opts.seed);
    scale_deterministic(row.deterministic, *w.place, r);
    const double op_s = finish_e2e(rep, row, timed);
    rep.add(rep.metrics, "peak_rss_mb", rss_mb, "MB");
    rep.add(rep.metrics, "forward_ratio",
            static_cast<double>(r.forward_count) / static_cast<double>(r.received_count),
            "ratio");
    rep.add(rep.metrics, "delivery_ratio",
            static_cast<double>(r.received_count) / static_cast<double>(w.place->component),
            "ratio");
    rep.add(rep.metrics, "completion_t", r.completion_time, "t");
    rep.add(rep.extra, "events_per_s", static_cast<double>(r.delivered_events) / op_s, "1/s");
    rep.rows.push_back(std::move(row));
}

void run_scale_churn(const Options& opts, Report& rep) {
    ScaleChurn w;
    w.build(opts);
    w.warm_up();
    const double rss_mb = peak_rss_mb();
    const Timed timed = timed_loop(
        opts.seconds, 3, [&] { rep.op(w.check(w.op())); },
        [&] { return ScaleChurn{}.build(opts); });
    const ScaleResult& r = w.ref.result;
    const auto n = static_cast<double>(w.place->graph.node_count());
    Row row;
    row.key.str("workload", "scale_churn_recovery").num("n", n).num("seed", opts.seed);
    scale_deterministic(row.deterministic, *w.place, r);
    row.deterministic.num("fault_events", static_cast<double>(w.plan.events.size()))
        .num("retransmits", static_cast<double>(r.retransmit_count))
        .num("controls", static_cast<double>(r.control_count))
        .num("fault_suppressed", static_cast<double>(r.fault_suppressed))
        .str("outcome", faults::to_string(w.ref.summary.outcome))
        .num("delivery_ratio", w.ref.summary.delivery_ratio);
    const double op_s = finish_e2e(rep, row, timed);
    rep.add(rep.metrics, "peak_rss_mb", rss_mb, "MB");
    rep.add(rep.metrics, "forward_ratio",
            static_cast<double>(r.forward_count) / static_cast<double>(r.received_count),
            "ratio");
    rep.add(rep.metrics, "delivery_ratio", w.ref.summary.delivery_ratio, "ratio");
    rep.add(rep.metrics, "completion_t", r.completion_time, "t");
    rep.add(rep.extra, "events_per_s", static_cast<double>(r.delivered_events) / op_s, "1/s");
    rep.add(rep.extra, "recovery_msgs_per_node",
            static_cast<double>(r.retransmit_count + r.control_count) / n, "count");
    rep.rows.push_back(std::move(row));
}

void run_traffic(const Options& opts, Report& rep) {
    TrafficSaturation w;
    w.build(opts);
    w.warm_up();
    const double rss_mb = peak_rss_mb();
    const std::size_t k_inputs = w.inputs.size();
    std::size_t next = 0;
    // Whole cycles only, so every input is timed equally often.
    const Timed timed = timed_loop(
        opts.seconds, k_inputs,
        [&] {
            const std::size_t k = next++ % k_inputs;
            rep.op(w.check(k, w.op(k)));
        },
        [&] { return TrafficSaturation{}.build(opts); }, k_inputs);
    const TrafficSaturation::Totals t = w.totals();
    const double runs = static_cast<double>(k_inputs);
    const double bytes_per_node = t.bytes / (runs * static_cast<double>(w.shape.nodes));
    Row row;
    row.key.str("workload", "traffic_saturation")
        .num("n", w.shape.nodes)
        .num("runs", k_inputs)
        .num("sessions_per_run", w.shape.sessions)
        .num("load", w.shape.load)
        .num("seed", opts.seed);
    row.deterministic.num("delivered", t.delivered)
        .num("degraded", t.degraded)
        .num("partitioned", t.partitioned)
        .num("data_tx", t.data_tx)
        .num("fresh_deliveries", t.fresh)
        .num("duplicates", t.duplicates)
        .num("sv_beacons", t.beacons)
        .num("pulls", t.pulls)
        .num("repairs", t.repairs)
        .num("cache_peak_bytes", t.cache_peak)
        .num("throughput", t.delivered / t.completion)
        .num("latency_p95_bucket",
             static_cast<double>(telemetry::histogram_quantile(traffic::latency_bounds(), t.hist,
                                                               t.latency_max, 0.95)))
        .num("bytes_per_node", bytes_per_node);
    // Mean over the cell's networks of each network's median op time.  The
    // networks' costs differ by up to 1.5x in clusters, and a plain median
    // over all ops jumps between clusters when the host's speed drifts.
    const double op_s = finish_e2e(rep, row, timed, k_inputs);
    rep.add(rep.metrics, "peak_rss_mb", rss_mb, "MB");
    rep.add(rep.metrics, "forward_ratio", t.data_tx / t.fresh, "ratio");
    // Reachability-aware, like faults::classify_outcome: copies held by
    // the up nodes a session's source could still reach at the end.
    rep.add(rep.metrics, "delivery_ratio", 1.0 - t.missed / t.reachable, "ratio");
    rep.add(rep.metrics, "completion_t", t.completion / runs, "t");
    rep.add(rep.extra, "events_per_s", (t.fresh + t.duplicates) / runs / op_s, "1/s");
    rep.add(rep.extra, "bytes_per_node", bytes_per_node, "B");
    rep.add(rep.extra, "session_latency_p95_t", percentile(t.latencies, 0.95), "t");
    rep.add(rep.extra, "session_throughput", t.delivered / t.completion, "1/t");
    rep.rows.push_back(std::move(row));
}

void run_fig15(const Options& opts, Report& rep) {
    Fig15 w;
    w.build(opts);
    w.warm_up();
    const double rss_mb = peak_rss_mb();
    const Timed timed = timed_loop(
        opts.seconds, 3, [&] { rep.op(w.check(w.op(nullptr))); },
        [&] { return Fig15{}.build(opts); });
    double forward_ratio = 0.0;
    double completion = 0.0;
    double runs = 0.0;
    w.generic_means(forward_ratio, completion, runs);
    Row row;
    row.key.str("workload", "paper_fig15")
        .num("runs_per_cell", w.runs_per_cell)
        .num("cells", static_cast<double>(w.configs[0].node_counts.size() * w.configs.size()))
        .num("seed", opts.seed);
    for (std::size_t p = 0; p < w.ref.size(); ++p) {
        for (const AlgorithmSeries& s : w.ref[p]) {
            std::vector<double> means;
            for (const SeriesPoint& pt : s.points) means.push_back(pt.mean_forward);
            row.deterministic.raw(s.name + "@d=" + (p == 0 ? "6" : "18"), json_array(means));
        }
    }
    finish_e2e(rep, row, timed);
    rep.add(rep.metrics, "peak_rss_mb", rss_mb, "MB");
    rep.add(rep.metrics, "forward_ratio", forward_ratio, "ratio");
    rep.add(rep.metrics, "delivery_ratio", 1.0, "ratio");  // check() fails any miss
    rep.add(rep.metrics, "completion_t", completion, "t");
    rep.rows.push_back(std::move(row));
}

// ----------------------------------------------------------- traced run --

/// Traced-vs-untraced op times of the named workload, alternating, for
/// `seconds`.  Returns traced median / untraced median.
double trace_overhead(const std::string& name, const Options& opts, Report& rep) {
    const auto maybe_traced = [](bool traced, const std::function<void()>& fn) {
        traced ? with_telemetry(fn) : fn();
    };
    std::function<void(bool, std::size_t)> op;  // (traced, pair index)
    ScaleGeneric sg;
    ScaleChurn sc;
    TrafficSaturation ts;
    Fig15 f15;
    if (name == "scale_generic") {
        sg.build(opts, scale_n(opts));
        sg.warm_up();
        op = [&](bool traced, std::size_t) {
            ScaleResult r;
            maybe_traced(traced, [&] { r = sg.engine->run(sg.place->source); });
            rep.op(sg.check(r));
        };
    } else if (name == "scale_churn_recovery") {
        sc.build(opts);
        sc.warm_up();
        op = [&](bool traced, std::size_t) {
            ChurnOutcome o;
            maybe_traced(traced, [&] { o = sc.op(); });
            rep.op(sc.check(o));
        };
    } else if (name == "traffic_saturation") {
        ts.build(opts);
        ts.warm_up();
        op = [&](bool traced, std::size_t i) {
            // Both sides of a pair run the same input.
            const std::size_t k = i % ts.inputs.size();
            traffic::TrafficResult r;
            maybe_traced(traced, [&] { r = ts.op(k); });
            rep.op(ts.check(k, std::move(r)));
        };
    } else {
        f15.build(opts);
        f15.warm_up();
        op = [&](bool traced, std::size_t) {
            // Traced campaigns also harvest the per-run telemetry snapshots.
            std::vector<std::vector<AlgorithmSeries>> got;
            telemetry::Snapshot snap;
            maybe_traced(traced, [&] { got = f15.op(traced ? &snap : nullptr); });
            rep.op(f15.check(got));
        };
    }
    std::vector<double> plain;
    std::vector<double> traced;
    const auto deadline = Clock::now() + std::chrono::duration<double>(opts.seconds);
    for (std::size_t i = 0; plain.size() < 3 || Clock::now() < deadline; ++i) {
        const bool traced_first = i % 2 == 1;  // alternate which side goes first
        for (const bool t : {traced_first, !traced_first}) {
            const auto t0 = Clock::now();
            op(t, i);
            (t ? traced : plain).push_back(since(t0));
        }
    }
    Row row;
    row.key.str("workload", name).str("mode", "trace_overhead").num("seed", opts.seed);
    row.timing.push_back({"untraced_op_s", plain});
    row.timing.push_back({"traced_op_s", traced});
    rep.rows.push_back(std::move(row));
    return median(traced) / median(plain);
}

/// Times `fn` `reps` times and returns the median in microseconds.
double median_us(std::size_t reps, const std::function<void()>& fn) {
    std::vector<double> t;
    for (std::size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(since(t0) * 1e6);
    }
    return median(t);
}

void trace_scale(const Options& opts, Report& rep) {
    ScaleGeneric w;
    w.build(opts, scale_n(opts));
    w.warm_up();
    const Placement& p = *w.place;
    std::vector<double> runs;
    ScaleResult r;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        with_telemetry([&] { r = w.engine->run(p.source); });
        runs.push_back(since(t0));
        rep.op(w.check(r));
    }
    const double run_s = median(runs);
    const double decisions = static_cast<double>(r.received_count - 1);
    const auto n = static_cast<double>(p.graph.node_count());

    // Core-layer replay: local_topology + compile_topology, then
    // evaluate_coverage, on a seeded sample of the op's deciding nodes.
    std::vector<NodeId> deciding;
    const std::vector<char>& received = w.engine->received_mask();
    for (NodeId v = 0; v < received.size(); ++v) {
        if (received[v] && v != p.source) deciding.push_back(v);
    }
    Rng pick(runner::splitmix64(opts.seed ^ 0xc07eULL));
    const std::size_t samples = 64;  // each LocalTopology is O(n)
    const PriorityKeys keys(p.graph, fr_scale_config(opts).generic.priority);
    const std::vector<NodeStatus> status(p.graph.node_count(), NodeStatus::kUnvisited);
    CoverageOptions cov;
    std::vector<double> compile_ns;
    std::vector<double> coverage_ns;
    std::size_t covered = 0;
    for (std::size_t i = 0; i < samples && !deciding.empty(); ++i) {
        const NodeId v = deciding[pick.index(deciding.size())];
        auto t0 = Clock::now();
        LocalTopology topo = local_topology(p.graph, v, 2);
        compile_topology(topo);
        compile_ns.push_back(since(t0) * 1e9);
        t0 = Clock::now();
        const View view(&topo, &status, &keys);
        covered += evaluate_coverage(view, v, cov).covered ? 1 : 0;
        coverage_ns.push_back(since(t0) * 1e9);
    }

    // Super-linear guard: op_s at n over op_s at n/2.
    ScaleGeneric half;
    half.build(opts, scale_n(opts) / 2);
    half.warm_up();
    std::vector<double> half_runs;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        const ScaleResult hr = half.engine->run(half.place->source);
        half_runs.push_back(since(t0));
        rep.op(half.check(hr));
    }

    Row row;
    row.key.str("workload", "scale_generic").str("mode", "layers").num("seed", opts.seed);
    row.deterministic.num("core_samples", static_cast<double>(compile_ns.size()))
        .num("core_covered", static_cast<double>(covered));
    row.timing.push_back({"run_s", runs});
    row.timing.push_back({"half_n_run_s", half_runs});
    row.timing.push_back({"core_view_compile_ns", compile_ns});
    row.timing.push_back({"core_coverage_ns", coverage_ns});
    rep.rows.push_back(std::move(row));

    auto& m = rep.metrics;
    rep.add(m, "graph.unit_disk_s", p.unit_disk_s, "s");
    rep.add(m, "sim.scale_ctor_s", w.ctor_s, "s");
    rep.add(m, "sim.scale_run_s", run_s, "s");
    rep.add(m, "sim.scale_ns_per_decision", run_s * 1e9 / decisions, "ns");
    rep.add(m, "sim.scale_windows", static_cast<double>(r.windows), "count");
    rep.add(m, "sim.scale_decisions", decisions, "count");
    rep.add(m, "sim.scale_delivered_events", static_cast<double>(r.delivered_events), "count");
    rep.add(m, "sim.scale_state_bytes_per_node",
            static_cast<double>(w.engine->state_bytes()) / n, "B");
    rep.add(m, "sim.scale_peak_queue_events", static_cast<double>(r.peak_queue_events), "count");
    rep.add(m, "sim.scale_events_per_s", static_cast<double>(r.delivered_events) / run_s, "1/s");
    rep.add(m, "sim.scale_n_doubling", run_s / median(half_runs), "ratio");
    rep.add(m, "core.view_compile_ns", median(compile_ns), "ns");
    rep.add(m, "core.coverage_ns", median(coverage_ns), "ns");
}

void trace_churn(const Options& opts, Report& rep) {
    ScaleChurn w;
    w.build(opts);
    w.warm_up();
    ChurnOutcome o;
    with_telemetry([&] { o = w.op(/*warm_rerun=*/true); });
    const ChurnSplit& split = o.split;
    rep.op(w.check(o));
    const Placement& p = *w.place;
    const auto n = static_cast<double>(p.graph.node_count());

    // FaultSession replay: reset, apply the plan's events in order, and at
    // up to 2048 points between events query a seeded batch of edges.
    const std::vector<Edge> edges = p.graph.edges();
    Rng pick(runner::splitmix64(opts.seed ^ 0xfa075ULL));
    faults::FaultSession session;
    session.reset(w.plan, p.graph.node_count());
    const std::size_t stride = std::max<std::size_t>(1, w.plan.events.size() / 2048);
    constexpr std::size_t kBatch = 16;
    double link_up_s = 0.0;
    double drop_s = 0.0;
    double queries = 0.0;
    double down_sum = 0.0;
    double samples = 0.0;
    std::size_t up_links = 0;
    std::size_t dropped = 0;
    std::vector<Edge> batch(kBatch);
    for (std::size_t i = 0; i < w.plan.events.size(); ++i) {
        session.apply(w.plan.events[i]);
        if (i % stride != 0 || edges.empty()) continue;
        for (Edge& e : batch) e = edges[pick.index(edges.size())];
        auto t0 = Clock::now();
        for (const Edge& e : batch) up_links += session.link_up(e.a, e.b) ? 1 : 0;
        link_up_s += since(t0);
        t0 = Clock::now();
        for (const Edge& e : batch) dropped += session.drop_directed(e.a, e.b) ? 1 : 0;
        drop_s += since(t0);
        queries += kBatch;
        down_sum += static_cast<double>(session.down_links().size());
        samples += 1.0;
    }

    Row row;
    row.key.str("workload", "scale_churn_recovery").str("mode", "layers").num("seed", opts.seed);
    row.deterministic.num("session_queries", queries)
        .num("links_up", static_cast<double>(up_links))
        .num("drops", static_cast<double>(dropped));
    row.timing.push_back({"ctor_s", {split.ctor_s}});
    row.timing.push_back({"attach_s", {split.attach_s}});
    row.timing.push_back({"cold_run_s", {split.run_s}});
    row.timing.push_back({"classify_s", {split.classify_s}});
    row.timing.push_back({"warm_run_s", {split.warm_run_s}});
    rep.rows.push_back(std::move(row));

    const ScaleResult& r = o.result;
    auto& m = rep.metrics;
    rep.add(m, "faults.make_plan_s", w.make_plan_s, "s");
    rep.add(m, "faults.attach_s", split.attach_s, "s");
    rep.add(m, "faults.classify_s", split.classify_s, "s");
    rep.add(m, "faults.link_up_ns", queries > 0 ? link_up_s * 1e9 / queries : 0.0, "ns");
    rep.add(m, "faults.drop_directed_ns", queries > 0 ? drop_s * 1e9 / queries : 0.0, "ns");
    rep.add(m, "faults.down_links_mean", samples > 0 ? down_sum / samples : 0.0, "count");
    rep.add(m, "faults.recovery_msgs_per_node",
            static_cast<double>(r.retransmit_count + r.control_count) / n, "count");
    rep.add(m, "sim.scale_cold_run_s", split.run_s, "s");
    rep.add(m, "sim.scale_warm_run_s", split.warm_run_s, "s");
    rep.add(m, "sim.scale_cold_over_warm", split.run_s / split.warm_run_s, "ratio");
    rep.add(m, "sim.scale_retransmits", static_cast<double>(r.retransmit_count), "count");
    rep.add(m, "sim.scale_controls", static_cast<double>(r.control_count), "count");
    rep.add(m, "sim.scale_fault_suppressed", static_cast<double>(r.fault_suppressed), "count");
    rep.add(m, "sim.scale_churn_events_per_s", static_cast<double>(r.delivered_events) / split.run_s,
            "1/s");
}

void trace_traffic(const Options& opts, Report& rep) {
    TrafficSaturation w;
    w.build(opts);
    w.warm_up();
    const std::vector<double> runs = w.cycle(rep, /*traced=*/true);
    // Decision replay: should_forward on input 0 with a seeded history of
    // (sender's sender, sender) pairs, timed in batches.
    const TrafficInput& in = w.inputs[0];
    const Graph& g = in.net.graph;
    Rng pick(runner::splitmix64(opts.seed ^ 0x7aff1cULL));
    constexpr std::size_t kBatch = 1000;
    std::vector<std::pair<NodeId, std::array<NodeId, 2>>> calls(kBatch);
    std::vector<double> batch_ns;
    std::size_t forwards = 0;
    for (int b = 0; b < 20; ++b) {
        for (auto& [v, hist] : calls) {
            v = static_cast<NodeId>(pick.index(g.node_count()));
            const auto nv = g.neighbors(v);
            const NodeId u = nv.empty() ? v : nv[pick.index(nv.size())];
            const auto nu = g.neighbors(u);
            hist = {nu.empty() ? u : nu[pick.index(nu.size())], u};
        }
        const auto t0 = Clock::now();
        for (const auto& [v, hist] : calls) {
            forwards += in.policy->should_forward(v, std::span<const NodeId>(hist)) ? 1 : 0;
        }
        batch_ns.push_back(since(t0) * 1e9 / kBatch);
    }

    const TrafficSaturation::Totals t = w.totals();
    const double k = static_cast<double>(w.inputs.size());
    Row row;
    row.key.str("workload", "traffic_saturation")
        .str("mode", "layers")
        .num("runs", k)
        .num("seed", opts.seed);
    row.deterministic.num("replayed_forwards", static_cast<double>(forwards));
    row.timing.push_back({"run_s", runs});
    row.timing.push_back({"policy_decision_ns", batch_ns});
    rep.rows.push_back(std::move(row));

    auto& m = rep.metrics;
    double run_mean = 0.0;
    for (const double x : runs) run_mean += x / k;
    rep.add(m, "core.policy_decision_ns", median(batch_ns), "ns");
    rep.add(m, "traffic.policy_build_s", w.policy_build_s, "s");
    rep.add(m, "traffic.workload_s", w.workload_s, "s");
    rep.add(m, "traffic.run_s", run_mean, "s");
    rep.add(m, "traffic.fresh_deliveries", t.fresh, "count");
    rep.add(m, "traffic.duplicates", t.duplicates, "count");
    rep.add(m, "traffic.useful_ratio", t.fresh / (t.fresh + t.duplicates), "ratio");
    rep.add(m, "traffic.data_tx", t.data_tx, "count");
    rep.add(m, "traffic.sv_beacons", t.beacons, "count");
    rep.add(m, "traffic.pulls", t.pulls, "count");
    rep.add(m, "traffic.repairs", t.repairs, "count");
    rep.add(m, "traffic.cache_evictions", t.evictions, "count");
    rep.add(m, "traffic.window_slides", t.slides, "count");
    rep.add(m, "traffic.cache_peak_bytes", t.cache_peak, "B");
    rep.add(m, "traffic.bytes_per_node", t.bytes / (k * static_cast<double>(w.shape.nodes)), "B");
    rep.add(m, "traffic.session_latency_p95_t", percentile(t.latencies, 0.95), "t");
    rep.add(m, "traffic.session_throughput", t.delivered / t.completion, "1/t");
    rep.add(m, "traffic.events_per_s", (t.fresh + t.duplicates) / k / run_mean, "1/s");
}

void trace_fig15(const Options& opts, Report& rep) {
    Fig15 w;
    w.build(opts);
    w.warm_up();
    telemetry::Snapshot snap;
    std::vector<std::vector<AlgorithmSeries>> got;
    const auto t0 = Clock::now();
    with_telemetry([&] { got = w.op(&snap); });
    const double campaign_s = since(t0);
    rep.op(w.check(got));
    double forward_ratio = 0.0;
    double completion = 0.0;
    double runs = 0.0;
    w.generic_means(forward_ratio, completion, runs);

    // Per-algorithm broadcasts, the GenericAgent build and topology
    // generation, on seeded n = 100, d = 18 networks.
    constexpr std::size_t kNets = 8;
    std::vector<UnitDiskNetwork> nets;
    std::vector<double> gen_us;
    std::vector<NodeId> sources;
    for (std::size_t i = 0; i < kNets; ++i) {
        Rng rng(runner::derive_run_seed(opts.seed ^ 0xf15ULL, 100, 18.0, i));
        UnitDiskParams params;
        params.node_count = 100;
        params.average_degree = 18.0;
        const auto g0 = Clock::now();
        nets.push_back(generate_network_checked(params, rng));
        gen_us.push_back(since(g0) * 1e6);
        sources.push_back(static_cast<NodeId>(rng.index(100)));
    }
    std::vector<double> algo_us;
    std::size_t misses = 0;
    for (const BroadcastAlgorithm* a : w.algos) {
        std::vector<double> us;
        for (std::size_t i = 0; i < kNets; ++i) {
            us.push_back(median_us(3, [&] {
                Rng rng(opts.seed + i);
                if (!a->broadcast(nets[i].graph, sources[i], rng).full_delivery) ++misses;
            }));
        }
        algo_us.push_back(median(us));
    }
    rep.op(misses == 0 ? "" : "paper_fig15: a seeded n=100 broadcast missed nodes");
    std::vector<double> ctor_us;
    for (std::size_t i = 0; i < kNets; ++i) {
        ctor_us.push_back(median_us(3, [&] {
            const GenericAgent agent(nets[i].graph, generic_fr_config(2, PriorityScheme::kDegree));
            (void)agent.config();
        }));
    }

    Row row;
    row.key.str("workload", "paper_fig15").str("mode", "layers").num("seed", opts.seed);
    row.timing.push_back({"campaign_s", {campaign_s}});
    row.timing.push_back({"generate_us", gen_us});
    row.timing.push_back({"generic_agent_ctor_us", ctor_us});
    rep.rows.push_back(std::move(row));

    auto& m = rep.metrics;
    rep.add(m, "graph.generate_us", median(gen_us), "us");
    rep.add(m, "runner.campaign_s", campaign_s, "s");
    rep.add(m, "runner.runs", runs / static_cast<double>(w.algos.size()), "count");
    rep.add(m, "algorithms.dp_broadcast_us", algo_us[0], "us");
    rep.add(m, "algorithms.pdp_broadcast_us", algo_us[1], "us");
    rep.add(m, "algorithms.lenwb_broadcast_us", algo_us[2], "us");
    rep.add(m, "algorithms.generic_fr_broadcast_us", algo_us[3], "us");
    rep.add(m, "sim.generic_agent_ctor_us", median(ctor_us), "us");
    rep.add(m, "sim.events.delivery", static_cast<double>(counter_total(snap, "sim.events.delivery")),
            "count");
    rep.add(m, "protocol.decisions", static_cast<double>(counter_total(snap, "protocol.decisions")),
            "count");
    rep.add(m, "campaign.runs", static_cast<double>(counter_total(snap, "campaign.runs")), "count");
}

void run_traced(const Options& opts, Report& rep) {
    const double overhead = trace_overhead(opts.workload, opts, rep);
    trace_scale(opts, rep);
    trace_churn(opts, rep);
    trace_traffic(opts, rep);
    trace_fig15(opts, rep);
    rep.add(rep.metrics, "trace.overhead", overhead, "ratio");
}

// ---------------------------------------------------------------- anchor --

/// bench_scale's n = 10^4 generic_fr row (source 0) and bench_saturation
/// --smoke's generic-fr row at load 8.0, recomputed through this driver's
/// own input builders.
int run_anchor(const Options& opts) {
    const auto place = make_placement(opts.seed, 10'000, /*source_zero=*/true);
    ScaleEngine engine(place->graph, fr_scale_config(opts));
    const ScaleResult r = engine.run(0);
    JsonObject scale;
    scale.num("nodes", 10'000).num("seed", opts.seed);
    scale_deterministic(scale, *place, r);

    Options tiny = opts;
    tiny.tiny = true;
    TrafficSaturation ts;
    ts.build(tiny);
    Report scratch;
    (void)ts.cycle(scratch, /*traced=*/false);
    if (scratch.failed != 0) return 1;
    const TrafficSaturation::Totals t = ts.totals();
    JsonObject sat;
    sat.num("node_count", ts.shape.nodes)
        .num("runs_per_cell", ts.shape.runs)
        .num("sessions_per_run", ts.shape.sessions)
        .num("load", ts.shape.load)
        .num("delivered", t.delivered)
        .num("degraded", t.degraded)
        .num("partitioned", t.partitioned)
        .num("throughput", t.delivered / t.completion)
        .num("latency_p95", static_cast<double>(telemetry::histogram_quantile(
                                traffic::latency_bounds(), t.hist, t.latency_max, 0.95)))
        .num("data_tx", t.data_tx)
        .num("bytes_per_node",
             t.bytes / static_cast<double>(ts.shape.runs * ts.shape.nodes))
        .num("duplicates", t.duplicates)
        .num("sv_beacons", t.beacons)
        .num("pulls", t.pulls)
        .num("repairs", t.repairs)
        .num("cache_peak_bytes", t.cache_peak);
    JsonObject doc;
    doc.raw("scale_generic_fr", scale.text()).raw("saturation_generic_fr", sat.text());
    std::cout << doc.text() << "\n";
    return 0;
}

bool parse(int argc, char** argv, Options& opts) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            const auto v = io::parse_u64(argv[++i]);
            if (!v) return false;
            opts.seed = *v;
        } else if (arg == "--seconds" && has_value) {
            const auto v = io::parse_size(argv[++i]);
            if (!v || *v == 0) return false;
            opts.seconds = static_cast<double>(*v);
        } else if (arg == "--trace" && has_value) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1") return false;
            opts.trace = v == "1";
        } else if (arg == "--jobs" && has_value) {
            const auto v = io::parse_size(argv[++i]);
            if (!v || *v == 0) return false;
            opts.jobs = *v;
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--anchor") {
            opts.anchor = true;
        } else {
            return false;
        }
    }
    if (opts.anchor) return true;
    return std::find(std::begin(kWorkloads), std::end(kWorkloads), opts.workload) !=
           std::end(kWorkloads);
}

}  // namespace

int main(int argc, char** argv) {
    Options opts;
    if (!parse(argc, argv, opts)) {
        std::cerr << "usage: perfbench_driver --workload "
                     "scale_generic|scale_churn_recovery|traffic_saturation|paper_fig15 "
                     "--seed S --seconds T --trace 0|1 [--jobs J] [--tiny] | --anchor\n";
        return 2;
    }
    telemetry::set_enabled(false);  // end-to-end runs are untraced whatever the environment says
    if (opts.anchor) return run_anchor(opts);

    Report rep;
    try {
        if (opts.trace) {
            run_traced(opts, rep);
        } else if (opts.workload == "scale_generic") {
            run_scale_generic(opts, rep);
        } else if (opts.workload == "scale_churn_recovery") {
            run_scale_churn(opts, rep);
        } else if (opts.workload == "traffic_saturation") {
            run_traffic(opts, rep);
        } else {
            run_fig15(opts, rep);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }

    const auto metric_object = [](const std::vector<Metric>& ms) {
        JsonObject o;
        for (const Metric& m : ms) {
            JsonObject v;
            v.num("value", m.value).str("unit", m.unit);
            o.raw(m.name, v.text());
        }
        return o.text();
    };
    std::string rows = "[";
    for (std::size_t i = 0; i < rep.rows.size(); ++i) rows += (i ? ", " : "") + rep.rows[i].text();
    rows += "]";
    std::string errors = "[";
    for (std::size_t i = 0; i < rep.errors.size(); ++i) {
        errors += (i ? ", " : "") + json_string(rep.errors[i]);
    }
    errors += "]";

    JsonObject meta;
    meta.str("workload", opts.workload)
        .num("seed", static_cast<double>(opts.seed))
        .num("seconds", opts.seconds)
        .num("trace", opts.trace ? 1 : 0)
        .num("jobs", static_cast<double>(opts.jobs))
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER)
        .num("tiny", opts.tiny ? 1 : 0);
    JsonObject result;
    result.raw("correct", rep.errors.empty() && rep.failed == 0 ? "true" : "false")
        .num("attempted", static_cast<double>(rep.attempted))
        .num("failed", static_cast<double>(rep.failed))
        .raw("metrics", metric_object(rep.metrics));
    JsonObject doc;
    doc.raw("meta", meta.text())
        .raw("rows", rows)
        .raw("result", result.text())
        .raw("extra", metric_object(rep.extra))
        .raw("errors", errors);
    std::cout << doc.text() << "\n";
    return 0;
}
