/// \file bench_scale.cpp
/// \brief Million-node scaling campaign for the sharded broadcast engine.
///
/// Sweeps n in {10^3, 10^4, 10^5, 10^6} on a constant-density unit-disk
/// placement (analytic degree-6 range, so generation stays O(n) through the
/// spatial grid) and runs blind flooding, self-pruning, and the paper's
/// generic coverage decision (static and first-receipt self-pruning,
/// scratch-compiled k-hop views) per size through `ScaleEngine`.  Reports
/// events/sec, engine bytes/node and process peak RSS, and — on sizes where
/// it is affordable — the same broadcasts through the reference `Simulator`
/// to anchor a speedup_vs_legacy ratio and cross-check outcomes, including
/// transmission-digest equality (the generic cap is n <= 10^3 because
/// `GenericAgent`'s knowledge base is O(n^2) memory).
///
///   bench_scale [--smoke] [--resilience] [--max-n N] [--jobs J] [--seed S]
///               [--json PATH] [--no-timing]
///
/// `--resilience` switches to the fault/recovery panel: the same
/// placements swept over crash {0, 5%, 15%} x link-churn {off, on} fault
/// cells with the windowed NACK recovery layer attached, classified per
/// run via `faults::classify_outcome` (bench name bench_scale_resilience,
/// default sink BENCH_scale_resilience.json).  Its wall times cover
/// `ScaleEngine::run` alone; each row's timing block also carries the
/// engine's bytes/node after its runs.  Unless `--no-timing` is given, each
/// policy's first cell at the largest n of the sweep also times a warm
/// repeat of run 0, and the panel exits nonzero when the cold run took more
/// than 3x that repeat.
///
/// Sharding happens *inside* each run (the engine's partitioned event
/// wheels), so `--jobs` changes wall clock only: every simulation output —
/// counts, completion times, the transmission-order digest — is a function
/// of the seed alone, identical at any jobs (and wheel) value.
/// Both panels write schema adhoc-rows-v1 (docs/PERF.md); wall times and
/// RSS go in each row's `timing` (the main panel's also carries `ctor_s`,
/// the engine's construction, timed apart from `run_s`), which
/// `--no-timing` leaves empty, making the file *byte-identical* across jobs
/// values; the CI scale-smoke job diffs a --jobs 1 run against a --jobs 8
/// run exactly that way.
///
/// Exits nonzero when flooding misses component-exact delivery, when any
/// engine policy disagrees with flooding on reached nodes, or when a legacy
/// cross-check (at sizes where it runs) diverges from the engine's outcome.

#include <array>
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "bench_common.hpp"
#include "faults/fault_plan.hpp"
#include "faults/outcome.hpp"
#include "faults/recovery.hpp"
#include "graph/unit_disk.hpp"
#include "runner/seed.hpp"
#include "sim/scale_engine.hpp"
#include "stats/rng.hpp"

namespace {

using namespace adhoc;

struct ScaleOptions {
    bool smoke = false;
    bool timing = true;
    bool resilience = false;  ///< run the fault/recovery panel instead
    std::size_t max_n = 1'000'000;
    std::size_t jobs = 8;
    std::uint64_t seed = 42;
    std::string json_path;  ///< empty = mode-dependent default
};

ScaleOptions parse(int argc, char** argv) {
    ScaleOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--no-timing") {
            opts.timing = false;
        } else if (arg == "--resilience") {
            opts.resilience = true;
        } else if (arg == "--max-n" && i + 1 < argc) {
            opts.max_n = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = std::strtoull(argv[++i], nullptr, 10);
            if (opts.jobs == 0) opts.jobs = 1;
        } else if (arg == "--seed" && i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--json" && i + 1 < argc) {
            opts.json_path = argv[++i];
        } else if (arg == "--help") {
            std::cout << "options: --smoke | --resilience | --max-n N | --jobs J | "
                         "--seed S | --json PATH | --no-timing\n";
            std::exit(0);
        }
    }
    if (opts.json_path.empty()) {
        opts.json_path = opts.resilience ? "BENCH_scale_resilience.json" : "BENCH_scale.json";
    }
    return opts;
}

/// Peak resident set of this process in bytes (Linux VmHWM), 0 elsewhere.
std::size_t peak_rss_bytes() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
        }
    }
    return 0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The transmission-order digest as the 16-digit hex string the rows carry.
std::string hex_digest(std::uint64_t digest) {
    char text[32];
    std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(digest));
    return text;
}

struct Row {
    std::size_t nodes = 0;
    std::size_t edges = 0;
    const char* policy = "";
    ScaleResult result;
    double engine_bytes_per_node = 0.0;
    // Timing block — left empty under --no-timing so the JSON is
    // byte-identical across --jobs values.
    std::vector<double> run_s;     ///< every timed repetition
    std::vector<double> legacy_s;  ///< flood rows where the Simulator ran
    double ctor_s = 0.0;           ///< the engine's construction (graph copy)
    std::size_t rss_bytes = 0;
    double events_per_sec = 0.0;
    double speedup_vs_legacy = 0.0;
};

bench::RowsDoc rows_doc(const ScaleOptions& opts, const std::vector<Row>& rows) {
    bench::RowsDoc doc("bench_scale");
    doc.meta.count("seed", opts.seed).count("wheels", 8);
    for (const Row& r : rows) {
        bench::RowsDoc::Row& row = doc.rows.emplace_back();
        row.key.count("nodes", r.nodes).text("policy", r.policy);
        row.deterministic.count("edges", r.edges)
            .count("delivered_events", r.result.delivered_events)
            .count("forward_count", r.result.forward_count)
            .count("received_count", r.result.received_count)
            .flag("full_delivery", r.result.full_delivery)
            .count("windows", r.result.windows)
            .count("peak_queue_events", r.result.peak_queue_events)
            .real("completion_time", r.result.completion_time)
            .text("order_digest", hex_digest(r.result.order_digest))
            .real("engine_bytes_per_node", r.engine_bytes_per_node);
        if (!r.run_s.empty()) {
            row.timing.samples("run_s", r.run_s)
                .samples("ctor_s", {r.ctor_s})
                .samples("peak_rss_bytes", {static_cast<double>(r.rss_bytes)});
        }
        if (!r.legacy_s.empty()) row.timing.samples("legacy_run_s", r.legacy_s);
    }
    return doc;
}

/// One (size, policy, fault cell) aggregate of the resilience panel.
/// Everything except the timing block is a pure function of the seed, so
/// the JSON is byte-identical at any --jobs value under --no-timing.
struct ResilienceRow {
    std::size_t nodes = 0;
    const char* policy = "";
    double crash_rate = 0.0;
    bool churn = false;
    std::size_t runs = 0;
    double delivery_ratio = 0.0;  ///< mean over runs
    bench::OutcomeMix mix;
    std::size_t received_sum = 0;
    std::size_t forward_sum = 0;
    std::size_t retransmits = 0;
    std::size_t controls = 0;
    std::size_t fault_suppressed = 0;
    std::size_t delivered_events = 0;
    std::size_t windows = 0;
    double completion_sum = 0.0;
    /// FNV-style fold of the per-run canonical order digests.
    std::uint64_t order_digest = 0xcbf29ce484222325ULL;
    std::vector<double> run_s;  ///< per-run wall time; empty under --no-timing
    /// `state_bytes()` / n after the row's runs.  Timing-only: the engine's
    /// decision scratch depends on --jobs once windows reach 4096 events.
    double engine_bytes_per_node = 0.0;
};

bench::RowsDoc resilience_rows_doc(const ScaleOptions& opts,
                                   const std::vector<ResilienceRow>& rows) {
    bench::RowsDoc doc("bench_scale_resilience");
    doc.meta.count("seed", opts.seed).count("wheels", 8);
    for (const ResilienceRow& r : rows) {
        bench::RowsDoc::Row& row = doc.rows.emplace_back();
        row.key.count("nodes", r.nodes)
            .text("policy", r.policy)
            .real("crash_rate", r.crash_rate)
            .flag("churn", r.churn);
        row.deterministic.count("runs", r.runs)
            .real("delivery_ratio", r.delivery_ratio)
            .count("delivered", r.mix.delivered)
            .count("degraded", r.mix.degraded)
            .count("partitioned", r.mix.partitioned)
            .count("received_sum", r.received_sum)
            .count("forward_sum", r.forward_sum)
            .count("retransmits", r.retransmits)
            .count("control_count", r.controls)
            .count("fault_suppressed", r.fault_suppressed)
            .count("delivered_events", r.delivered_events)
            .count("windows", r.windows)
            .real("completion_sum", r.completion_sum)
            .text("order_digest", hex_digest(r.order_digest));
        if (!r.run_s.empty()) {
            row.timing.samples("run_s", r.run_s)
                .samples("engine_bytes_per_node", {r.engine_bytes_per_node});
        }
    }
    return doc;
}

/// The --resilience panel: crash/churn fault cells on the same placements
/// as the scaling panel, run through all four engine policies with the
/// windowed NACK recovery layer attached.  Every fault plan and every
/// simulation output is a pure function of the seed; `--jobs` (and the
/// engine's wheel count) change wall clock only.
int run_resilience(const ScaleOptions& opts) {
    constexpr double kMaxColdOverWarm = 3.0;
    std::vector<std::size_t> sizes{1'000, 10'000, 100'000, 1'000'000};
    if (opts.smoke) sizes = {1'000, 10'000};
    std::erase_if(sizes, [&](std::size_t n) { return n > opts.max_n; });

    struct Cell {
        double crash_rate;
        bool churn;
    };
    // crash {0, 5%, 15%} x churn {off, on}; the fault-free cell anchors
    // the delivery floor the CI gate checks against.
    const std::vector<Cell> cells{{0.0, false}, {0.0, true},  {0.05, false},
                                  {0.05, true}, {0.15, false}, {0.15, true}};

    // Window-aligned recovery: the engine requires beacon/NACK timers to
    // be integer multiples of its delivery delay (1.0), so the serial
    // simulator's 0.5 default is lifted to 1.0 (docs/SCALING.md).
    faults::RecoveryConfig recovery;
    recovery.enabled = true;
    recovery.nack_delay = 1.0;

    std::cout << "bench_scale --resilience: sizes";
    for (const std::size_t n : sizes) std::cout << ' ' << n;
    std::cout << "  jobs=" << opts.jobs << " wheels=8  recovery=nack@1.0"
              << (opts.timing ? "" : "  (timing suppressed)") << "\n\n";

    std::vector<ResilienceRow> rows;
    std::size_t violations = 0;

    for (const std::size_t n : sizes) {
        const Graph graph = bench::scale_placement(opts.seed, n);
        const NodeId source = 0;
        // Repetitions vary the fault plan (run index), not the placement;
        // a single run keeps the 10^5/10^6 cells affordable.
        const std::size_t runs = n <= 10'000 ? 3 : 1;

        ScaleConfig cfg;
        cfg.jobs = opts.jobs;
        ScaleEngine flood_engine(graph, cfg);
        ScaleConfig pruned_cfg = cfg;
        pruned_cfg.policy = ScalePolicy::kSelfPrune;
        ScaleEngine pruned(graph, pruned_cfg);
        ScaleConfig static_cfg = cfg;
        static_cfg.policy = ScalePolicy::kGenericCoverage;
        static_cfg.generic = generic_static_config(2);
        ScaleEngine generic_static(graph, static_cfg);
        ScaleConfig fr_cfg = static_cfg;
        fr_cfg.generic = generic_fr_config(2);
        ScaleEngine generic_fr(graph, fr_cfg);

        struct Policy {
            const char* name;
            ScaleEngine* engine;
        };
        const Policy policies[] = {{"flood", &flood_engine},
                                   {"self_prune", &pruned},
                                   {"generic_static", &generic_static},
                                   {"generic_fr", &generic_fr}};
        for (const Policy& p : policies) p.engine->set_recovery(recovery);

        for (const Cell& cell : cells) {
            // One plan per run, shared across policies so every policy row
            // in a cell faces the identical fault schedule.
            const std::uint64_t cell_tag =
                static_cast<std::uint64_t>(cell.crash_rate * 1000.0) * 2 +
                (cell.churn ? 1 : 0);
            const std::uint64_t cell_seed =
                runner::splitmix64(opts.seed ^ (0xfa170a115ULL + cell_tag * 0x9e3779b97f4a7c15ULL));
            faults::FaultSpec spec;
            spec.crash_rate = cell.crash_rate;
            spec.crash_window = 6.0;
            if (cell.churn) {
                spec.link_churn_rate = 0.1;
                spec.churn_window = 8.0;
            }
            std::vector<faults::FaultPlan> plans;
            plans.reserve(runs);
            for (std::size_t run = 0; run < runs; ++run) {
                plans.push_back(faults::make_fault_plan(spec, graph, source, cell_seed, run));
            }

            std::cout << "n=" << std::setw(8) << n << "  crash=" << cell.crash_rate
                      << "  churn=" << (cell.churn ? "on " : "off") << "  [run0: "
                      << bench::fault_plan_summary(plans[0]) << "]\n";

            for (const Policy& p : policies) {
                ResilienceRow row;
                row.nodes = n;
                row.policy = p.name;
                row.crash_rate = cell.crash_rate;
                row.churn = cell.churn;
                row.runs = runs;
                // Only engine->run is timed; attaching the plan and
                // classifying the outcome stay outside the span.
                std::vector<double> walls;
                for (std::size_t run = 0; run < runs; ++run) {
                    p.engine->attach_faults(&plans[run]);
                    const auto t0 = std::chrono::steady_clock::now();
                    const ScaleResult res = p.engine->run(source);
                    walls.push_back(seconds_since(t0));
                    const faults::ResilienceSummary sum = faults::classify_outcome(
                        graph, source, p.engine->received_mask(), plans[run]);
                    row.delivery_ratio += sum.delivery_ratio;
                    row.mix.add(sum.outcome);
                    row.received_sum += res.received_count;
                    row.forward_sum += res.forward_count;
                    row.retransmits += res.retransmit_count;
                    row.controls += res.control_count;
                    row.fault_suppressed += res.fault_suppressed;
                    row.delivered_events += res.delivered_events;
                    row.windows += res.windows;
                    row.completion_sum += res.completion_time;
                    row.order_digest = (row.order_digest ^ res.order_digest) * 0x100000001b3ULL;
                }
                row.engine_bytes_per_node = static_cast<double>(p.engine->state_bytes()) /
                                            static_cast<double>(n);
                // Regression guard: the policy's first cell is its engine's
                // cold run, so repeat run 0 warm and fail when the cold run
                // costs more than kMaxColdOverWarm times the warm one.  Only
                // at the largest n: sub-millisecond runs at small n measure
                // timer and scheduler noise.  The repeat feeds no row field.
                if (opts.timing && &cell == &cells.front() && n == sizes.back()) {
                    p.engine->attach_faults(&plans[0]);
                    const auto t0 = std::chrono::steady_clock::now();
                    (void)p.engine->run(source);
                    const double warm = seconds_since(t0);
                    const double cold = walls.front();
                    std::cout << "    " << std::setw(14) << std::left << p.name << std::right
                              << std::setprecision(4) << "  cold=" << cold
                              << " s  warm=" << warm << " s\n";
                    if (cold > kMaxColdOverWarm * warm) {
                        std::cerr << "bench_scale: " << p.name << " cold run at n=" << n
                                  << " took " << cold << " s, over " << kMaxColdOverWarm
                                  << "x its warm repeat (" << warm << " s)\n";
                        ++violations;
                    }
                }
                p.engine->attach_faults(nullptr);
                row.delivery_ratio /= static_cast<double>(runs);
                if (opts.timing) row.run_s = std::move(walls);
                // Fault-free cells must deliver the full source component:
                // any degraded run there is a real bug, not bad luck
                // (isolated nodes classify as partitioned, which is fine).
                if (cell.crash_rate == 0.0 && !cell.churn &&
                    (row.mix.degraded != 0 || row.delivery_ratio < 1.0)) {
                    std::cerr << "bench_scale: " << p.name
                              << " dropped reachable nodes in the fault-free cell at n=" << n
                              << " (delivery_ratio=" << row.delivery_ratio << ", "
                              << row.mix.degraded << " degraded)\n";
                    ++violations;
                }
                std::cout << "    " << std::setw(14) << std::left << p.name << std::right
                          << "  delivery=" << std::fixed << std::setprecision(4)
                          << row.delivery_ratio << std::defaultfloat << "  D/g/p="
                          << row.mix.split() << "  retx=" << row.retransmits
                          << "  ctrl=" << row.controls << "  suppressed="
                          << row.fault_suppressed << "\n";
                rows.push_back(row);
            }
        }
        std::cout << "\n";
    }

    if (!opts.json_path.empty() && !resilience_rows_doc(opts, rows).write(opts.json_path)) {
        return 1;
    }
    return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const ScaleOptions opts = parse(argc, argv);
    if (opts.resilience) return run_resilience(opts);
    std::vector<std::size_t> sizes{1'000, 10'000, 100'000, 1'000'000};
    if (opts.smoke) sizes = {1'000, 10'000};
    std::erase_if(sizes, [&](std::size_t n) { return n > opts.max_n; });

    // Legacy Simulator cross-check/anchor only where it is cheap enough;
    // at 10^5+ the serial machine is exactly the bottleneck this bench
    // exists to bypass.
    constexpr std::size_t kLegacyCap = 10'000;

    std::cout << "bench_scale: sizes";
    for (const std::size_t n : sizes) std::cout << ' ' << n;
    std::cout << "  jobs=" << opts.jobs << " wheels=8"
              << (opts.timing ? "" : "  (timing suppressed)") << "\n\n";

    std::vector<Row> rows;
    std::size_t violations = 0;

    for (const std::size_t n : sizes) {
        const Graph graph = bench::scale_placement(opts.seed, n);
        const NodeId source = 0;

        // Each construction is timed apart from the runs (`ctor_s`): it
        // copies the graph into the engine's BFS-ordered CSR.
        std::array<double, 4> ctor_s{};
        ScaleConfig cfg;
        cfg.jobs = opts.jobs;
        auto t_build = std::chrono::steady_clock::now();
        ScaleEngine engine(graph, cfg);
        ctor_s[0] = seconds_since(t_build);

        ScaleConfig pruned_cfg = cfg;
        pruned_cfg.policy = ScalePolicy::kSelfPrune;
        t_build = std::chrono::steady_clock::now();
        ScaleEngine pruned(graph, pruned_cfg);
        ctor_s[1] = seconds_since(t_build);

        // Generic coverage at scale: each decision compiles its k-hop ball
        // into per-wheel scratch; no view outlives its decision.
        ScaleConfig static_cfg = cfg;
        static_cfg.policy = ScalePolicy::kGenericCoverage;
        static_cfg.generic = generic_static_config(2);
        t_build = std::chrono::steady_clock::now();
        ScaleEngine generic_static(graph, static_cfg);
        ctor_s[2] = seconds_since(t_build);

        ScaleConfig fr_cfg = static_cfg;
        fr_cfg.generic = generic_fr_config(2);
        t_build = std::chrono::steady_clock::now();
        ScaleEngine generic_fr(graph, fr_cfg);
        ctor_s[3] = seconds_since(t_build);

        // Best-of-reps timing (bench_micro's discipline): a warm run pays
        // the cold allocations, then the minimum over repetitions discards
        // scheduler noise.  10^6 nodes keeps a single timed run.
        const std::size_t reps = opts.timing ? (n <= 100'000 ? 3 : 1) : 1;
        const auto timed_run = [&](ScaleEngine& e, ScaleResult& out) {
            std::vector<double> walls;
            (void)e.run(source);  // warm-up
            for (std::size_t r = 0; r < reps; ++r) {
                const auto t0 = std::chrono::steady_clock::now();
                out = e.run(source);
                walls.push_back(seconds_since(t0));
            }
            return walls;
        };
        ScaleResult flood;
        ScaleResult prune;
        ScaleResult gstatic;
        ScaleResult gfr;
        const std::vector<double> flood_walls = timed_run(engine, flood);
        const std::vector<double> prune_walls = timed_run(pruned, prune);
        const std::vector<double> gstatic_walls = timed_run(generic_static, gstatic);
        const std::vector<double> gfr_walls = timed_run(generic_fr, gfr);

        std::vector<double> legacy_walls;
        if (n <= kLegacyCap) {
            FloodingAlgorithm legacy;
            BroadcastResult ref;
            for (std::size_t r = 0; r < 3; ++r) {
                Rng legacy_rng(opts.seed);
                const auto t2 = std::chrono::steady_clock::now();
                ref = legacy.broadcast(graph, source, legacy_rng);
                legacy_walls.push_back(seconds_since(t2));
            }
            // One untimed traced run pins the transmission order too.
            Rng traced_rng(opts.seed);
            const std::uint64_t want_digest = reference_transmission_digest(
                legacy.broadcast_traced(graph, source, traced_rng, MediumConfig{}).trace);
            if (ref.forward_count != flood.forward_count ||
                ref.received_count != flood.received_count ||
                want_digest != flood.order_digest) {
                std::cerr << "bench_scale: engine flooding diverged from Simulator at n=" << n
                          << " (forwards " << flood.forward_count << " vs " << ref.forward_count
                          << ", received " << flood.received_count << " vs "
                          << ref.received_count << ", digest "
                          << (want_digest == flood.order_digest ? "equal" : "DIFFERS")
                          << ")\n";
                ++violations;
            }
        }
        // Generic cross-check caps at 10^3: `GenericAgent` keeps a
        // per-node knowledge base, O(n^2) memory on the serial machine.
        constexpr std::size_t kGenericLegacyCap = 1'000;
        if (n <= kGenericLegacyCap) {
            const auto check_generic = [&](const char* policy, const GenericConfig& gc,
                                           const ScaleResult& got) {
                Rng legacy_rng(opts.seed);
                const BroadcastResult ref = GenericBroadcast(gc).broadcast_traced(
                    graph, source, legacy_rng, MediumConfig{});
                const std::uint64_t want_digest = reference_transmission_digest(ref.trace);
                if (ref.forward_count != got.forward_count ||
                    ref.received_count != got.received_count ||
                    want_digest != got.order_digest) {
                    std::cerr << "bench_scale: engine " << policy
                              << " diverged from Simulator at n=" << n << " (forwards "
                              << got.forward_count << " vs " << ref.forward_count
                              << ", received " << got.received_count << " vs "
                              << ref.received_count << ", digest "
                              << (want_digest == got.order_digest ? "equal" : "DIFFERS")
                              << ")\n";
                    ++violations;
                }
            };
            check_generic("generic_static", static_cfg.generic, gstatic);
            check_generic("generic_fr", fr_cfg.generic, gfr);
        }
        // Constant-density placements are not guaranteed connected (an
        // expected ~e^-6 fraction of nodes is isolated), so the coverage
        // invariant is component-exact delivery, not full delivery.
        std::size_t component = 1;
        {
            std::vector<char> seen(n, 0);
            std::vector<NodeId> stack{source};
            seen[source] = 1;
            while (!stack.empty()) {
                const NodeId v = stack.back();
                stack.pop_back();
                for (NodeId w : graph.neighbors(v)) {
                    if (!seen[w]) {
                        seen[w] = 1;
                        ++component;
                        stack.push_back(w);
                    }
                }
            }
        }
        if (flood.received_count != component) {
            std::cerr << "bench_scale: flooding reached " << flood.received_count
                      << " nodes but the source component holds " << component << " at n=" << n
                      << "\n";
            ++violations;
        }
        const auto check_delivery = [&](const char* policy, const ScaleResult& res) {
            if (res.received_count != flood.received_count) {
                std::cerr << "bench_scale: " << policy << " reached " << res.received_count
                          << " nodes vs flooding's " << flood.received_count << " at n=" << n
                          << "\n";
                ++violations;
            }
        };
        check_delivery("self_prune", prune);
        check_delivery("generic_static", gstatic);
        check_delivery("generic_fr", gfr);

        const std::size_t rss = peak_rss_bytes();
        const auto make_row = [&](const char* policy, const ScaleResult& res,
                                  const std::vector<double>& walls, double ctor,
                                  double engine_bytes) {
            Row row;
            row.nodes = n;
            row.edges = graph.edge_count();
            row.policy = policy;
            row.result = res;
            row.engine_bytes_per_node = engine_bytes / static_cast<double>(n);
            if (opts.timing) {
                const double wall = *std::min_element(walls.begin(), walls.end());
                row.run_s = walls;
                row.ctor_s = ctor;
                row.rss_bytes = rss;
                row.events_per_sec =
                    wall > 0.0 ? static_cast<double>(res.delivered_events) / wall : 0.0;
                const double legacy_wall =
                    legacy_walls.empty()
                        ? 0.0
                        : *std::min_element(legacy_walls.begin(), legacy_walls.end());
                if (std::strcmp(policy, "flood") == 0 && legacy_wall > 0.0) {
                    row.legacy_s = legacy_walls;
                    row.speedup_vs_legacy =
                        row.events_per_sec /
                        (static_cast<double>(res.delivered_events) / legacy_wall);
                }
            }
            return row;
        };
        rows.push_back(make_row("flood", flood, flood_walls, ctor_s[0],
                                static_cast<double>(engine.state_bytes())));
        rows.push_back(make_row("self_prune", prune, prune_walls, ctor_s[1],
                                static_cast<double>(pruned.state_bytes())));
        rows.push_back(make_row("generic_static", gstatic, gstatic_walls, ctor_s[2],
                                static_cast<double>(generic_static.state_bytes())));
        rows.push_back(make_row("generic_fr", gfr, gfr_walls, ctor_s[3],
                                static_cast<double>(generic_fr.state_bytes())));

        const Row& fr = rows[rows.size() - 4];
        std::cout << "n=" << std::setw(8) << n << "  edges=" << graph.edge_count()
                  << "  flood events=" << flood.delivered_events << " windows="
                  << flood.windows;
        if (opts.timing) {
            std::cout << "  " << std::fixed << std::setprecision(0) << fr.events_per_sec
                      << " ev/s";
            if (fr.speedup_vs_legacy > 0.0) {
                std::cout << "  speedup_vs_legacy=" << std::setprecision(2)
                          << fr.speedup_vs_legacy << "x";
            }
            std::cout << std::defaultfloat;
        }
        std::cout << "  forwards prune=" << prune.forward_count
                  << " gstatic=" << gstatic.forward_count << " gfr=" << gfr.forward_count
                  << " /" << n << "\n";
    }

    if (!opts.json_path.empty() && !rows_doc(opts, rows).write(opts.json_path)) return 1;
    return violations == 0 ? 0 : 1;
}
