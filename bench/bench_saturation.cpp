/// \file bench_saturation.cpp
/// \brief Saturation campaign: thousands of concurrent broadcast sessions
/// through one long-lived network under churn, vs offered load.
///
/// Sweeps the session arrival rate for four forwarding policies (flooding,
/// the generic static and FR self-pruning configurations, Wu-Li), all
/// running through the continuous-traffic engine (src/traffic/) with the
/// summary-vector recovery plane armed and a crash+link-churn fault plan
/// applied.  Per cell it reports steady-state throughput, p50/p95/p99
/// session delivery latency, bytes per node, duplicate-cache pressure and
/// the delivered/degraded/partitioned split.
///
/// Determinism: every run's topology, workload, fault plan and simulation
/// RNG derive from `runner::derive_run_seed` substreams of (seed, cell,
/// run index); runs are sharded over a thread pool but merged in run-index
/// order, and the JSON sink (schema adhoc-rows-v1, docs/PERF.md) carries no
/// wall-clock or jobs fields — the file is byte-identical at any --jobs
/// value.
///
/// Extra flag (on top of bench_common's): --smoke shrinks the sweep for CI
/// while keeping >= 1000 concurrent sessions per algorithm cell.
///
/// Partitioned/degraded sessions are *not* failures (the churn plan, not
/// the protocol, made delivery impossible); the bench exits nonzero only
/// when a session escapes classification, a duplicate cache exceeds its
/// ceiling, or the sink cannot be written.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <iterator>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "faults/fault_plan.hpp"
#include "graph/unit_disk.hpp"
#include "runner/seed.hpp"
#include "runner/thread_pool.hpp"
#include "telemetry/sinks.hpp"
#include "traffic/engine.hpp"
#include "traffic/policy.hpp"
#include "traffic/workload.hpp"

using namespace adhoc;

namespace {

constexpr const char* kPolicies[] = {"flooding", "generic-static", "generic-fr", "wu-li"};

struct Cell {
    double load = 1.0;  ///< mean session arrivals per time unit
};

/// Per-algorithm outcome of one run.
struct RunOutcome {
    std::size_t delivered = 0;
    std::size_t degraded = 0;
    std::size_t partitioned = 0;
    std::size_t unclassified = 0;  ///< must stay 0 (hard failure)
    std::size_t data_tx = 0;
    std::size_t bytes = 0;  ///< data + control
    std::size_t duplicates = 0;
    std::size_t sv_beacons = 0;
    std::size_t pulls = 0;
    std::size_t repairs = 0;
    std::size_t cache_peak = 0;
    std::size_t cache_ceiling = 0;
    bool cache_overflow = false;  ///< peak > ceiling (hard failure)
    std::uint64_t latency_max = 0;
    std::vector<std::uint64_t> latency_hist;
    double completion_time = 0.0;
};

/// Per-algorithm aggregate over one cell, merged in run-index order.
struct AlgoStats {
    std::size_t delivered = 0;
    std::size_t degraded = 0;
    std::size_t partitioned = 0;
    std::size_t unclassified = 0;
    std::size_t data_tx = 0;
    std::size_t bytes = 0;
    std::size_t duplicates = 0;
    std::size_t sv_beacons = 0;
    std::size_t pulls = 0;
    std::size_t repairs = 0;
    std::size_t cache_peak = 0;
    std::size_t cache_ceiling = 0;
    bool cache_overflow = false;
    std::uint64_t latency_max = 0;
    std::vector<std::uint64_t> latency_hist;
    double completion_sum = 0.0;

    void add(const RunOutcome& r) {
        delivered += r.delivered;
        degraded += r.degraded;
        partitioned += r.partitioned;
        unclassified += r.unclassified;
        data_tx += r.data_tx;
        bytes += r.bytes;
        duplicates += r.duplicates;
        sv_beacons += r.sv_beacons;
        pulls += r.pulls;
        repairs += r.repairs;
        cache_peak = std::max(cache_peak, r.cache_peak);
        cache_ceiling = std::max(cache_ceiling, r.cache_ceiling);
        cache_overflow = cache_overflow || r.cache_overflow;
        latency_max = std::max(latency_max, r.latency_max);
        if (latency_hist.empty()) latency_hist.resize(r.latency_hist.size(), 0);
        for (std::size_t i = 0; i < r.latency_hist.size(); ++i) {
            latency_hist[i] += r.latency_hist[i];
        }
        completion_sum += r.completion_time;
    }

    [[nodiscard]] double throughput() const {
        return completion_sum > 0.0 ? static_cast<double>(delivered) / completion_sum : 0.0;
    }

    [[nodiscard]] std::uint64_t latency_quantile(double q) const {
        return telemetry::histogram_quantile(traffic::latency_bounds(), latency_hist,
                                             latency_max, q);
    }
};

struct CellResult {
    Cell cell;
    std::vector<AlgoStats> stats;  ///< one per policy, kPolicies order
};

struct Panel {
    std::string title;
    std::vector<CellResult> cells;
};

/// Runs one cell: `runs` independent topologies, each with its own
/// workload and churn plan, all four policies per topology.  Sharded over
/// `pool`; the result vector is indexed by run so aggregation order is
/// fixed.
CellResult run_cell(const Cell& cell, std::size_t cell_tag, const bench::BenchOptions& opts,
                    std::size_t node_count, double degree, std::size_t runs,
                    std::size_t sessions_per_run, runner::ThreadPool& pool) {
    std::vector<std::vector<RunOutcome>> per_run(runs);
    std::atomic<std::size_t> remaining{runs};
    std::mutex done_mutex;
    std::condition_variable done_cv;

    const std::uint64_t cell_seed =
        opts.seed ^ runner::splitmix64(0x5a70a71049ULL + cell_tag);

    for (std::size_t run = 0; run < runs; ++run) {
        pool.submit([&, run] {
            Rng rng(runner::derive_run_seed(cell_seed, node_count, degree, run));
            UnitDiskParams params;
            params.node_count = node_count;
            params.average_degree = degree;
            const UnitDiskNetwork net = generate_network_checked(params, rng);

            traffic::TrafficConfig tc;
            tc.sessions = sessions_per_run;
            tc.rate = cell.load;
            const traffic::Workload wl =
                traffic::make_workload(tc, net.graph.node_count(), cell_seed, run);

            // The PR 5 churn plan: crashes with recovery plus link flaps
            // across most of the arrival window, sources unprotected.
            faults::FaultSpec spec;
            spec.crash_rate = 0.15;
            spec.crash_window = wl.horizon * 0.8;
            spec.recover_probability = 0.7;
            spec.link_churn_rate = 0.2;
            spec.churn_window = wl.horizon * 0.8;
            spec.protect_source = false;
            const faults::FaultPlan plan =
                faults::make_fault_plan(spec, net.graph, 0, cell_seed, run);

            std::vector<RunOutcome> outcomes(std::size(kPolicies));
            for (std::size_t a = 0; a < std::size(kPolicies); ++a) {
                const auto policy = traffic::make_policy(net.graph, kPolicies[a]);
                traffic::TrafficEngine engine(net.graph, *policy);
                engine.attach_faults(&plan);
                Rng algo_rng = rng.fork();
                const traffic::TrafficResult r = engine.run(wl, algo_rng);

                RunOutcome& o = outcomes[a];
                o.delivered = r.delivered;
                o.degraded = r.degraded;
                o.partitioned = r.partitioned;
                o.unclassified =
                    r.sessions.size() - (r.delivered + r.degraded + r.partitioned);
                o.data_tx = r.data_transmissions;
                o.bytes = r.data_bytes + r.control_bytes;
                o.duplicates = r.duplicates_suppressed;
                o.sv_beacons = r.sv_beacons;
                o.pulls = r.pulls_sent;
                o.repairs = r.repairs_served;
                o.cache_peak = r.cache_peak_bytes;
                o.cache_ceiling = r.cache_ceiling_bytes;
                o.cache_overflow = r.cache_peak_bytes > r.cache_ceiling_bytes;
                o.latency_hist = r.latency_hist;
                o.completion_time = r.completion_time;
                for (const traffic::SessionOutcome& s : r.sessions) {
                    if (s.last_delivery > s.start_time) {
                        o.latency_max = std::max(
                            o.latency_max,
                            static_cast<std::uint64_t>(
                                std::ceil(s.last_delivery - s.start_time)));
                    }
                }
            }
            per_run[run] = std::move(outcomes);
            if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(done_mutex);
                done_cv.notify_all();
            }
        });
    }
    {
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait(lock, [&] { return remaining.load(std::memory_order_acquire) == 0; });
    }

    CellResult result;
    result.cell = cell;
    result.stats.resize(std::size(kPolicies));
    for (std::size_t run = 0; run < runs; ++run) {  // fixed order: jobs-invariant sums
        for (std::size_t a = 0; a < std::size(kPolicies); ++a) {
            result.stats[a].add(per_run[run][a]);
        }
    }
    return result;
}

void print_panel(const Panel& panel, std::size_t runs, std::size_t sessions_per_run) {
    std::cout << panel.title << "  (outcomes D/g/p over " << runs << " runs x "
              << sessions_per_run << " sessions | thrpt = delivered/sim-time)\n";
    std::cout << " load";
    for (const char* name : kPolicies) {
        std::cout << " | " << std::setw(26) << std::left << name;
    }
    std::cout << "\n";
    for (const CellResult& cr : panel.cells) {
        std::cout << std::fixed << std::setprecision(2) << std::setw(5) << cr.cell.load;
        for (const AlgoStats& s : cr.stats) {
            std::ostringstream col;
            col << s.delivered << '/' << s.degraded << '/' << s.partitioned << ' '
                << std::fixed << std::setprecision(2) << s.throughput() << " p95="
                << s.latency_quantile(0.95);
            std::cout << " | " << std::setw(26) << std::left << col.str();
        }
        std::cout << '\n';
    }
    std::cout << '\n';
}

/// The adhoc-rows-v1 document: one row per (panel, load, policy).  It
/// carries no wall-clock or --jobs field, so the bytes depend only on
/// (seed, sweep, runs).
bench::RowsDoc rows_doc(const std::vector<Panel>& panels, const bench::BenchOptions& opts,
                        std::size_t node_count, double degree, std::size_t runs,
                        std::size_t sessions_per_run) {
    bench::RowsDoc doc("bench_saturation");
    doc.meta.count("seed", opts.seed)
        .count("node_count", node_count)
        .real("average_degree", degree)
        .count("runs_per_cell", runs)
        .count("sessions_per_run", sessions_per_run);
    for (const Panel& panel : panels) {
        for (const CellResult& cr : panel.cells) {
            for (std::size_t a = 0; a < std::size(kPolicies); ++a) {
                const AlgoStats& s = cr.stats[a];
                bench::RowsDoc::Row& row = doc.rows.emplace_back();
                row.key.text("panel", panel.title)
                    .real("load", cr.cell.load)
                    .text("algorithm", kPolicies[a]);
                row.deterministic.count("delivered", s.delivered)
                    .count("degraded", s.degraded)
                    .count("partitioned", s.partitioned)
                    .real("throughput", s.throughput())
                    .count("latency_p50", s.latency_quantile(0.50))
                    .count("latency_p95", s.latency_quantile(0.95))
                    .count("latency_p99", s.latency_quantile(0.99))
                    .count("data_tx", s.data_tx)
                    .real("bytes_per_node", static_cast<double>(s.bytes) /
                                                static_cast<double>(runs * node_count))
                    .count("duplicates", s.duplicates)
                    .count("sv_beacons", s.sv_beacons)
                    .count("pulls", s.pulls)
                    .count("repairs", s.repairs)
                    .count("cache_peak_bytes", s.cache_peak)
                    .count("cache_ceiling_bytes", s.cache_ceiling);
            }
        }
    }
    return doc;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchOptions opts = bench::parse_options(argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke") smoke = true;
    }

    // Smoke keeps >= 1000 sessions per algorithm cell (2 runs x 550).
    const std::size_t node_count = smoke ? 24 : 60;
    const double degree = 6.0;
    const std::size_t runs = smoke ? 2 : std::max<std::size_t>(opts.max_runs / 40, 4);
    const std::size_t sessions_per_run = smoke ? 550 : 1000;

    const std::vector<double> load_axis =
        smoke ? std::vector<double>{2.0, 8.0} : std::vector<double>{0.5, 1.0, 2.0, 4.0, 8.0};

    runner::ThreadPool pool(opts.jobs);
    std::cout << "bench_saturation: n=" << node_count << " d=" << degree << " runs=" << runs
              << " sessions/run=" << sessions_per_run
              << " (summary-vector recovery on; churn plan applied)\n\n";

    std::vector<Panel> panels;
    std::size_t cell_tag = 0;

    Panel load_panel;
    load_panel.title = "saturation vs offered load (churn crash=0.15 link=0.2)";
    for (const double load : load_axis) {
        load_panel.cells.push_back(run_cell({load}, cell_tag++, opts, node_count, degree,
                                            runs, sessions_per_run, pool));
    }
    print_panel(load_panel, runs, sessions_per_run);
    panels.push_back(std::move(load_panel));

    // Hard failures: a session that escaped classification or a duplicate
    // cache that outgrew its configured ceiling.
    std::size_t violations = 0;
    for (const Panel& panel : panels) {
        for (const CellResult& cr : panel.cells) {
            for (std::size_t a = 0; a < std::size(kPolicies); ++a) {
                const AlgoStats& s = cr.stats[a];
                if (s.unclassified != 0) {
                    std::cerr << "bench_saturation: " << s.unclassified
                              << " unclassified sessions (" << kPolicies[a] << ", load "
                              << cr.cell.load << ")\n";
                    ++violations;
                }
                if (s.cache_overflow) {
                    std::cerr << "bench_saturation: duplicate cache exceeded its ceiling ("
                              << kPolicies[a] << ", load " << cr.cell.load << ")\n";
                    ++violations;
                }
            }
        }
    }

    if (!opts.json_path.empty() &&
        !rows_doc(panels, opts, node_count, degree, runs, sessions_per_run)
             .write(opts.json_path)) {
        return 1;
    }
    return violations == 0 ? 0 : 1;
}
