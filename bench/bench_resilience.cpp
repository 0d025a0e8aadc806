/// \file bench_resilience.cpp
/// \brief Robustness campaign: delivery under node crashes and lossy links.
///
/// Sweeps crash rate (loss fixed) and symmetric loss (crash rate fixed)
/// for flooding, the generic self-pruning framework and two pruning
/// baselines (DP, Wu-Li), all wrapped in the NACK recovery layer
/// (src/faults/recovery.hpp).  Per cell it reports the mean delivery
/// ratio over *reachable* nodes, the forward-node overhead, the
/// delivered/degraded/partitioned outcome split and the repair traffic.
///
/// Determinism: every run's simulation RNG and fault plan derive from
/// `runner::derive_run_seed` substreams of (seed, cell, run index); runs
/// are sharded over a thread pool but merged in run-index order, and the
/// JSON sink (schema adhoc-rows-v1, docs/PERF.md) carries no wall-clock or
/// jobs fields — the file is byte-identical at any --jobs value.
///
/// Extra flag (on top of bench_common's): --smoke shrinks the sweep to a
/// sanity-size grid for CI.
///
/// Partitioned runs are *not* failures (the topology, not the protocol,
/// made delivery impossible): the bench always exits 0 unless the sink
/// cannot be written.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <vector>

#include "algorithms/dominant_pruning.hpp"
#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "algorithms/wu_li.hpp"
#include "bench_common.hpp"
#include "faults/fault_plan.hpp"
#include "faults/outcome.hpp"
#include "faults/recovery.hpp"
#include "graph/unit_disk.hpp"
#include "runner/seed.hpp"
#include "runner/thread_pool.hpp"

using namespace adhoc;

namespace {

struct Cell {
    double crash_rate = 0.0;
    double loss = 0.0;
    /// >= 0: run under the kSinr backend with this capture threshold
    /// (alpha = 3, zero noise, vulnerability window 0.25, interference
    /// truncated at twice the communication range).  < 0: ideal medium.
    double beta = -1.0;
};

/// Per-algorithm outcome of one run.
struct RunOutcome {
    double delivery_ratio = 0.0;
    std::size_t forward = 0;
    faults::DeliveryOutcome outcome = faults::DeliveryOutcome::kDelivered;
    std::size_t retransmits = 0;
    std::size_t sinr_rejections = 0;
    std::size_t captures = 0;
};

/// Per-algorithm aggregate over one cell, merged in run-index order.  The
/// outcome tally lives in the shared bench::OutcomeMix so the D/g/p
/// bookkeeping stays identical to bench_scale's resilience panel.
struct AlgoStats {
    double delivery_sum = 0.0;
    double forward_sum = 0.0;
    bench::OutcomeMix mix;
    std::size_t retransmits = 0;
    std::size_t sinr_rejections = 0;
    std::size_t captures = 0;

    void add(const RunOutcome& r) {
        delivery_sum += r.delivery_ratio;
        forward_sum += static_cast<double>(r.forward);
        mix.add(r.outcome);
        retransmits += r.retransmits;
        sinr_rejections += r.sinr_rejections;
        captures += r.captures;
    }
};

struct CellResult {
    Cell cell;
    std::vector<AlgoStats> stats;  ///< one per algorithm
    std::string plan_note;         ///< run-0 fault plan, summarized
};

struct Panel {
    std::string title;
    std::vector<CellResult> cells;
};

/// Runs one cell: `runs` independent topologies, each with its own fault
/// plan, all four algorithms per topology.  Sharded over `pool`; the
/// result vector is indexed by run so aggregation order is fixed.
CellResult run_cell(const Cell& cell, std::size_t cell_tag,
                    const std::vector<const BroadcastAlgorithm*>& algorithms,
                    const bench::BenchOptions& opts, std::size_t node_count, double degree,
                    std::size_t runs, runner::ThreadPool& pool) {
    std::vector<std::vector<RunOutcome>> per_run(runs);
    std::atomic<std::size_t> remaining{runs};
    std::mutex done_mutex;
    std::condition_variable done_cv;

    // Cell substream: decorrelates cells without touching the run-seed
    // derivation contract (satellite of the jobs-invariance guarantee).
    const std::uint64_t cell_seed =
        opts.seed ^ runner::splitmix64(0xbe5111e4ceULL + cell_tag);

    for (std::size_t run = 0; run < runs; ++run) {
        pool.submit([&, run] {
            Rng rng(runner::derive_run_seed(cell_seed, node_count, degree, run));
            UnitDiskParams params;
            params.node_count = node_count;
            params.average_degree = degree;
            const UnitDiskNetwork net = generate_network_checked(params, rng);
            const NodeId source = static_cast<NodeId>(rng.index(net.graph.node_count()));

            faults::FaultSpec spec;
            spec.crash_rate = cell.crash_rate;
            const faults::FaultPlan plan =
                faults::make_fault_plan(spec, net.graph, source, cell_seed, run);

            MediumConfig medium;
            medium.loss_probability = cell.loss;
            if (cell.beta >= 0.0) {
                medium.backend = MediumBackend::kSinr;
                medium.sinr.beta = cell.beta;
                medium.sinr.vulnerability_window = 0.25;
                medium.sinr.interference_range = 2.0 * net.range;
                medium.positions = net.positions;
            }
            faults::RecoveryConfig recovery;  // defaults: NACK layer armed

            std::vector<RunOutcome> outcomes(algorithms.size());
            for (std::size_t a = 0; a < algorithms.size(); ++a) {
                Rng algo_rng = rng.fork();
                const ResilientResult r = algorithms[a]->broadcast_resilient(
                    net.graph, source, algo_rng, medium, plan, recovery);
                outcomes[a].delivery_ratio = r.summary.delivery_ratio;
                outcomes[a].forward = r.result.forward_count;
                outcomes[a].outcome = r.summary.outcome;
                outcomes[a].retransmits = r.result.retransmit_count;
                outcomes[a].sinr_rejections = r.result.sinr_rejections;
                outcomes[a].captures = r.result.captures;
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
    result.stats.resize(algorithms.size());
    for (std::size_t run = 0; run < runs; ++run) {  // fixed order: jobs-invariant sums
        for (std::size_t a = 0; a < algorithms.size(); ++a) {
            result.stats[a].add(per_run[run][a]);
        }
    }
    {
        // Regenerate run 0's plan (pure function of its seeds) for the
        // human-readable cell annotation — stdout only, never the sink.
        Rng rng(runner::derive_run_seed(cell_seed, node_count, degree, 0));
        UnitDiskParams params;
        params.node_count = node_count;
        params.average_degree = degree;
        const UnitDiskNetwork net = generate_network_checked(params, rng);
        const NodeId source = static_cast<NodeId>(rng.index(net.graph.node_count()));
        faults::FaultSpec spec;
        spec.crash_rate = cell.crash_rate;
        result.plan_note = bench::fault_plan_summary(
            faults::make_fault_plan(spec, net.graph, source, cell_seed, 0));
    }
    return result;
}

void print_panel(const Panel& panel, const std::vector<const BroadcastAlgorithm*>& algorithms,
                 std::size_t runs) {
    std::cout << panel.title << "  (mean delivery ratio | outcomes D/g/p per "
              << runs << " runs)\n";
    std::cout << "crash  loss  beta ";
    for (const BroadcastAlgorithm* a : algorithms) {
        std::cout << " | " << std::setw(20) << std::left << a->name();
    }
    std::cout << "\n";
    for (const CellResult& cr : panel.cells) {
        std::cout << std::fixed << std::setprecision(2) << std::setw(5) << cr.cell.crash_rate
                  << ' ' << std::setw(5) << cr.cell.loss << ' ' << std::setw(5)
                  << cr.cell.beta;
        for (const AlgoStats& s : cr.stats) {
            std::ostringstream col;
            col << std::fixed << std::setprecision(4)
                << s.delivery_sum / static_cast<double>(runs) << ' ' << std::setw(8)
                << s.mix.split();
            std::cout << " | " << std::setw(20) << std::left << col.str();
        }
        std::cout << "  [run0: " << cr.plan_note << "]\n";
    }
    std::cout << '\n';
}

/// The adhoc-rows-v1 document: one row per (panel, cell, algorithm).  It
/// carries no wall-clock or --jobs field, so the bytes depend only on
/// (seed, sweep, runs).
bench::RowsDoc rows_doc(const std::vector<Panel>& panels,
                        const std::vector<const BroadcastAlgorithm*>& algorithms,
                        const bench::BenchOptions& opts, std::size_t node_count, double degree,
                        std::size_t runs) {
    bench::RowsDoc doc("bench_resilience");
    doc.meta.count("seed", opts.seed)
        .count("node_count", node_count)
        .real("average_degree", degree)
        .count("runs_per_cell", runs);
    const auto per_run = static_cast<double>(runs);
    for (const Panel& panel : panels) {
        for (const CellResult& cr : panel.cells) {
            for (std::size_t a = 0; a < algorithms.size(); ++a) {
                const AlgoStats& s = cr.stats[a];
                bench::RowsDoc::Row& row = doc.rows.emplace_back();
                row.key.text("panel", panel.title)
                    .real("crash_rate", cr.cell.crash_rate)
                    .real("loss", cr.cell.loss)
                    .real("beta", cr.cell.beta)
                    .text("algorithm", algorithms[a]->name());
                row.deterministic.real("delivery_ratio", s.delivery_sum / per_run)
                    .real("forward_mean", s.forward_sum / per_run)
                    .count("delivered", s.mix.delivered)
                    .count("degraded", s.mix.degraded)
                    .count("partitioned", s.mix.partitioned)
                    .count("retransmits", s.retransmits)
                    .count("sinr_rejections", s.sinr_rejections)
                    .count("captures", s.captures);
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

    const std::size_t node_count = smoke ? 24 : 60;
    const double degree = 6.0;
    const std::size_t runs =
        smoke ? 6 : std::max<std::size_t>(opts.max_runs / 5, 10);

    const FloodingAlgorithm flooding;
    const GenericBroadcast generic(generic_fr_config(2), "Generic FR");
    const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
    const WuLiAlgorithm wu_li;
    const std::vector<const BroadcastAlgorithm*> algorithms = {&flooding, &generic, &dp,
                                                               &wu_li};

    const std::vector<double> crash_axis =
        smoke ? std::vector<double>{0.0, 0.2} : std::vector<double>{0.0, 0.05, 0.1, 0.2, 0.3};
    const std::vector<double> loss_axis =
        smoke ? std::vector<double>{0.0, 0.3} : std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.5};

    runner::ThreadPool pool(opts.jobs);
    std::cout << "bench_resilience: n=" << node_count << " d=" << degree << " runs=" << runs
              << " (recovery layer on; partitioned runs are not failures)\n\n";

    std::vector<Panel> panels;
    std::size_t cell_tag = 0;

    Panel crash_panel;
    crash_panel.title = "delivery vs crash rate (loss=0)";
    for (const double crash : crash_axis) {
        crash_panel.cells.push_back(run_cell({crash, 0.0}, cell_tag++, algorithms, opts,
                                             node_count, degree, runs, pool));
    }
    print_panel(crash_panel, algorithms, runs);
    panels.push_back(std::move(crash_panel));

    Panel loss_panel;
    loss_panel.title = "delivery vs loss (crash_rate=0.1)";
    for (const double loss : loss_axis) {
        loss_panel.cells.push_back(run_cell({0.1, loss}, cell_tag++, algorithms, opts,
                                            node_count, degree, runs, pool));
    }
    print_panel(loss_panel, algorithms, runs);
    panels.push_back(std::move(loss_panel));

    // SINR interference sweep (fault-free, lossless): how much delivery
    // each scheme loses as the capture threshold tightens.  beta = 0 is
    // the degenerate backend — it must match the ideal-medium row of the
    // crash panel's crash=0 cell in delivery, with zero rejections.
    const std::vector<double> beta_axis = smoke ? std::vector<double>{0.0, 0.5}
                                                : std::vector<double>{0.0, 0.1, 0.25, 0.5, 1.0};
    Panel sinr_panel;
    sinr_panel.title = "delivery vs SINR capture threshold (crash=0, loss=0)";
    for (const double beta : beta_axis) {
        sinr_panel.cells.push_back(run_cell({0.0, 0.0, beta}, cell_tag++, algorithms, opts,
                                            node_count, degree, runs, pool));
    }
    print_panel(sinr_panel, algorithms, runs);
    panels.push_back(std::move(sinr_panel));

    if (!opts.json_path.empty() &&
        !rows_doc(panels, algorithms, opts, node_count, degree, runs).write(opts.json_path)) {
        return 1;
    }
    return 0;
}
