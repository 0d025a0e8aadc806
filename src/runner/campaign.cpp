#include "runner/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <utility>

#include "graph/unit_disk.hpp"
#include "runner/seed.hpp"
#include "runner/thread_pool.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc::runner {

namespace {

namespace tel = telemetry;

const tel::MetricId kRunTimer = tel::timer("campaign.run");
const tel::MetricId kRuns = tel::counter("campaign.runs", "runs");
const tel::MetricId kRounds = tel::counter("campaign.rounds", "rounds");

/// Single-run Welford partials, one slot per algorithm.  Produced on a
/// worker, merged into the cell accumulators in run-index order.
struct RunPartial {
    std::vector<Summary> forward;
    std::vector<Summary> completion;
    std::vector<char> delivered;
    tel::Snapshot telemetry;  ///< everything recorded during this run
};

struct CellState {
    std::size_t node_count = 0;
    std::size_t runs_done = 0;
    std::vector<Summary> forward;
    std::vector<Summary> completion;
    std::vector<std::size_t> failures;
    tel::Snapshot telemetry;                   ///< run snapshots, run-index order
    std::vector<RunPartial> round;             ///< storage for the in-flight round
    std::atomic<std::size_t> round_remaining{0};
    bool done = false;
};

class CampaignExecutor {
  public:
    CampaignExecutor(const std::vector<const BroadcastAlgorithm*>& algorithms,
                     const ExperimentConfig& config, const CampaignOptions& options,
                     ThreadPool& pool)
        : algorithms_(algorithms), config_(config), options_(options), pool_(pool) {
        cells_.reserve(config.node_counts.size());
        for (std::size_t n : config.node_counts) {
            auto cell = std::make_unique<CellState>();
            cell->node_count = n;
            cell->forward.resize(algorithms.size());
            cell->completion.resize(algorithms.size());
            cell->failures.assign(algorithms.size(), 0);
            cells_.push_back(std::move(cell));
        }
    }

    std::vector<AlgorithmSeries> execute() {
        for (auto& cell : cells_) {
            const std::size_t first = round_size(*cell);
            if (first == 0) {  // max_runs == 0: empty cell
                std::lock_guard<std::mutex> lock(mutex_);
                finish_cell_locked(*cell);
            } else {
                launch_round(*cell, first);
            }
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            all_done_.wait(lock, [this] {
                return outstanding_ == 0 && (error_ || cells_done_ == cells_.size());
            });
        }
        if (error_) std::rethrow_exception(error_);

        if (options_.telemetry_out) {
            tel::Snapshot aggregate;
            for (const auto& cell : cells_) aggregate.merge(cell->telemetry);
            aggregate.merge(extra_telemetry_);
            *options_.telemetry_out = std::move(aggregate);
        }

        std::vector<AlgorithmSeries> series(algorithms_.size());
        for (std::size_t a = 0; a < algorithms_.size(); ++a) {
            series[a].name = algorithms_[a]->name();
            series[a].points.reserve(cells_.size());
            for (const auto& cell : cells_) {
                SeriesPoint p;
                p.node_count = cell->node_count;
                p.mean_forward = cell->forward[a].mean();
                p.ci_half_width = cell->forward[a].ci_half_width(config_.ci_z);
                p.mean_completion_time = cell->completion[a].mean();
                p.runs = cell->runs_done;
                p.delivery_failures = cell->failures[a];
                series[a].points.push_back(p);
            }
        }
        return series;
    }

  private:
    /// Runs per round: `min_runs` tasks at a time (jobs-independent),
    /// clamped so the cell never exceeds `max_runs`.
    [[nodiscard]] std::size_t round_size(const CellState& cell) const {
        const std::size_t batch = std::max<std::size_t>(config_.min_runs, 1);
        const std::size_t left = config_.max_runs - std::min(cell.runs_done, config_.max_runs);
        return std::min(batch, left);
    }

    void launch_round(CellState& cell, std::size_t size) {
        cell.round.assign(size, RunPartial{});
        cell.round_remaining.store(size, std::memory_order_release);
        outstanding_.fetch_add(size, std::memory_order_release);
        const std::size_t base = cell.runs_done;
        for (std::size_t slot = 0; slot < size; ++slot) {
            pool_.submit([this, &cell, slot, run_index = base + slot] {
                run_task(cell, slot, run_index);
            });
        }
    }

    void run_task(CellState& cell, std::size_t slot, std::size_t run_index) noexcept {
        try {
            execute_run(cell, slot, run_index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_) error_ = std::current_exception();
        }
        if (cell.round_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            complete_round(cell);
        }
        if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mutex_);
            all_done_.notify_all();
        }
    }

    void execute_run(CellState& cell, std::size_t slot, std::size_t run_index) {
        RunPartial partial;
        partial.forward.resize(algorithms_.size());
        partial.completion.resize(algorithms_.size());
        partial.delivered.assign(algorithms_.size(), 1);

        {
            tel::RunScope scope;  // captures this run's metrics on this worker
            {
                tel::ScopedTimer span(kRunTimer);  // must end before harvest()
                tel::count(kRuns);

                Rng run_rng(derive_run_seed(config_.seed, cell.node_count,
                                            config_.average_degree, run_index));
                UnitDiskParams params;
                params.node_count = cell.node_count;
                params.average_degree = config_.average_degree;
                params.area_side = config_.area_side;
                const UnitDiskNetwork net = generate_network_checked(params, run_rng);
                const NodeId source =
                    static_cast<NodeId>(run_rng.index(net.graph.node_count()));

                for (std::size_t a = 0; a < algorithms_.size(); ++a) {
                    Rng algo_rng = run_rng.fork();
                    const BroadcastResult result =
                        algorithms_[a]->broadcast(net.graph, source, algo_rng);
                    partial.forward[a].add(static_cast<double>(result.forward_count));
                    partial.completion[a].add(result.completion_time);
                    partial.delivered[a] = result.full_delivery ? 1 : 0;
                }
            }
            partial.telemetry = scope.harvest();
        }
        if (tel::jsonl_enabled()) {
            tel::jsonl_write_run("campaign.run",
                                 {{"n", static_cast<std::uint64_t>(cell.node_count)},
                                  {"run", static_cast<std::uint64_t>(run_index)}},
                                 partial.telemetry);
        }
        cell.round[slot] = std::move(partial);
    }

    /// Called by the last task of a round; no other thread touches the cell
    /// until the next round is launched, so merging needs no cell lock.
    /// The one exception is `runs_done`, which progress reports read for
    /// every cell under `mutex_` — so it is only written under `mutex_`.
    void complete_round(CellState& cell) {
        for (const RunPartial& partial : cell.round) {  // run-index order
            if (partial.forward.empty()) continue;      // run aborted by exception
            for (std::size_t a = 0; a < algorithms_.size(); ++a) {
                cell.forward[a].merge(partial.forward[a]);
                cell.completion[a].merge(partial.completion[a]);
                if (!partial.delivered[a]) ++cell.failures[a];
            }
            cell.telemetry.merge(partial.telemetry);
        }
        const std::size_t runs_done = cell.runs_done + cell.round.size();
        cell.round.clear();

        bool stop = runs_done >= config_.max_runs;
        if (!stop && runs_done >= config_.min_runs) {
            stop = std::all_of(cell.forward.begin(), cell.forward.end(), [this](const Summary& s) {
                return s.ci_within(config_.ci_fraction, config_.ci_z, config_.min_runs,
                                   config_.ci_abs_epsilon);
            });
        }

        std::unique_lock<std::mutex> lock(mutex_);
        cell.runs_done = runs_done;
        if (tel::enabled()) extra_telemetry_.add_count(kRounds);
        if (error_) stop = true;  // abort: stop scheduling new work
        if (stop) {
            finish_cell_locked(cell);
            report_progress_locked();
        } else {
            report_progress_locked();
            lock.unlock();
            launch_round(cell, round_size(cell));
        }
    }

    void finish_cell_locked(CellState& cell) {
        assert(!cell.done);
        cell.done = true;
        ++cells_done_;
        if (cells_done_ == cells_.size()) all_done_.notify_all();
    }

    void report_progress_locked() {
        if (!options_.on_progress) return;
        CampaignProgress progress;
        progress.cells_total = cells_.size();
        progress.cells_done = cells_done_;
        for (const auto& cell : cells_) progress.runs_done += cell->runs_done;
        options_.on_progress(progress);
    }

    const std::vector<const BroadcastAlgorithm*>& algorithms_;
    const ExperimentConfig& config_;
    const CampaignOptions& options_;
    ThreadPool& pool_;

    std::vector<std::unique_ptr<CellState>> cells_;
    tel::Snapshot extra_telemetry_;  ///< campaign-level counts, guarded by mutex_
    std::atomic<std::size_t> outstanding_{0};
    std::mutex mutex_;
    std::condition_variable all_done_;
    std::size_t cells_done_ = 0;
    std::exception_ptr error_;
};

}  // namespace

std::vector<AlgorithmSeries> run_campaign(
    const std::vector<const BroadcastAlgorithm*>& algorithms, const ExperimentConfig& config,
    const CampaignOptions& options) {
    assert(!algorithms.empty());
    ThreadPool pool(options.jobs);
    CampaignExecutor executor(algorithms, config, options, pool);
    return executor.execute();
}

}  // namespace adhoc::runner
