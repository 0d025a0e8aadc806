/// \file bench_common.hpp
/// \brief Shared scaffolding for the figure-reproduction benches.
///
/// Every sweep bench (bench_campaign's figures, the ablation binaries)
/// runs the paper's sweep (n = 20..100, d ∈ {6, 18}) for its algorithm set
/// and prints paper-style tables.  Command line:
///   --runs N     cap repetitions per cell (default 200)
///   --full       run until the paper's CI rule (90% CI within ±1%) or 2000
///   --seed S     change the base seed
///   --jobs N     shard runs over N worker threads (0 = all hardware
///                threads).  Results are bit-for-bit identical at any
///                value; only wall-clock time changes.
///   --json PATH  mirror results into a machine-readable BENCH JSON file
///                (schema adhoc-bench-v1, see runner/json_sink.hpp)
///   --csv        additionally emit CSV blocks
///   --gnuplot P  write gnuplot-ready data files P_<panel>.dat
///   --progress   progress/ETA line per panel on stderr
///
/// Benches create one `Bench` session, run panels through it, and return
/// `finish()` from main: the session aggregates delivery failures across
/// panels (deterministic schemes must never fail delivery — a nonzero
/// count makes the process exit nonzero), tracks wall time, and writes the
/// JSON sink.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/outcome.hpp"
#include "graph/unit_disk.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "runner/campaign.hpp"
#include "runner/json_sink.hpp"
#include "runner/progress.hpp"
#include "runner/seed.hpp"
#include "stats/experiment.hpp"
#include "stats/table.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc::bench {

/// Outcome-class tally shared by the robustness benches (bench_resilience
/// and bench_scale's --resilience panel): counts of runs per
/// delivered/degraded/partitioned class, printed as the "D/g/p" split.
struct OutcomeMix {
    std::size_t delivered = 0;
    std::size_t degraded = 0;
    std::size_t partitioned = 0;

    void add(faults::DeliveryOutcome outcome) {
        switch (outcome) {
            case faults::DeliveryOutcome::kDelivered: ++delivered; break;
            case faults::DeliveryOutcome::kDegraded: ++degraded; break;
            case faults::DeliveryOutcome::kPartitioned: ++partitioned; break;
        }
    }

    [[nodiscard]] std::string split() const {
        return std::to_string(delivered) + '/' + std::to_string(degraded) + '/' +
               std::to_string(partitioned);
    }
};

/// Members of one JSON object in insertion order: a row's key,
/// deterministic, ratios or timing block, or a document's meta.
class Fields {
  public:
    Fields& count(std::string_view name, std::uint64_t value) {
        return add(name, std::to_string(value));
    }
    Fields& real(std::string_view name, double value) {
        return add(name, io::json_number(value));
    }
    Fields& flag(std::string_view name, bool value) {
        return add(name, value ? "true" : "false");
    }
    Fields& text(std::string_view name, std::string_view value) {
        return add(name, '"' + io::json_escape(value) + '"');
    }
    /// A timing entry: every repetition (at least one), then their min
    /// and median.
    Fields& samples(std::string_view name, std::vector<double> reps) {
        std::string list = "{\"reps\": [";
        for (std::size_t i = 0; i < reps.size(); ++i) {
            if (i != 0) list += ", ";
            list += io::json_number(reps[i]);
        }
        std::sort(reps.begin(), reps.end());
        const std::size_t m = reps.size() / 2;
        const double median = reps.size() % 2 == 1 ? reps[m] : 0.5 * (reps[m - 1] + reps[m]);
        return add(name, list + "], \"min\": " + io::json_number(reps.front()) +
                             ", \"median\": " + io::json_number(median) + '}');
    }
    [[nodiscard]] bool empty() const { return body_.empty(); }
    [[nodiscard]] std::string json() const { return '{' + body_ + '}'; }

  private:
    Fields& add(std::string_view name, const std::string& value) {
        if (!body_.empty()) body_ += ", ";
        body_ += '"' + io::json_escape(name) + "\": " + value;
        return *this;
    }
    std::string body_;
};

/// One `adhoc-rows-v1` document, the schema of every document that
/// tools/check_bench.py gates (docs/PERF.md).  `meta` holds run-invariant
/// fields only; anything that varies with --jobs or the wall clock goes in
/// a row's `timing`.  `ratios` (same-process speedups) is written only
/// when a row has one.
struct RowsDoc {
    struct Row {
        Fields key;
        Fields deterministic;
        Fields ratios;
        Fields timing;
    };

    explicit RowsDoc(std::string name) : bench(std::move(name)) {}

    std::string bench;
    Fields meta;
    std::vector<Row> rows;

    /// Writes the document to `path`; false, with a message on stderr,
    /// when the file cannot be opened.
    [[nodiscard]] bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) {
            std::cerr << bench << ": cannot write " << path << '\n';
            return false;
        }
        out << "{\n  \"schema\": \"adhoc-rows-v1\",\n  \"bench\": \"" << io::json_escape(bench)
            << "\",\n  \"meta\": " << meta.json() << ",\n  \"rows\": [";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row& r = rows[i];
            out << (i == 0 ? "\n" : ",\n") << "    {\"key\": " << r.key.json()
                << ", \"deterministic\": " << r.deterministic.json();
            if (!r.ratios.empty()) out << ", \"ratios\": " << r.ratios.json();
            out << ", \"timing\": " << r.timing.json() << '}';
        }
        out << "\n  ]\n}\n";
        return true;
    }
};

/// bench_scale's constant-density placement (also bench_micro's large
/// compile_ball rows): n uniform points in a 1000 x 1000 square with the
/// analytic degree-6 range, which keeps construction O(n) through the
/// spatial grid (range_for_link_count would be O(n^2) pairs).  Pure
/// function of (seed, n).
inline Graph scale_placement(std::uint64_t seed, std::size_t n) {
    Rng rng(runner::splitmix64(seed ^ (0x5ca1eULL * n)));
    const double area = 1000.0;
    std::vector<Point2D> positions(n);
    for (Point2D& p : positions) {
        p.x = rng.uniform(0.0, area);
        p.y = rng.uniform(0.0, area);
    }
    const double range =
        std::sqrt(6.0 * area * area / (3.14159265358979323846 * static_cast<double>(n)));
    return unit_disk_graph(positions, range);
}

/// One-line human summary of a fault plan for bench cell headers:
/// "<crashes> crashes (<recovers> recover), <flaps> link flaps, <asym>
/// asym links".  Sections with zero entries are omitted; an empty plan
/// reads "fault-free".
inline std::string fault_plan_summary(const faults::FaultPlan& plan) {
    std::size_t crashes = 0;
    std::size_t recovers = 0;
    std::size_t flaps = 0;
    for (const faults::FaultEvent& e : plan.events) {
        switch (e.kind) {
            case faults::FaultKind::kNodeCrash: ++crashes; break;
            case faults::FaultKind::kNodeRecover: ++recovers; break;
            case faults::FaultKind::kLinkDown: ++flaps; break;
            case faults::FaultKind::kLinkUp: break;  // counted by their kLinkDown
        }
    }
    std::string out;
    const auto append = [&out](const std::string& part) {
        if (!out.empty()) out += ", ";
        out += part;
    };
    if (crashes > 0) {
        append(std::to_string(crashes) + " crashes (" + std::to_string(recovers) +
               " recover)");
    }
    if (flaps > 0) append(std::to_string(flaps) + " link flaps");
    if (!plan.asymmetry.empty()) {
        append(std::to_string(plan.asymmetry.size()) + " asym links");
    }
    if (!plan.hello_bursts.empty()) {
        append(std::to_string(plan.hello_bursts.size()) + " hello bursts");
    }
    return out.empty() ? "fault-free" : out;
}

struct BenchOptions {
    std::size_t max_runs = 200;
    std::size_t min_runs = 30;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;        ///< 0 = all hardware threads
    bool csv = false;
    bool progress = false;       ///< progress/ETA on stderr
    std::string gnuplot_prefix;  ///< empty = no data files
    std::string json_path;       ///< empty = no JSON sink
};

inline BenchOptions parse_options(int argc, char** argv) {
    BenchOptions opts;
    // Numeric values must parse in full (io/cli.hpp): "--runs 5x" used to
    // silently run 5 and "--runs x" ran 0.  Unknown arguments are still
    // ignored — wrappers (bench_campaign) route their own flags through
    // the same argv.
    const auto numeric = [&](const char* flag, const char* text) -> std::size_t {
        const auto value = io::parse_size(text);
        if (!value) {
            std::cerr << "invalid value for " << flag << ": '" << text
                      << "' (usage: --help)\n";
            std::exit(2);
        }
        return *value;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--runs" && i + 1 < argc) {
            opts.max_runs = numeric("--runs", argv[++i]);
        } else if (arg == "--full") {
            opts.max_runs = 2000;
        } else if (arg == "--seed" && i + 1 < argc) {
            const auto seed = io::parse_u64(argv[i + 1]);
            if (!seed) {
                std::cerr << "invalid value for --seed: '" << argv[i + 1]
                          << "' (usage: --help)\n";
                std::exit(2);
            }
            opts.seed = *seed;
            ++i;
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = numeric("--jobs", argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            opts.json_path = argv[++i];
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--gnuplot" && i + 1 < argc) {
            opts.gnuplot_prefix = argv[++i];
        } else if (arg == "--help") {
            std::cout << "options: --runs N | --full | --seed S | --jobs N | --json PATH | "
                         "--csv | --gnuplot PREFIX | --progress\n";
            std::exit(0);
        }
    }
    return opts;
}

inline ExperimentConfig sweep_config(const BenchOptions& opts, double degree) {
    ExperimentConfig cfg;
    cfg.average_degree = degree;
    cfg.min_runs = opts.min_runs;
    cfg.max_runs = opts.max_runs;
    cfg.seed = opts.seed;
    cfg.jobs = opts.jobs;
    return cfg;
}

/// One bench invocation: runs panels, collects them for the JSON sink, and
/// turns delivery failures into a nonzero exit status.
class Bench {
  public:
    Bench(std::string name, BenchOptions opts)
        : name_(std::move(name)),
          opts_(std::move(opts)),
          start_(std::chrono::steady_clock::now()) {}

    /// Runs one panel (one density) and prints the table (plus CSV if asked).
    void run_panel(const std::string& title,
                   const std::vector<const BroadcastAlgorithm*>& algorithms, double degree) {
        runner::CampaignOptions campaign;
        campaign.jobs = opts_.jobs;
        telemetry::Snapshot panel_metrics;
        if (telemetry::enabled()) campaign.telemetry_out = &panel_metrics;
        runner::ProgressMeter meter(std::cerr, name_ + " " + title);
        if (opts_.progress) {
            campaign.on_progress = [&meter](const runner::CampaignProgress& p) {
                meter.update(p.cells_done, p.cells_total, p.runs_done);
            };
        }
        auto series = runner::run_campaign(algorithms, sweep_config(opts_, degree), campaign);
        if (opts_.progress) meter.finish();
        metrics_.merge(panel_metrics);  // panels run serially: fixed merge order

        std::cout << format_table(title, series) << '\n';
        if (opts_.csv) {
            std::cout << "-- csv --\n";
            write_csv(std::cout, series);
            std::cout << '\n';
        }
        if (!opts_.gnuplot_prefix.empty()) {
            std::string slug = title;
            for (char& c : slug) {
                if (c == ' ' || c == ',' || c == '=') c = '_';
            }
            std::ofstream data(opts_.gnuplot_prefix + "_" + slug + ".dat");
            write_gnuplot(data, title, series);
        }
        // Correctness guard: deterministic schemes must never fail delivery.
        for (const auto& s : series) {
            for (const auto& p : s.points) {
                if (p.delivery_failures != 0) {
                    std::cerr << "WARNING: " << s.name << " failed delivery "
                              << p.delivery_failures << "x at n=" << p.node_count << '\n';
                    delivery_failures_ += p.delivery_failures;
                }
            }
        }
        panels_.push_back({title, degree, std::move(series)});
    }

    /// For benches with bespoke loops: fold external failures into the guard.
    void note_delivery_failure(std::size_t count = 1) { delivery_failures_ += count; }

    [[nodiscard]] const BenchOptions& options() const noexcept { return opts_; }

    /// Writes the JSON sink (if requested) and returns the process exit
    /// code: nonzero iff any delivery failure was observed.
    [[nodiscard]] int finish() {
        if (!opts_.json_path.empty()) {
            runner::BenchRunInfo info;
            info.name = name_;
            info.seed = opts_.seed;
            info.jobs = opts_.jobs;
            info.min_runs = opts_.min_runs;
            info.max_runs = opts_.max_runs;
            info.wall_seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                    .count();
            info.delivery_failures = delivery_failures_;
            if (telemetry::enabled() && !metrics_.empty()) {
                // Timing excluded: the embedded object is bit-identical at
                // any --jobs value (see telemetry/sinks.hpp).
                info.metrics_json =
                    telemetry::metrics_json(metrics_, /*include_timing=*/false);
            }
            std::ofstream out(opts_.json_path);
            if (!out) {
                std::cerr << name_ << ": cannot write " << opts_.json_path << '\n';
                return 1;
            }
            runner::write_bench_json(out, info, panels_);
        }
        if (delivery_failures_ != 0) {
            std::cerr << name_ << ": " << delivery_failures_
                      << " delivery failure(s) — deterministic schemes must deliver to "
                         "every node\n";
            return 1;
        }
        return 0;
    }

  private:
    std::string name_;
    BenchOptions opts_;
    std::chrono::steady_clock::time_point start_;
    std::vector<runner::PanelResult> panels_;
    telemetry::Snapshot metrics_;  ///< campaign aggregates, panel order
    std::size_t delivery_failures_ = 0;
};

}  // namespace adhoc::bench
