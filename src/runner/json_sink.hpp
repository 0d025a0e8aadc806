/// \file json_sink.hpp
/// \brief The campaign sink: sweep results as a BENCH_*.json document.
///
/// Every sweep bench (bench_campaign's figures, the ablation binaries) can
/// mirror its tables into one JSON document (flag `--json PATH`), so sweeps
/// become diffable artifacts that plotting scripts consume without scraping
/// stdout.  The gated benches (bench_micro, bench_resilience,
/// bench_saturation, bench_scale) write `adhoc-rows-v1` instead; see
/// docs/PERF.md.  Schema `adhoc-bench-v1`:
///
/// {
///   "schema": "adhoc-bench-v1",
///   "bench": "fig10_timing",            // binary/campaign entry name
///   "seed": 42, "jobs": 8,
///   "min_runs": 30, "max_runs": 200,
///   "wall_time_seconds": 1.234,
///   "delivery_failures": 0,             // total across panels; must be 0
///   "metrics": { ... },                 // optional: campaign telemetry aggregate
///                                       // (telemetry/sinks.hpp, timing excluded)
///   "panels": [
///     { "title": "d=6, 2-hop", "average_degree": 6,
///       "series": [
///         { "name": "Static",
///           "points": [ { "n": 20, "mean_forward": ..., "ci_half_width": ...,
///                         "mean_completion_time": ..., "runs": ...,
///                         "delivery_failures": ... } ] } ] } ]
/// }

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats/experiment.hpp"

namespace adhoc::runner {

/// One printed table panel (a density within a figure).
struct PanelResult {
    std::string title;
    double average_degree = 0.0;
    std::vector<AlgorithmSeries> series;
};

/// Run-level metadata recorded next to the results.
struct BenchRunInfo {
    std::string name;
    std::uint64_t seed = 0;
    std::size_t jobs = 1;
    std::size_t min_runs = 0;
    std::size_t max_runs = 0;
    double wall_seconds = 0.0;
    std::size_t delivery_failures = 0;
    /// Pre-serialized telemetry aggregate (telemetry::metrics_json with
    /// timing excluded, so the object is jobs-invariant).  Emitted verbatim
    /// as the "metrics" member when non-empty; empty = telemetry disabled.
    std::string metrics_json;
};

/// Writes the full document (pretty-printed, trailing newline).
void write_bench_json(std::ostream& out, const BenchRunInfo& info,
                      const std::vector<PanelResult>& panels);

}  // namespace adhoc::runner
