#include "runner/json_sink.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "io/json.hpp"

namespace adhoc::runner {

namespace {

/// Shortest round-trippable rendering of a double; JSON has no NaN/Inf, so
/// those (never produced by the stats layer) degrade to null.
void write_number(std::ostream& out, double x) {
    if (!std::isfinite(x)) {
        out << "null";
        return;
    }
    if (x == std::floor(x) && std::fabs(x) < 1e15) {
        char integral[32];
        std::snprintf(integral, sizeof(integral), "%.0f", x);
        out << integral;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    // Trim to the shortest representation that still round-trips.
    for (int precision = 1; precision < 17; ++precision) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", precision, x);
        double parsed = 0.0;
        std::sscanf(shorter, "%lf", &parsed);
        if (parsed == x) {
            out << shorter;
            return;
        }
    }
    out << buf;
}

}  // namespace

void write_bench_json(std::ostream& out, const BenchRunInfo& info,
                      const std::vector<PanelResult>& panels) {
    out << "{\n";
    out << "  \"schema\": \"adhoc-bench-v1\",\n";
    out << "  \"bench\": \"" << io::json_escape(info.name) << "\",\n";
    out << "  \"seed\": " << info.seed << ",\n";
    out << "  \"jobs\": " << info.jobs << ",\n";
    out << "  \"min_runs\": " << info.min_runs << ",\n";
    out << "  \"max_runs\": " << info.max_runs << ",\n";
    out << "  \"wall_time_seconds\": ";
    write_number(out, info.wall_seconds);
    out << ",\n";
    out << "  \"delivery_failures\": " << info.delivery_failures << ",\n";
    if (!info.metrics_json.empty()) {
        out << "  \"metrics\": " << info.metrics_json << ",\n";
    }
    out << "  \"panels\": [";
    for (std::size_t p = 0; p < panels.size(); ++p) {
        const PanelResult& panel = panels[p];
        out << (p == 0 ? "\n" : ",\n");
        out << "    {\n";
        out << "      \"title\": \"" << io::json_escape(panel.title) << "\",\n";
        out << "      \"average_degree\": ";
        write_number(out, panel.average_degree);
        out << ",\n";
        out << "      \"series\": [";
        for (std::size_t s = 0; s < panel.series.size(); ++s) {
            const AlgorithmSeries& series = panel.series[s];
            out << (s == 0 ? "\n" : ",\n");
            out << "        {\n";
            out << "          \"name\": \"" << io::json_escape(series.name) << "\",\n";
            out << "          \"points\": [";
            for (std::size_t i = 0; i < series.points.size(); ++i) {
                const SeriesPoint& point = series.points[i];
                out << (i == 0 ? "\n" : ",\n");
                out << "            {\"n\": " << point.node_count << ", \"mean_forward\": ";
                write_number(out, point.mean_forward);
                out << ", \"ci_half_width\": ";
                write_number(out, point.ci_half_width);
                out << ", \"mean_completion_time\": ";
                write_number(out, point.mean_completion_time);
                out << ", \"runs\": " << point.runs
                    << ", \"delivery_failures\": " << point.delivery_failures << "}";
            }
            out << "\n          ]\n        }";
        }
        out << "\n      ]\n    }";
    }
    out << "\n  ]\n}\n";
}

void write_micro_json(std::ostream& out, const MicroRunInfo& info,
                      const std::vector<MicroKernelResult>& kernels) {
    out << "{\n";
    out << "  \"schema\": \"adhoc-micro-v1\",\n";
    out << "  \"bench\": \"" << io::json_escape(info.name) << "\",\n";
    out << "  \"seed\": " << info.seed << ",\n";
    out << "  \"smoke\": " << (info.smoke ? "true" : "false") << ",\n";
    out << "  \"wall_time_seconds\": ";
    write_number(out, info.wall_seconds);
    out << ",\n";
    out << "  \"kernels\": [";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const MicroKernelResult& k = kernels[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"name\": \"" << io::json_escape(k.name) << "\", \"n\": " << k.n
            << ", \"reps\": " << k.reps << ", \"ref_ns\": ";
        write_number(out, k.ref_ns);
        out << ", \"opt_ns\": ";
        write_number(out, k.opt_ns);
        out << ", \"speedup\": ";
        write_number(out, k.speedup);
        out << ", \"match\": " << (k.match ? "true" : "false") << "}";
    }
    out << "\n  ]\n}\n";
}

}  // namespace adhoc::runner
