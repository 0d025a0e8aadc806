#include "runner/json_sink.hpp"

#include <ostream>

#include "io/json.hpp"

namespace adhoc::runner {

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
    out << io::json_number(info.wall_seconds);
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
        out << io::json_number(panel.average_degree);
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
                out << io::json_number(point.mean_forward);
                out << ", \"ci_half_width\": ";
                out << io::json_number(point.ci_half_width);
                out << ", \"mean_completion_time\": ";
                out << io::json_number(point.mean_completion_time);
                out << ", \"runs\": " << point.runs
                    << ", \"delivery_failures\": " << point.delivery_failures << "}";
            }
            out << "\n          ]\n        }";
        }
        out << "\n      ]\n    }";
    }
    out << "\n  ]\n}\n";
}

}  // namespace adhoc::runner
