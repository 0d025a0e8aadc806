#include "io/dot.hpp"

#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace adhoc {

void write_dot(std::ostream& out, const Graph& g, const NodeStyling& styling) {
    out << "graph adhoc {\n  node [shape=circle];\n";
    for (NodeId v = 0; v < g.node_count(); ++v) {
        out << "  " << v;
        std::vector<std::string_view> attrs;
        if (v < styling.forward.size() && styling.forward[v]) {
            attrs.push_back("style=filled, fillcolor=black, fontcolor=white");
        }
        if (v == styling.source) attrs.push_back("shape=doublecircle");
        if (!attrs.empty()) {
            out << " [";
            for (std::size_t i = 0; i < attrs.size(); ++i) {
                if (i > 0) out << ", ";
                out << attrs[i];
            }
            out << ']';
        }
        out << ";\n";
    }
    for (const Edge& e : g.edges()) out << "  " << e.a << " -- " << e.b << ";\n";
    out << "}\n";
}

std::string to_dot_string(const Graph& g, const NodeStyling& styling) {
    std::ostringstream out;
    write_dot(out, g, styling);
    return out.str();
}

}  // namespace adhoc
