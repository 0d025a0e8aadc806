// Unit tests for edge-list / DOT / SVG output and the JSON module.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "io/dot.hpp"
#include "io/edge_list.hpp"
#include "io/json.hpp"
#include "io/svg.hpp"

namespace adhoc {
namespace {

TEST(EdgeList, RoundTrip) {
    const Graph g = grid_graph(3, 3);
    const std::string text = to_edge_list_string(g);
    const auto parsed = from_edge_list_string(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, g);
}

TEST(EdgeList, CommentsAndBlanksIgnored) {
    const std::string text = "# a comment\n\nn 3\n# another\n0 1\n 1 2\n";
    const auto parsed = from_edge_list_string(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->edge_count(), 2u);
}

TEST(EdgeList, MissingHeaderFails) {
    std::string error;
    EXPECT_FALSE(from_edge_list_string("0 1\n", &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(EdgeList, BadEdgeFails) {
    std::string error;
    EXPECT_FALSE(from_edge_list_string("n 3\n0 7\n", &error).has_value());
    EXPECT_NE(error.find("invalid edge"), std::string::npos);
    EXPECT_FALSE(from_edge_list_string("n 3\n1 1\n").has_value());  // self loop
    EXPECT_FALSE(from_edge_list_string("n 3\n0\n").has_value());    // half edge
}

TEST(EdgeList, EmptyInputFails) {
    std::string error;
    EXPECT_FALSE(from_edge_list_string("", &error).has_value());
}

TEST(Dot, ContainsNodesEdgesAndStyling) {
    const Graph g = path_graph(3);
    NodeStyling styling;
    styling.forward = {0, 1, 0};
    styling.source = 0;
    const std::string dot = to_dot_string(g, styling);
    EXPECT_NE(dot.find("graph adhoc"), std::string::npos);
    EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
    EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
    EXPECT_NE(dot.find("fillcolor=black"), std::string::npos);
    EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

TEST(Svg, WellFormedAndMarksClasses) {
    const Graph g = path_graph(3);
    const std::vector<Point2D> pos{{0, 0}, {50, 50}, {100, 100}};
    SvgOptions opts;
    opts.forward = {0, 1, 0};
    opts.source = 0;
    opts.title = "test plot";
    const std::string svg = to_svg_string(g, pos, opts);
    EXPECT_EQ(svg.rfind("<svg", 0), 0u);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("test plot"), std::string::npos);
    EXPECT_NE(svg.find("<line"), std::string::npos);    // edges
    EXPECT_NE(svg.find("<rect x="), std::string::npos); // forward node square
    EXPECT_NE(svg.find("fill=\"red\""), std::string::npos);  // source
    EXPECT_NE(svg.find("<path"), std::string::npos);    // non-forward plus mark
}

TEST(Svg, DegeneratePositionsDoNotCrash) {
    const Graph g = path_graph(2);
    const std::vector<Point2D> pos{{5, 5}, {5, 5}};  // zero span
    const std::string svg = to_svg_string(g, pos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, ReceiveTimesFromTrace) {
    Trace trace;
    trace.enable();
    trace.record(0.0, TraceKind::kTransmit, 0);
    trace.record(1.0, TraceKind::kReceive, 1, 0);
    trace.record(2.0, TraceKind::kReceive, 2, 1);
    trace.record(3.0, TraceKind::kReceive, 1, 2);  // duplicate: ignored
    const auto times = receive_times_from_trace(4, trace, 0);
    EXPECT_DOUBLE_EQ(times[0], 0.0);   // source
    EXPECT_DOUBLE_EQ(times[1], 1.0);   // first receipt wins
    EXPECT_DOUBLE_EQ(times[2], 2.0);
    EXPECT_DOUBLE_EQ(times[3], -1.0);  // never reached
}

TEST(Svg, TimelineRendersReachedUnreachedAndForward) {
    const Graph g = path_graph(3);
    const std::vector<Point2D> pos{{0, 0}, {50, 0}, {100, 0}};
    TimelineOptions opts;
    opts.receive_time = {0.0, 1.0, -1.0};
    opts.forward = {1, 0, 0};
    opts.source = 0;
    opts.title = "timeline";
    std::ostringstream out;
    write_svg_timeline(out, g, pos, opts);
    const std::string svg = out.str();
    EXPECT_NE(svg.find("timeline"), std::string::npos);
    EXPECT_NE(svg.find("fill=\"none\""), std::string::npos);      // unreached hollow
    EXPECT_NE(svg.find("stroke=\"black\""), std::string::npos);   // forward outline
    EXPECT_NE(svg.find("rgb("), std::string::npos);               // heat colors
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Json, NumbersRoundTripInShortestForm) {
    EXPECT_EQ(io::json_number(3.0), "3");
    EXPECT_EQ(io::json_number(-0.5), "-0.5");
    EXPECT_EQ(io::json_number(0.1), "0.1");
    EXPECT_EQ(io::json_number(std::numeric_limits<double>::infinity()), "null");
    for (const double x : {1.0 / 3.0, 36138.083333333336, 1e-7, 2.5e300}) {
        std::string error;
        const auto doc = io::parse_json("{\"x\": " + io::json_number(x) + "}", &error);
        ASSERT_TRUE(doc.has_value()) << error;
        double back = 0.0;
        ASSERT_TRUE(io::get_number(*doc->get<io::JsonObject>(), "x", &back, &error));
        EXPECT_EQ(back, x);
    }
}

TEST(Json, AccessorsCheckTypesAndIntegerRange) {
    const auto doc = io::parse_json(
        R"({"n": 9007199254740992, "big": 9007199254740994, "neg": -1, "half": 0.5,
            "s": "x", "b": true})");
    ASSERT_TRUE(doc.has_value());
    const io::JsonObject& obj = *doc->get<io::JsonObject>();
    std::uint64_t u = 0;
    EXPECT_TRUE(io::get_u64(obj, "n", &u, nullptr));
    EXPECT_EQ(u, 9007199254740992u);
    for (const char* key : {"big", "neg", "half", "s", "missing"}) {
        std::string error;
        EXPECT_FALSE(io::get_u64(obj, key, &u, &error)) << key;
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
    std::string text;
    bool flag = false;
    EXPECT_FALSE(io::get_string(obj, "b", &text, nullptr));
    EXPECT_TRUE(io::get_bool(obj, "b", &flag, nullptr));
    EXPECT_TRUE(flag);
    std::string error;
    EXPECT_FALSE(io::parse_json("{\"a\": 1} x", &error).has_value());
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

}  // namespace
}  // namespace adhoc
