/// \file fuzz_scenario_test.cpp
/// \brief Scenario generation, normalization and .repro round-trip tests.

#include <gtest/gtest.h>

#include <set>

#include "fuzz/repro.hpp"
#include "fuzz/scenario.hpp"
#include "graph/traversal.hpp"

namespace adhoc::fuzz {
namespace {

TEST(FuzzScenario, GenerationIsDeterministic) {
    for (std::uint64_t i = 0; i < 50; ++i) {
        const Scenario a = generate_scenario(123, i);
        const Scenario b = generate_scenario(123, i);
        EXPECT_EQ(a, b) << "index " << i;
    }
}

TEST(FuzzScenario, DistinctIndicesDiffer) {
    std::set<std::uint64_t> fingerprints;
    for (std::uint64_t i = 0; i < 100; ++i) {
        fingerprints.insert(scenario_fingerprint(generate_scenario(7, i)));
    }
    // Scenario space is huge; near-perfect dedup expected.
    EXPECT_GT(fingerprints.size(), 95u);
}

TEST(FuzzScenario, GeneratedScenariosAreNormalized) {
    for (std::uint64_t i = 0; i < 100; ++i) {
        const Scenario s = generate_scenario(99, i);
        EXPECT_EQ(s, normalized(s)) << "index " << i;
        ASSERT_GE(s.node_count, 1u);
        ASSERT_LT(s.source, s.node_count);
        EXPECT_TRUE(is_connected(s.knowledge_graph())) << "index " << i;
    }
}

TEST(FuzzScenario, NormalizationRestrictsToSourceComponent) {
    Scenario s;
    s.node_count = 6;
    // Component {0,1,2} + separate component {3,4}; node 5 isolated.
    s.edges = {{0, 1}, {1, 2}, {3, 4}};
    s.source = 1;
    const Scenario n = normalized(s);
    EXPECT_EQ(n.node_count, 3u);
    EXPECT_EQ(n.source, 1u);  // order-preserving remap keeps relative ids
    EXPECT_EQ(n.edges, (std::vector<Edge>{{0, 1}, {1, 2}}));
}

TEST(FuzzScenario, NormalizationDropsStaleLostEdges) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    s.lost_edges = {{1, 2}, {0, 2}};  // (0,2) is not a knowledge edge
    const Scenario n = normalized(s);
    EXPECT_EQ(n.lost_edges, (std::vector<Edge>{{1, 2}}));
}

TEST(FuzzScenario, ActualGraphRemovesLostEdges) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    s.lost_edges = {{1, 2}};
    EXPECT_TRUE(s.knowledge_graph().has_edge(1, 2));
    EXPECT_FALSE(s.actual_graph().has_edge(1, 2));
    EXPECT_TRUE(s.actual_graph().has_edge(0, 1));
}

TEST(FuzzRepro, RoundTripPreservesEverything) {
    for (std::uint64_t i = 0; i < 50; ++i) {
        Repro repro;
        repro.scenario = generate_scenario(555, i);
        repro.oracle = (i % 2 == 0) ? "pass" : "delivery";
        repro.digest = 0xdeadbeefcafe0000ULL + i;
        repro.note = "round-trip case " + std::to_string(i);
        std::string error;
        const auto parsed = parse_repro(to_repro_json(repro), &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        EXPECT_EQ(parsed->scenario, repro.scenario) << "index " << i;
        EXPECT_EQ(parsed->oracle, repro.oracle);
        EXPECT_EQ(parsed->digest, repro.digest);
        EXPECT_EQ(parsed->note, repro.note);
    }
}

TEST(FuzzRepro, ControlBytesRoundTrip) {
    // json_escape writes \n \r \t short and every other byte below 0x20 as
    // \u00XX; the reader must take all of them back.
    for (int c = 0x00; c <= 0x1f; ++c) {
        Repro repro;
        repro.scenario.node_count = 2;
        repro.scenario.edges = {{0, 1}};
        repro.note = std::string{'a', static_cast<char>(c), 'b'};
        std::string error;
        const auto parsed = parse_repro(to_repro_json(repro), &error);
        ASSERT_TRUE(parsed.has_value()) << "byte " << c << ": " << error;
        EXPECT_EQ(parsed->note, repro.note) << "byte " << c;
    }
}

TEST(FuzzRepro, RejectsUnrepresentableUnicodeEscapes) {
    Repro repro;
    repro.scenario.node_count = 2;
    repro.scenario.edges = {{0, 1}};
    repro.note = "MARK";
    const std::string good = to_repro_json(repro);
    const auto rejects_with = [&](const std::string& note, const std::string& needle) {
        std::string text = good;
        text.replace(text.find("MARK"), 4, note);
        std::string error;
        EXPECT_FALSE(parse_repro(text, &error).has_value()) << note;
        EXPECT_NE(error.find(needle), std::string::npos) << error;
    };
    rejects_with("\\u00e9", "\\u00e9");  // beyond one byte
    rejects_with("\\u12", "\\u12");      // too short
    rejects_with("\\u00zz", "\\u00zz");  // not hex
    rejects_with("\\x", "\\x");          // unknown escape letter
}

TEST(FuzzRepro, ExactUint64AndDoubleRoundTrip) {
    Repro repro;
    repro.scenario.node_count = 2;
    repro.scenario.edges = {{0, 1}};
    repro.scenario.run_seed = 0xffffffffffffffffULL;  // > 2^53: JSON numbers lose this
    repro.scenario.loss = 0.1;                        // not exactly representable
    repro.scenario.jitter = 1.0 / 3.0;
    repro.digest = 0x8000000000000001ULL;
    const auto parsed = parse_repro(to_repro_json(repro));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->scenario.run_seed, repro.scenario.run_seed);
    EXPECT_EQ(parsed->scenario.loss, repro.scenario.loss);
    EXPECT_EQ(parsed->scenario.jitter, repro.scenario.jitter);
    EXPECT_EQ(parsed->digest, repro.digest);
}

TEST(FuzzRepro, RejectsMalformedDocuments) {
    const auto rejects = [](const std::string& text) {
        std::string error;
        const auto parsed = parse_repro(text, &error);
        EXPECT_FALSE(parsed.has_value()) << text;
        EXPECT_FALSE(error.empty());
    };
    rejects("");                      // empty
    rejects("{");                     // truncated
    rejects("[1,2,3]");               // wrong root type
    rejects(R"({"schema":"bogus"})");  // unknown schema

    // Structurally invalid scenarios must not parse either.
    Repro repro;
    repro.scenario.node_count = 3;
    repro.scenario.edges = {{0, 1}, {1, 2}};
    std::string good = to_repro_json(repro);

    std::string bad_source = good;
    const auto replace = [](std::string& text, const std::string& from,
                            const std::string& to) {
        const auto pos = text.find(from);
        ASSERT_NE(pos, std::string::npos);
        text.replace(pos, from.size(), to);
    };
    replace(bad_source, "\"source\": 0", "\"source\": 7");  // out of range
    rejects(bad_source);

    std::string bad_edge = good;
    replace(bad_edge, "[1,2]", "[1,9]");  // endpoint out of range
    rejects(bad_edge);

    std::string self_loop = good;
    replace(self_loop, "[1,2]", "[1,1]");
    rejects(self_loop);

    std::string bad_timing = good;
    replace(bad_timing, "\"timing\": \"FR\"", "\"timing\": \"Never\"");
    rejects(bad_timing);
}

TEST(FuzzScenario, ChurnGenerationIsDeterministicAndBounded) {
    GenerationLimits limits;
    limits.churn_intensity = 3.0;  // the CI churn profile
    bool any_faults = false;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const Scenario a = generate_scenario(41, i, limits);
        const Scenario b = generate_scenario(41, i, limits);
        EXPECT_EQ(a, b) << "index " << i;
        EXPECT_EQ(a, normalized(a)) << "index " << i;
        any_faults = any_faults || a.has_faults();
        // Mutual exclusion: stale-view runs never also carry churn.
        if (!a.lost_edges.empty()) {
            EXPECT_TRUE(a.crashes.empty() && a.asym.empty()) << "index " << i;
        }
        for (const CrashFault& c : a.crashes) {
            ASSERT_LT(c.node, a.node_count);
            if (c.recover_at >= 0.0) {
                EXPECT_GE(c.recover_at, c.at);
            }
        }
        for (const AsymLoss& l : a.asym) {
            ASSERT_LT(l.link.a, a.node_count);
            ASSERT_LT(l.link.b, a.node_count);
        }
    }
    EXPECT_TRUE(any_faults);  // intensity 3 must actually exercise churn
}

TEST(FuzzScenario, ChurnIntensityZeroDisablesFaults) {
    GenerationLimits limits;
    limits.churn_intensity = 0.0;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const Scenario s = generate_scenario(41, i, limits);
        EXPECT_TRUE(s.crashes.empty()) << "index " << i;
        EXPECT_TRUE(s.asym.empty()) << "index " << i;
        EXPECT_FALSE(s.recovery) << "index " << i;
    }
}

TEST(FuzzScenario, NormalizationCleansChurn) {
    Scenario s;
    s.node_count = 4;
    s.edges = {{0, 1}, {1, 2}, {2, 3}};
    s.crashes = {{2, 3.0, 1.0},   // recover before crash: clamped up
                 {2, 5.0, -1.0},  // duplicate node: dropped (first kept)
                 {9, 1.0, -1.0}}; // dead id: dropped
    s.asym = {{{2, 1}, 0.5, 0.0},   // non-canonical: flipped
              {{0, 3}, 0.9, 0.9}};  // not a knowledge edge: dropped
    const Scenario n = normalized(s);
    ASSERT_EQ(n.crashes.size(), 1u);
    EXPECT_EQ(n.crashes[0].node, 2u);
    EXPECT_DOUBLE_EQ(n.crashes[0].at, 3.0);
    EXPECT_GE(n.crashes[0].recover_at, n.crashes[0].at);
    ASSERT_EQ(n.asym.size(), 1u);
    EXPECT_EQ(n.asym[0].link, (Edge{1, 2}));
}

TEST(FuzzScenario, LostEdgesSuppressChurn) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    s.lost_edges = {{1, 2}};
    s.crashes = {{1, 2.0, -1.0}};
    s.asym = {{{0, 1}, 0.5, 0.0}};
    s.recovery = true;
    const Scenario n = normalized(s);
    EXPECT_EQ(n.lost_edges, (std::vector<Edge>{{1, 2}}));
    EXPECT_TRUE(n.crashes.empty());
    EXPECT_TRUE(n.asym.empty());
    EXPECT_FALSE(n.recovery);
}

TEST(FuzzRepro, FaultFieldsRoundTrip) {
    Repro repro;
    repro.scenario.node_count = 4;
    repro.scenario.edges = {{0, 1}, {1, 2}, {2, 3}};
    repro.scenario.crashes = {{2, 1.5, 4.25}, {3, 0.125, -1.0}};
    repro.scenario.asym = {{{1, 2}, 1.0 / 3.0, 0.0}};
    repro.scenario.recovery = true;
    repro.oracle = "recovery";
    const auto parsed = parse_repro(to_repro_json(repro));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->scenario, repro.scenario);
}

TEST(FuzzRepro, FaultFieldsAreOptional) {
    // Pre-fault corpus files carry none of the new keys and must parse
    // unchanged — and a fault-free scenario must not emit them.
    Repro repro;
    repro.scenario.node_count = 2;
    repro.scenario.edges = {{0, 1}};
    const std::string json = to_repro_json(repro);
    EXPECT_EQ(json.find("crashes"), std::string::npos);
    EXPECT_EQ(json.find("asym"), std::string::npos);
    EXPECT_EQ(json.find("recovery"), std::string::npos);
    const auto parsed = parse_repro(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->scenario.crashes.empty());
    EXPECT_FALSE(parsed->scenario.recovery);
}

TEST(FuzzScenario, FingerprintSensitiveToChurn) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    const std::uint64_t base = scenario_fingerprint(s);

    Scenario crash = s;
    crash.crashes = {{1, 2.0, -1.0}};
    EXPECT_NE(scenario_fingerprint(crash), base);

    Scenario asym = s;
    asym.asym = {{{0, 1}, 0.25, 0.0}};
    EXPECT_NE(scenario_fingerprint(asym), base);

    Scenario rec = s;
    rec.recovery = true;
    EXPECT_NE(scenario_fingerprint(rec), base);
}

TEST(FuzzScenario, TrafficGenerationIsDeterministicAndBounded) {
    GenerationLimits limits;
    limits.traffic_intensity = 3.0;
    bool any_traffic = false;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const Scenario a = generate_scenario(43, i, limits);
        EXPECT_EQ(a, generate_scenario(43, i, limits)) << "index " << i;
        EXPECT_EQ(a, normalized(a)) << "index " << i;
        any_traffic = any_traffic || a.has_traffic();
        if (a.has_traffic()) {
            EXPECT_LE(a.traffic_sessions, 2048u);
            EXPECT_GT(a.traffic_rate, 0.0);
            // Mutual exclusion with the stale-knowledge path.
            EXPECT_TRUE(a.lost_edges.empty()) << "index " << i;
        } else {
            EXPECT_EQ(a.traffic_rate, 0.0);
            EXPECT_FALSE(a.traffic_bursty);
        }
    }
    EXPECT_TRUE(any_traffic);  // intensity 3 must actually sample traffic
}

TEST(FuzzScenario, TrafficIntensityZeroDisablesTraffic) {
    GenerationLimits limits;
    limits.traffic_intensity = 0.0;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const Scenario s = generate_scenario(43, i, limits);
        EXPECT_FALSE(s.has_traffic()) << "index " << i;
    }
}

TEST(FuzzScenario, TrafficDrawsDoNotPerturbChurnStream) {
    // The traffic axis samples strictly after every churn draw, so
    // disabling it must leave every other scenario field untouched.
    GenerationLimits with;
    GenerationLimits without;
    without.traffic_intensity = 0.0;
    for (std::uint64_t i = 0; i < 60; ++i) {
        Scenario a = generate_scenario(47, i, with);
        const Scenario b = generate_scenario(47, i, without);
        a.traffic_sessions = 0;
        a.traffic_rate = 0.0;
        a.traffic_bursty = false;
        EXPECT_EQ(a, b) << "index " << i;
    }
}

TEST(FuzzScenario, LostEdgesSuppressTraffic) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    s.lost_edges = {{1, 2}};
    s.traffic_sessions = 20;
    s.traffic_rate = 2.0;
    s.traffic_bursty = true;
    const Scenario n = normalized(s);
    EXPECT_FALSE(n.has_traffic());
    EXPECT_EQ(n.traffic_rate, 0.0);
    EXPECT_FALSE(n.traffic_bursty);
}

TEST(FuzzRepro, TrafficFieldRoundTrips) {
    Repro repro;
    repro.scenario.node_count = 3;
    repro.scenario.edges = {{0, 1}, {1, 2}};
    repro.scenario.traffic_sessions = 48;
    repro.scenario.traffic_rate = 1.0 / 3.0;  // not exactly representable
    repro.scenario.traffic_bursty = true;
    repro.oracle = "traffic";
    const auto parsed = parse_repro(to_repro_json(repro));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->scenario, repro.scenario);

    // Traffic-free scenarios must not emit the key (corpus byte-stability).
    Repro plain;
    plain.scenario.node_count = 2;
    plain.scenario.edges = {{0, 1}};
    EXPECT_EQ(to_repro_json(plain).find("traffic"), std::string::npos);
}

TEST(FuzzScenario, FingerprintSensitiveToTraffic) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    const std::uint64_t base = scenario_fingerprint(s);

    Scenario traffic = s;
    traffic.traffic_sessions = 16;
    traffic.traffic_rate = 2.0;
    EXPECT_NE(scenario_fingerprint(traffic), base);

    Scenario bursty = traffic;
    bursty.traffic_bursty = true;
    EXPECT_NE(scenario_fingerprint(bursty), scenario_fingerprint(traffic));
}

TEST(FuzzScenario, ScaleDrawIsDeterministicAndIndependent) {
    // The scale-check flag is drawn from its own seeded stream, so it is a
    // pure function of the master seed: toggling it on or off must leave
    // every other scenario field byte-identical.
    GenerationLimits with;
    GenerationLimits without;
    without.scale_intensity = 0.0;
    bool any_scale = false;
    for (std::uint64_t i = 0; i < 60; ++i) {
        Scenario a = generate_scenario(51, i, with);
        const Scenario b = generate_scenario(51, i, without);
        EXPECT_EQ(a, generate_scenario(51, i, with)) << "index " << i;
        EXPECT_FALSE(b.scale_check) << "index " << i;
        any_scale = any_scale || a.scale_check;
        a.scale_check = false;
        EXPECT_EQ(a, b) << "index " << i;
    }
    EXPECT_TRUE(any_scale);  // default intensity must actually sample it
}

TEST(FuzzRepro, ScaleCheckRoundTrips) {
    Repro repro;
    repro.scenario.node_count = 3;
    repro.scenario.edges = {{0, 1}, {1, 2}};
    repro.scenario.scale_check = true;
    repro.oracle = "scale";
    const auto parsed = parse_repro(to_repro_json(repro));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->scenario, repro.scenario);

    // Scenarios without the flag must not emit the key, so every pre-scale
    // corpus file stays byte-stable.
    Repro plain;
    plain.scenario.node_count = 2;
    plain.scenario.edges = {{0, 1}};
    EXPECT_EQ(to_repro_json(plain).find("scale_check"), std::string::npos);
    const auto replain = parse_repro(to_repro_json(plain));
    ASSERT_TRUE(replain.has_value());
    EXPECT_FALSE(replain->scenario.scale_check);
}

TEST(FuzzScenario, FingerprintSensitiveToScaleCheck) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    Scenario scaled = s;
    scaled.scale_check = true;
    EXPECT_NE(scenario_fingerprint(scaled), scenario_fingerprint(s));
}

namespace {
/// Resets the physical-layer axis to its defaults (what generating with
/// medium_intensity = 0 must produce).
void clear_medium(Scenario& s) {
    s.medium_backend = MediumBackend::kIdeal;
    s.sinr_alpha = 3.0;
    s.sinr_beta = 0.0;
    s.sinr_noise = 0.0;
    s.interference_range = 0.0;
    s.vulnerability_window = 0.0;
    s.positions.clear();
}
}  // namespace

TEST(FuzzScenario, MediumGenerationIsDeterministicAndBounded) {
    GenerationLimits limits;
    limits.medium_intensity = 3.0;
    bool any_sinr = false;
    bool any_uniform = false;
    for (std::uint64_t i = 0; i < 80; ++i) {
        const Scenario a = generate_scenario(53, i, limits);
        EXPECT_EQ(a, generate_scenario(53, i, limits)) << "index " << i;
        EXPECT_EQ(a, normalized(a)) << "index " << i;
        if (!a.has_medium()) {
            EXPECT_TRUE(a.positions.empty()) << "index " << i;
            continue;
        }
        any_sinr = any_sinr || a.medium_backend == MediumBackend::kSinr;
        any_uniform =
            any_uniform || a.medium_backend == MediumBackend::kUniformPowerGraph;
        // Everything run_once needs to build a valid Medium (pd = 1.0).
        EXPECT_EQ(a.positions.size(), a.node_count) << "index " << i;
        EXPECT_GE(a.sinr_alpha, 1.0);
        EXPECT_GE(a.sinr_beta, 0.0);
        EXPECT_GE(a.sinr_noise, 0.0);
        EXPECT_GT(a.interference_range, 0.0);
        EXPECT_GE(a.vulnerability_window, 0.0);
        EXPECT_LT(a.vulnerability_window, 1.0);
        // Mutual exclusion with the stale-knowledge path.
        EXPECT_TRUE(a.lost_edges.empty()) << "index " << i;
    }
    EXPECT_TRUE(any_sinr);     // intensity 3 must exercise both backends
    EXPECT_TRUE(any_uniform);
}

TEST(FuzzScenario, MediumIntensityZeroDisablesMedium) {
    GenerationLimits limits;
    limits.medium_intensity = 0.0;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const Scenario s = generate_scenario(53, i, limits);
        EXPECT_FALSE(s.has_medium()) << "index " << i;
        EXPECT_TRUE(s.positions.empty()) << "index " << i;
    }
}

TEST(FuzzScenario, MediumDrawsDoNotPerturbOtherAxes) {
    // Like the scale axis, the medium samples from its own seeded stream:
    // toggling it must leave every other scenario field byte-identical.
    GenerationLimits with;
    GenerationLimits without;
    without.medium_intensity = 0.0;
    bool any_medium = false;
    for (std::uint64_t i = 0; i < 60; ++i) {
        Scenario a = generate_scenario(53, i, with);
        const Scenario b = generate_scenario(53, i, without);
        any_medium = any_medium || a.has_medium();
        clear_medium(a);
        EXPECT_EQ(a, b) << "index " << i;
    }
    EXPECT_TRUE(any_medium);  // default intensity must actually sample it
}

TEST(FuzzScenario, LostEdgesSuppressMedium) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    s.lost_edges = {{1, 2}};
    s.medium_backend = MediumBackend::kSinr;
    s.interference_range = 50.0;
    s.positions = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
    const Scenario n = normalized(s);
    EXPECT_FALSE(n.has_medium());
    EXPECT_TRUE(n.positions.empty());
}

TEST(FuzzScenario, NormalizationDropsInvalidMedium) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    s.medium_backend = MediumBackend::kSinr;
    s.interference_range = 50.0;
    s.positions = {{0.0, 0.0}, {1.0, 0.0}};  // one short
    const Scenario n = normalized(s);
    EXPECT_FALSE(n.has_medium());

    s.positions.push_back({2.0, 0.0});
    s.vulnerability_window = 1.0;  // == run_once's propagation delay: invalid
    EXPECT_FALSE(normalized(s).has_medium());

    s.vulnerability_window = 0.25;
    EXPECT_TRUE(normalized(s).has_medium());
}

TEST(FuzzScenario, NormalizationRemapsPositionsWithComponent) {
    Scenario s;
    s.node_count = 4;
    s.edges = {{0, 1}, {2, 3}};  // node 2,3 unreachable from source 0
    s.source = 0;
    s.medium_backend = MediumBackend::kSinr;
    s.interference_range = 50.0;
    s.positions = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
    const Scenario n = normalized(s);
    ASSERT_EQ(n.node_count, 2u);
    ASSERT_TRUE(n.has_medium());
    ASSERT_EQ(n.positions.size(), 2u);
    EXPECT_EQ(n.positions[0], (Point2D{0.0, 0.0}));
    EXPECT_EQ(n.positions[1], (Point2D{1.0, 0.0}));
}

TEST(FuzzRepro, MediumFieldsRoundTrip) {
    Repro repro;
    repro.scenario.node_count = 3;
    repro.scenario.edges = {{0, 1}, {1, 2}};
    repro.scenario.medium_backend = MediumBackend::kUniformPowerGraph;
    repro.scenario.sinr_alpha = 2.5;
    repro.scenario.sinr_beta = 1.0 / 3.0;  // not exactly representable
    repro.scenario.sinr_noise = 1e-7;
    repro.scenario.interference_range = 42.0;
    repro.scenario.vulnerability_window = 0.125;
    repro.scenario.positions = {{0.5, 1.5}, {10.0, 1.0 / 7.0}, {99.25, 0.0}};
    repro.oracle = "medium";
    const auto parsed = parse_repro(to_repro_json(repro));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->scenario, repro.scenario);

    // Ideal-medium scenarios must not emit the keys (corpus byte-stability).
    Repro plain;
    plain.scenario.node_count = 2;
    plain.scenario.edges = {{0, 1}};
    const std::string json = to_repro_json(plain);
    EXPECT_EQ(json.find("medium"), std::string::npos);
    EXPECT_EQ(json.find("positions"), std::string::npos);
}

TEST(FuzzRepro, RejectsInconsistentMediumDocuments) {
    Repro repro;
    repro.scenario.node_count = 3;
    repro.scenario.edges = {{0, 1}, {1, 2}};
    repro.scenario.medium_backend = MediumBackend::kSinr;
    repro.scenario.interference_range = 42.0;
    repro.scenario.positions = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
    const std::string good = to_repro_json(repro);
    ASSERT_TRUE(parse_repro(good).has_value());

    const auto rejects = [](std::string text) {
        std::string error;
        EXPECT_FALSE(parse_repro(text, &error).has_value()) << text;
        EXPECT_FALSE(error.empty());
    };

    // "medium" without "positions" and vice versa.
    const auto erase_line = [&](const std::string& key) {
        std::string text = good;
        const auto pos = text.find("\"" + key + "\"");
        EXPECT_NE(pos, std::string::npos);
        const auto start = text.rfind('\n', pos) + 1;
        const auto end = text.find('\n', pos) + 1;
        text.erase(start, end - start);
        return text;
    };
    rejects(erase_line("medium"));
    rejects(erase_line("positions"));

    // The medium is exclusive with the stale-knowledge path.
    Repro stale = repro;
    stale.scenario.lost_edges = {{1, 2}};
    rejects(to_repro_json(stale));

    // Out-of-range parameters must not parse either.
    Repro bad = repro;
    bad.scenario.vulnerability_window = 1.0;
    rejects(to_repro_json(bad));
    bad = repro;
    bad.scenario.positions.pop_back();
    rejects(to_repro_json(bad));
}

TEST(FuzzScenario, FingerprintSensitiveToMedium) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    const std::uint64_t base = scenario_fingerprint(s);

    Scenario medium = s;
    medium.medium_backend = MediumBackend::kSinr;
    medium.interference_range = 42.0;
    medium.positions = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
    EXPECT_NE(scenario_fingerprint(medium), base);

    Scenario beta = medium;
    beta.sinr_beta = 0.5;
    EXPECT_NE(scenario_fingerprint(beta), scenario_fingerprint(medium));

    Scenario moved = medium;
    moved.positions[1] = {1.0, 0.5};
    EXPECT_NE(scenario_fingerprint(moved), scenario_fingerprint(medium));
}

TEST(FuzzScenario, FingerprintSensitiveToFields) {
    Scenario s;
    s.node_count = 3;
    s.edges = {{0, 1}, {1, 2}};
    const std::uint64_t base = scenario_fingerprint(s);

    Scenario seed = s;
    seed.run_seed = 2;
    EXPECT_NE(scenario_fingerprint(seed), base);

    Scenario edge = s;
    edge.edges.push_back({0, 2});
    EXPECT_NE(scenario_fingerprint(edge), base);

    Scenario algo = s;
    algo.config.algorithm = "flooding";
    EXPECT_NE(scenario_fingerprint(algo), base);
}

}  // namespace
}  // namespace adhoc::fuzz
