/// \file fuzz_smoke_test.cpp
/// \brief Bounded differential-fuzz smoke: a fixed seed window over every
/// algorithm and fault model, plus two recovery runs that once tripped the
/// cds oracle, must be finding-free, and the campaign must be bit-identical
/// at any jobs value.

#include <gtest/gtest.h>

#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/scenario.hpp"

namespace adhoc::fuzz {
namespace {

TEST(FuzzSmoke, FixedWindowIsClean) {
    FuzzOptions options;
    options.base_seed = 20260805;  // pinned window: regressions repro exactly
    options.iterations = 400;
    const FuzzReport report = run_fuzz(options);
    EXPECT_EQ(report.iterations_run, options.iterations);
    for (const Finding& finding : report.findings) {
        ADD_FAILURE() << "oracle " << finding.oracle << " fired at iteration "
                      << finding.iteration << " (" << finding.shrunk.node_count
                      << "-node repro): " << finding.detail;
    }

    // With NACK recovery on and no fault, a holder pruned from the forward
    // set may still answer a NACK, and its repair names it in the chain, so
    // the repaired node counts it visited: Theorem 2's CDS is then the set
    // of forwarders plus repairers.  Two campaign scenarios whose forward
    // set alone is no CDS (generic FRBD with global views at seed 20261020,
    // sba at seed 20261019), and their shrunk repros, pass the cds oracle
    // on that set, with their digests unchanged.
    const AlgorithmPool pool(/*with_mutants=*/true);
    GenerationLimits churn;
    churn.churn_intensity = 3.0;
    churn.scale_intensity = 3.0;
    GenerationLimits wide;
    wide.max_nodes = 96;
    wide.scale_intensity = 3.0;
    std::vector<Scenario> scenarios = {generate_scenario(20261020, 66079, churn),
                                       generate_scenario(20261019, 5695, wide)};
    const char* const repros[] = {
        R"({"schema": "adhoc-repro-v1", "family": "gnp", "run_seed": "1", "node_count": 7,
            "edges": [[0,1],[0,5],[1,2],[2,6],[3,4],[3,5],[4,6]], "source": 0,
            "algorithm": "generic", "timing": "FRBD", "selection": "SP", "hops": 0,
            "priority": "ID", "strong": false, "strict_designation": true, "history": 2,
            "loss": 0, "jitter": 0, "lost_edges": [], "recovery": true, "scale_check": true,
            "oracle": "pass", "digest": "0x4cf4c0dc77d5deb5"})",
        R"({"schema": "adhoc-repro-v1", "family": "gnp", "run_seed": "800528679513607667",
            "node_count": 10, "edges": [[0,2],[0,3],[0,5],[1,3],[4,9],[5,9],[6,9],[7,9],[8,9]],
            "source": 3, "algorithm": "sba", "timing": "FR", "selection": "SP", "hops": 2,
            "priority": "ID", "strong": false, "strict_designation": true, "history": 2,
            "loss": 0, "jitter": 0, "lost_edges": [], "recovery": true, "scale_check": true,
            "oracle": "pass", "digest": "0x5d54b57febd45f9f"})",
    };
    for (const char* text : repros) {
        std::string error;
        const std::optional<Repro> repro = parse_repro(text, &error);
        ASSERT_TRUE(repro.has_value()) << error;
        std::uint64_t digest = 0;
        ASSERT_TRUE(replay_digest(repro->scenario, pool, &digest));
        EXPECT_EQ(digest, repro->digest) << repro->scenario.config.algorithm;
        scenarios.push_back(repro->scenario);
    }
    for (const Scenario& s : scenarios) {
        ASSERT_TRUE(s.recovery);
        EXPECT_FALSE(s.has_faults());
        const CheckReport report = check_scenario(s, pool);
        EXPECT_TRUE(report.ok) << s.config.algorithm << " on " << s.node_count
                               << " nodes: " << report.oracle << ": " << report.detail;
    }
}

TEST(FuzzSmoke, ReportIsJobsInvariant) {
    // Run a window that contains real findings (a pinned mutant) so the
    // invariance check covers the interesting path, not just clean runs.
    FuzzOptions options;
    options.base_seed = 17;
    options.iterations = 60;
    options.limits.max_nodes = 12;
    options.limits.faults = false;
    options.algorithm_override = "mutant:skip-priority";
    options.shrink_evals = 500;

    options.jobs = 1;
    const FuzzReport serial = run_fuzz(options);
    options.jobs = 2;
    const FuzzReport threaded = run_fuzz(options);

    EXPECT_EQ(serial.iterations_run, threaded.iterations_run);
    EXPECT_EQ(serial.checks_passed, threaded.checks_passed);
    ASSERT_EQ(serial.findings.size(), threaded.findings.size());
    EXPECT_FALSE(serial.findings.empty()) << "window no longer exercises findings";
    for (std::size_t i = 0; i < serial.findings.size(); ++i) {
        EXPECT_EQ(serial.findings[i].iteration, threaded.findings[i].iteration);
        EXPECT_EQ(serial.findings[i].oracle, threaded.findings[i].oracle);
        EXPECT_EQ(serial.findings[i].original, threaded.findings[i].original);
        EXPECT_EQ(serial.findings[i].shrunk, threaded.findings[i].shrunk);
    }
}

TEST(FuzzSmoke, TimeCapStopsEarly) {
    FuzzOptions options;
    options.base_seed = 3;
    options.iterations = 1'000'000;  // far more than the cap allows
    options.seconds = 0.2;
    const FuzzReport report = run_fuzz(options);
    EXPECT_LT(report.iterations_run, options.iterations);
    EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace adhoc::fuzz
