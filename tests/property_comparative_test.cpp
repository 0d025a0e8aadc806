// Comparative properties that back the paper's evaluation claims, run at
// reduced scale: generic <= LENWB <= (neighbor-designating), SBA >= generic
// FRB, flooding is the upper bound, and the strong condition never prunes
// more than the full condition.

#include <gtest/gtest.h>

#include <string>

#include "algorithms/dominant_pruning.hpp"
#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "algorithms/lenwb.hpp"
#include "algorithms/sba.hpp"
#include "graph/unit_disk.hpp"

namespace adhoc {
namespace {

struct Totals {
    double flooding = 0;
    double generic_fr = 0;
    double generic_frb = 0;
    double lenwb = 0;
    double dp = 0;
    double pdp = 0;
    double sba = 0;
};

class Comparative : public ::testing::TestWithParam<double> {
  protected:
    static Totals accumulate(double degree, int iterations) {
        Totals t;
        Rng gen(static_cast<std::uint64_t>(degree * 1000) + 17);
        UnitDiskParams params;
        params.node_count = 60;
        params.average_degree = degree;

        const FloodingAlgorithm flooding;
        const GenericBroadcast gfr(generic_fr_config(2));
        const GenericBroadcast gfrb(generic_frb_config(2, PriorityScheme::kDegree));
        const LenwbAlgorithm lenwb;
        const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
        const DominantPruningAlgorithm pdp(DominantPruningVariant::kPdp);
        const SbaAlgorithm sba;

        for (int i = 0; i < iterations; ++i) {
            const auto net = generate_network_checked(params, gen);
            Rng run(i);
            const NodeId src = static_cast<NodeId>(run.index(params.node_count));
            auto count = [&](const BroadcastAlgorithm& algo) {
                Rng r = run.fork();
                const auto result = algo.broadcast(net.graph, src, r);
                EXPECT_TRUE(result.full_delivery) << algo.name();
                return static_cast<double>(result.forward_count);
            };
            t.flooding += count(flooding);
            t.generic_fr += count(gfr);
            t.generic_frb += count(gfrb);
            t.lenwb += count(lenwb);
            t.dp += count(dp);
            t.pdp += count(pdp);
            t.sba += count(sba);
        }
        return t;
    }
};

TEST_P(Comparative, PaperOrderingsHoldOnAverage) {
    const Totals t = accumulate(GetParam(), 30);

    // Everything beats flooding.
    for (double x : {t.generic_fr, t.generic_frb, t.lenwb, t.dp, t.pdp, t.sba}) {
        EXPECT_LT(x, t.flooding);
    }
    // Figure 15: DP >= PDP >= LENWB >= Generic (allow small noise margins).
    EXPECT_LE(t.pdp, t.dp * 1.02);
    EXPECT_LE(t.lenwb, t.pdp * 1.02);
    EXPECT_LE(t.generic_fr, t.lenwb * 1.02);
    // Figure 16: Generic FRB clearly beats SBA.
    EXPECT_LT(t.generic_frb, t.sba);
}

INSTANTIATE_TEST_SUITE_P(Densities, Comparative, ::testing::Values(6.0, 18.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                             return std::string("d").append(
                                 std::to_string(static_cast<int>(info.param)));
                         });

}  // namespace
}  // namespace adhoc
