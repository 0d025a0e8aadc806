// Campaign driver and the one definition of the paper's sweep figures
// (Figs. 10-16) and the Section 4.2/6.3/7.2 ablations: runs a named set of
// them in one invocation, sharded over the campaign runner's thread pool,
// with progress/ETA on stderr and one BENCH_<figure>.json per figure when
// --json DIR is given.  A single figure's stdout has the layout of its
// results/<figure>.txt: the heading, a blank line, then one table per panel.
//
//   bench_campaign --list
//   bench_campaign --figures fig10_timing,fig12_space --runs 200 --jobs 0
//   bench_campaign --figures fig15_first_receipt --gnuplot fig15_first_receipt
//   bench_campaign --full --jobs 8 --json results/json
//
// Every --figures name and the --json directory are checked before anything
// runs (exit 2 on an unknown name, 1 on a directory that cannot be created).
// Exit status is 1 if any figure records a delivery failure (see
// bench_common.hpp) — the campaign keeps going so one regression doesn't
// hide another.

#include "bench_common.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string_view>
#include <system_error>

#include "algorithms/dominant_pruning.hpp"
#include "algorithms/generic.hpp"
#include "algorithms/hybrid.hpp"
#include "algorithms/lenwb.hpp"
#include "algorithms/mpr.hpp"
#include "algorithms/rule_k.hpp"
#include "algorithms/sba.hpp"
#include "algorithms/span.hpp"

using namespace adhoc;

namespace {

struct FigureSpec {
    const char* name;
    // Printed verbatim (plus a blank line) before the first panel; --list
    // shows its first line.
    const char* heading;
    // Builds the figure's algorithms and runs its panels through the session.
    std::function<void(bench::Bench&)> run;
};

std::string_view first_line(std::string_view text) { return text.substr(0, text.find('\n')); }

// The "Paper:" notes give the expected ordering of each figure's curves.
const std::vector<FigureSpec>& figure_registry() {
    static const std::vector<FigureSpec> specs{
        // Paper: Static > FR > FRB >= FRBD forward nodes.
        {"fig10_timing",
         "Figure 10: timing options (2-hop, ID priority)",
         [](bench::Bench& b) {
             const GenericBroadcast stat(generic_static_config(2, PriorityScheme::kId),
                                         "Static");
             const GenericBroadcast fr(generic_fr_config(2, PriorityScheme::kId), "FR");
             const GenericBroadcast frb(generic_frb_config(2, PriorityScheme::kId), "FRB");
             const GenericBroadcast frbd(generic_frbd_config(2, PriorityScheme::kId), "FRBD");
             const std::vector<const BroadcastAlgorithm*> algos{&stat, &fr, &frb, &frbd};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Paper: MinPri worst; SP/ND/MaxDeg close, MaxDeg best (ND lags when dense).
        {"fig11_selection",
         "Figure 11: selection options (first-receipt, 2-hop, ID priority)",
         [](bench::Bench& b) {
             GenericConfig nd_cfg = generic_fr_config(2, PriorityScheme::kId);
             nd_cfg.selection = Selection::kNeighborDesignating;
             const GenericBroadcast sp(generic_fr_config(2, PriorityScheme::kId), "SP");
             const GenericBroadcast nd(nd_cfg, "ND");
             const GenericBroadcast maxdeg = make_hybrid_maxdeg();
             const GenericBroadcast minpri = make_hybrid_minpri();
             const std::vector<const BroadcastAlgorithm*> algos{&sp, &nd, &maxdeg, &minpri};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Paper: monotone gain with k, diminishing; 2-/3-hop close to global.
        {"fig12_space",
         "Figure 12: space options (first-receipt self-pruning, ID priority)",
         [](bench::Bench& b) {
             const GenericBroadcast k2(generic_fr_config(2, PriorityScheme::kId), "2-hop");
             const GenericBroadcast k3(generic_fr_config(3, PriorityScheme::kId), "3-hop");
             const GenericBroadcast k4(generic_fr_config(4, PriorityScheme::kId), "4-hop");
             const GenericBroadcast k5(generic_fr_config(5, PriorityScheme::kId), "5-hop");
             const GenericBroadcast kg(generic_fr_config(0, PriorityScheme::kId), "global");
             const std::vector<const BroadcastAlgorithm*> algos{&k2, &k3, &k4, &k5, &kg};
             b.run_panel("d=6", algos, 6.0);
             b.run_panel("d=18", algos, 18.0);
         }},
        // Paper: ID > Degree > NCR when sparse; all close when dense.
        {"fig13_priority",
         "Figure 13: priority options (first-receipt self-pruning, 2-hop)",
         [](bench::Bench& b) {
             const GenericBroadcast id(generic_fr_config(2, PriorityScheme::kId), "ID");
             const GenericBroadcast deg(generic_fr_config(2, PriorityScheme::kDegree),
                                        "Degree");
             const GenericBroadcast ncr(generic_fr_config(2, PriorityScheme::kNcr), "NCR");
             const std::vector<const BroadcastAlgorithm*> algos{&id, &deg, &ncr};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Paper, worst to best: MPR, Span, Rule k, Generic.
        {"fig14_static",
         "Figure 14: static algorithms (NCR priority; MPR: designating time)",
         [](bench::Bench& b) {
             const MprAlgorithm mpr;
             for (std::size_t k : {2u, 3u}) {
                 const SpanAlgorithm span(
                     SpanConfig{.hops = k, .priority = PriorityScheme::kNcr});
                 const RuleKAlgorithm rule_k(
                     RuleKConfig{.hops = k, .priority = PriorityScheme::kNcr});
                 const GenericBroadcast generic(generic_static_config(k, PriorityScheme::kNcr),
                                                "Generic");
                 const std::vector<const BroadcastAlgorithm*> algos{&mpr, &span, &rule_k,
                                                                    &generic};
                 b.run_panel("d=6, " + std::to_string(k) + "-hop", algos, 6.0);
                 b.run_panel("d=18, " + std::to_string(k) + "-hop", algos, 18.0);
             }
         }},
        // Paper, worst to best: DP, PDP, LENWB, Generic.
        {"fig15_first_receipt",
         "Figure 15: first-receipt algorithms (Degree priority)",
         [](bench::Bench& b) {
             const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
             const DominantPruningAlgorithm pdp(DominantPruningVariant::kPdp);
             for (std::size_t k : {2u, 3u}) {
                 const LenwbAlgorithm lenwb(LenwbConfig{.hops = k});
                 const GenericBroadcast generic(generic_fr_config(k, PriorityScheme::kDegree),
                                                "Generic");
                 const std::vector<const BroadcastAlgorithm*> algos{&dp, &pdp, &lenwb,
                                                                    &generic};
                 b.run_panel("d=6, " + std::to_string(k) + "-hop", algos, 6.0);
                 b.run_panel("d=18, " + std::to_string(k) + "-hop", algos, 18.0);
             }
         }},
        // Paper: Generic well below SBA (indirect coverage via replacement paths).
        {"fig16_backoff",
         "Figure 16: first-receipt-with-backoff algorithms",
         [](bench::Bench& b) {
             for (std::size_t k : {2u, 3u}) {
                 const SbaAlgorithm sba(SbaConfig{.hops = k, .history = k > 2 ? 2u : 1u});
                 const GenericBroadcast generic(generic_frb_config(k, PriorityScheme::kId),
                                                "Generic");
                 const std::vector<const BroadcastAlgorithm*> algos{&sba, &generic};
                 b.run_panel("d=6, " + std::to_string(k) + "-hop", algos, 6.0);
                 b.run_panel("d=18, " + std::to_string(k) + "-hop", algos, 18.0);
             }
         }},
        // Paper (Section 7.2): h=1 -> 2 helps a little, deeper history is flat.
        {"ablation_history",
         "Ablation: piggybacked visited-history depth h (generic FR, 2-hop)",
         [](bench::Bench& b) {
             std::vector<GenericBroadcast> variants;
             variants.reserve(5);
             for (std::size_t h : {0u, 1u, 2u, 4u, 8u}) {
                 GenericConfig cfg = generic_fr_config(2, PriorityScheme::kId);
                 cfg.history = h;
                 variants.emplace_back(cfg, "h=" + std::to_string(h));
             }
             std::vector<const BroadcastAlgorithm*> algos;
             for (const auto& v : variants) algos.push_back(&v);
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Paper (Section 6.3): PDP matches TDP without TDP's piggybacked N2(u).
        {"ablation_tdp_pdp",
         "Ablation: the neighbor-designating family (2-hop, greedy designation)\n"
         "TDP piggybacks N2(u) in every packet (O(n) extra bytes); PDP and\n"
         "AHBP pay nothing.  Expected: TDP <= PDP <= DP with TDP ~ PDP;\n"
         "AHBP's sibling-gateway elimination lands near PDP.",
         [](bench::Bench& b) {
             const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
             const DominantPruningAlgorithm tdp(DominantPruningVariant::kTdp);
             const DominantPruningAlgorithm pdp(DominantPruningVariant::kPdp);
             const DominantPruningAlgorithm ahbp(DominantPruningVariant::kAhbp);
             const std::vector<const BroadcastAlgorithm*> algos{&dp, &tdp, &pdp, &ahbp};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Paper (Section 4.2): a designated node may prune itself at priority S=1.5.
        {"ablation_relaxed",
         "Ablation: strict vs relaxed designation (Section 4.2's S=1.5 rule;\n"
         "first-receipt, 2-hop, ID priority)",
         [](bench::Bench& b) {
             auto make = [](Selection sel, bool strict, const char* label) {
                 GenericConfig cfg = hybrid_config(sel);
                 cfg.selection = sel;
                 cfg.strict_designation = strict;
                 return GenericBroadcast(cfg, label);
             };
             const GenericBroadcast nd_strict =
                 make(Selection::kNeighborDesignating, true, "ND strict");
             const GenericBroadcast nd_relaxed =
                 make(Selection::kNeighborDesignating, false, "ND relaxed");
             const GenericBroadcast hy_strict =
                 make(Selection::kHybridMaxDegree, true, "MaxDeg strict");
             const GenericBroadcast hy_relaxed =
                 make(Selection::kHybridMaxDegree, false, "MaxDeg relaxed");
             const std::vector<const BroadcastAlgorithm*> algos{&nd_strict, &nd_relaxed,
                                                                &hy_strict, &hy_relaxed};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
    };
    return specs;
}

std::vector<std::string> split_csv(const std::string& list) {
    std::vector<std::string> out;
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bench::BenchOptions opts = bench::parse_options(argc, argv);
    opts.progress = true;  // the campaign driver always reports progress

    const auto& registry = figure_registry();
    std::vector<std::string> wanted;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--figures" && i + 1 < argc) {
            wanted = split_csv(argv[++i]);
        } else if (arg == "--list") {
            for (const auto& spec : registry) {
                std::cout << spec.name << "  —  " << first_line(spec.heading) << '\n';
            }
            return 0;
        }
    }
    if (wanted.empty()) {
        for (const auto& spec : registry) wanted.emplace_back(spec.name);
    }

    // Resolve every name before running anything: a typo late in the list
    // must not cost the figures before it.
    std::vector<const FigureSpec*> figures;
    for (const std::string& name : wanted) {
        const auto it = std::find_if(registry.begin(), registry.end(),
                                     [&](const FigureSpec& s) { return s.name == name; });
        if (it == registry.end()) {
            std::cerr << "unknown figure: " << name << " (see --list)\n";
            return 2;
        }
        figures.push_back(&*it);
    }

    const std::string json_dir = opts.json_path;  // --json names a DIRECTORY here
    if (!json_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(json_dir, ec);
        if (ec) {
            std::cerr << "bench_campaign: cannot create " << json_dir << ": " << ec.message()
                      << '\n';
            return 1;
        }
    }

    int exit_code = 0;
    std::size_t done = 0;
    for (const FigureSpec* fig : figures) {
        std::cerr << "=== [" << ++done << "/" << figures.size() << "] " << fig->name << ": "
                  << first_line(fig->heading) << " ===\n";
        std::cout << fig->heading << "\n\n";

        bench::BenchOptions fig_opts = opts;
        if (!json_dir.empty()) {
            fig_opts.json_path = json_dir + "/BENCH_" + fig->name + ".json";
        }
        bench::Bench bench(fig->name, fig_opts);
        fig->run(bench);
        exit_code = std::max(exit_code, bench.finish());
    }
    return exit_code;
}
