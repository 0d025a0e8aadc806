/// \file fuzz_broadcast.cpp
/// \brief Differential fuzzer driver.
///
/// Modes:
///   fuzz_broadcast [--seed N] [--iters N] [--seconds F] [--jobs N]
///                  [--max-nodes N] [--algorithm NAME] [--no-faults]
///                  [--out DIR]
///       Run a fuzz campaign.  Exit 1 when any oracle fires; minimized
///       repros are written to DIR (when given) as .repro files.
///   fuzz_broadcast --replay FILE...
///       Re-execute each repro and verify the recorded digest and oracle
///       expectation.  Output is a pure function of the file contents —
///       identical at any --jobs value.  Exit 1 on any mismatch.
///   fuzz_broadcast --mutants [--seed N] [--iters N]
///       Oracle mutation-kill gate: every catalog mutant must be caught
///       and shrunk.  Exit 1 when any mutant survives.
///   fuzz_broadcast --emit-corpus DIR
///       Write the deterministic seed corpus (small passing scenarios with
///       pinned digests) into DIR.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "graph/graph.hpp"
#include "io/cli.hpp"

namespace {

using namespace adhoc;
using namespace adhoc::fuzz;

struct Args {
    std::uint64_t seed = 1;
    std::uint64_t iters = 500;
    double seconds = 0.0;
    std::size_t jobs = 1;
    std::size_t max_nodes = 48;
    bool faults = true;
    double churn = 1.0;
    double traffic = 1.0;
    double scale = 1.0;
    double medium = 1.0;
    std::string algorithm;
    std::string out_dir;
    std::vector<std::string> replay_files;
    bool mutants = false;
    std::string corpus_dir;
    bool bad = false;
};

void print_usage() {
    std::fprintf(stderr,
                 "usage: fuzz_broadcast [--seed N] [--iters N] [--seconds F] [--jobs N]\n"
                 "                      [--max-nodes N] [--algorithm NAME] [--no-faults]\n"
                 "                      [--churn F] [--traffic F] [--scale F] [--medium F]\n"
                 "                      [--out DIR]\n"
                 "       fuzz_broadcast --replay FILE...\n"
                 "       fuzz_broadcast --mutants [--seed N] [--iters N]\n"
                 "       fuzz_broadcast --emit-corpus DIR\n");
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                args.bad = true;
                return "";
            }
            return argv[++i];
        };
        // Validated numeric values: a flag whose value fails to parse is a
        // usage error (exit 2), never a silent 0 or an uncaught exception.
        const auto next_u64 = [&](std::uint64_t& out) {
            const std::string text = next();
            if (args.bad) return;
            if (const auto value = io::parse_u64(text)) {
                out = *value;
            } else {
                std::fprintf(stderr, "invalid value for %s: '%s'\n", arg.c_str(),
                             text.c_str());
                args.bad = true;
            }
        };
        const auto next_size = [&](std::size_t& out) {
            std::uint64_t value = 0;
            next_u64(value);
            if (!args.bad) out = static_cast<std::size_t>(value);
        };
        // Shared validation for the non-negative knobs (durations and axis
        // intensities): one rejection path instead of one per flag.
        const auto next_nonneg = [&](double& out) {
            const std::string text = next();
            if (args.bad) return;
            if (const auto value = io::parse_nonnegative_double(text)) {
                out = *value;
            } else {
                std::fprintf(stderr, "invalid value for %s: '%s'\n", arg.c_str(),
                             text.c_str());
                args.bad = true;
            }
        };
        if (arg == "--seed") {
            next_u64(args.seed);
        } else if (arg == "--iters") {
            next_u64(args.iters);
        } else if (arg == "--seconds") {
            next_nonneg(args.seconds);
        } else if (arg == "--jobs") {
            next_size(args.jobs);
        } else if (arg == "--max-nodes") {
            next_size(args.max_nodes);
        } else if (arg == "--algorithm") {
            args.algorithm = next();
        } else if (arg == "--no-faults") {
            args.faults = false;
        } else if (arg == "--churn") {
            next_nonneg(args.churn);
        } else if (arg == "--traffic") {
            next_nonneg(args.traffic);
        } else if (arg == "--scale") {
            next_nonneg(args.scale);
        } else if (arg == "--medium") {
            next_nonneg(args.medium);
        } else if (arg == "--out") {
            args.out_dir = next();
        } else if (arg == "--replay") {
            while (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                args.replay_files.push_back(argv[++i]);
            }
            if (args.replay_files.empty()) {
                std::fprintf(stderr, "--replay needs at least one file\n");
                args.bad = true;
            }
        } else if (arg == "--mutants") {
            args.mutants = true;
        } else if (arg == "--emit-corpus") {
            args.corpus_dir = next();
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            args.bad = true;
        }
        if (args.bad) break;
    }
    return args;
}

/// Writes one finding's minimized repro; returns the path (empty on error).
std::string write_finding(const std::string& dir, const Finding& finding,
                          const AlgorithmPool& pool) {
    const Repro repro = finding_repro(finding, pool);
    char name[64];
    std::snprintf(name, sizeof(name), "finding-%016" PRIx64 ".repro",
                  scenario_fingerprint(finding.shrunk));
    const std::string path = dir + "/" + name;
    if (!save_repro(path, repro)) return "";
    return path;
}

int run_fuzz_mode(const Args& args) {
    FuzzOptions options;
    options.base_seed = args.seed;
    options.iterations = args.iters;
    options.seconds = args.seconds;
    options.jobs = args.jobs;
    options.limits.max_nodes = args.max_nodes;
    options.limits.faults = args.faults;
    options.limits.churn_intensity = args.churn;
    options.limits.traffic_intensity = args.traffic;
    options.limits.scale_intensity = args.scale;
    options.limits.medium_intensity = args.medium;
    options.algorithm_override = args.algorithm;

    const FuzzReport report = run_fuzz(options);
    std::printf("fuzz: seed=%" PRIu64 " iterations=%" PRIu64 " passed=%" PRIu64
                " findings=%zu\n",
                args.seed, report.iterations_run, report.checks_passed,
                report.findings.size());
    if (report.clean()) return 0;

    const AlgorithmPool pool(/*with_mutants=*/true);
    if (!args.out_dir.empty()) std::filesystem::create_directories(args.out_dir);
    for (const Finding& finding : report.findings) {
        std::printf("FAIL iter=%" PRIu64 " oracle=%s nodes=%zu->%zu evals=%zu\n  %s\n"
                    "  shrunk: %s\n",
                    finding.iteration, finding.oracle.c_str(),
                    finding.original.node_count, finding.shrunk.node_count,
                    finding.shrink.evals, finding.detail.c_str(),
                    finding.shrunk_detail.c_str());
        if (!args.out_dir.empty()) {
            const std::string path = write_finding(args.out_dir, finding, pool);
            if (!path.empty()) std::printf("  repro: %s\n", path.c_str());
        }
    }
    return 1;
}

int run_replay_mode(const Args& args) {
    const AlgorithmPool pool(/*with_mutants=*/true);
    int failures = 0;
    for (const std::string& path : args.replay_files) {
        std::string error;
        const std::optional<Repro> repro = load_repro(path, &error);
        if (!repro) {
            std::printf("ERROR %s: %s\n", path.c_str(), error.c_str());
            ++failures;
            continue;
        }
        std::uint64_t digest = 0;
        if (!replay_digest(repro->scenario, pool, &digest)) {
            std::printf("ERROR %s: unknown algorithm '%s'\n", path.c_str(),
                        repro->scenario.config.algorithm.c_str());
            ++failures;
            continue;
        }
        const CheckReport check = check_scenario(repro->scenario, pool);
        const std::string observed = check.ok ? "pass" : check.oracle;
        bool ok = observed == repro->oracle;
        if (repro->digest && *repro->digest != digest) ok = false;
        std::printf("%s %s digest=0x%016" PRIx64 " oracle=%s\n", ok ? "OK" : "MISMATCH",
                    path.c_str(), digest, observed.c_str());
        // A recorded finding: show the violation the replay observes.
        if (!check.ok && observed == repro->oracle) std::printf("  %s\n", check.detail.c_str());
        if (!ok) {
            if (repro->digest && *repro->digest != digest) {
                std::printf("  expected digest 0x%016" PRIx64 "\n", *repro->digest);
            }
            if (observed != repro->oracle) {
                std::printf("  expected oracle %s: %s\n", repro->oracle.c_str(),
                            check.detail.c_str());
            }
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

int run_mutants_mode(const Args& args) {
    const std::vector<MutantKill> kills = run_mutation_gate(args.seed, args.iters);
    int surviving = 0;
    for (const MutantKill& kill : kills) {
        if (kill.killed) {
            std::printf("KILLED %-20s iters=%" PRIu64 " oracle=%s shrunk_nodes=%zu\n",
                        kill.name.c_str(), kill.iterations, kill.oracle.c_str(),
                        kill.shrunk_nodes);
        } else {
            std::printf("SURVIVED %-18s after %" PRIu64 " iterations\n",
                        kill.name.c_str(), kill.iterations);
            ++surviving;
        }
    }
    std::printf("mutation gate: %zu/%zu killed\n", kills.size() - surviving, kills.size());
    return surviving == 0 ? 0 : 1;
}

/// Deterministic seed corpus: small structured scenarios spanning the
/// axes, digests pinned at emission time.
int run_emit_corpus(const Args& args) {
    struct Case {
        const char* name;
        const char* topology;  // path | cycle | star | grid | barbell
        std::size_t n;
        AlgorithmConfig config;
        std::vector<CrashFault> crashes;  // optional fault schedule
        bool recovery;                    // arm the NACK/retransmit layer

        Case(const char* name, const char* topology, std::size_t n, AlgorithmConfig config,
             std::vector<CrashFault> crashes = {}, bool recovery = false)
            : name(name),
              topology(topology),
              n(n),
              config(std::move(config)),
              crashes(std::move(crashes)),
              recovery(recovery) {}
    };
    const auto generic = [](Timing t, Selection sel, std::size_t hops, PriorityScheme p) {
        AlgorithmConfig c;
        c.timing = t;
        c.selection = sel;
        c.hops = hops;
        c.priority = p;
        return c;
    };
    const auto registry = [](const char* key) {
        AlgorithmConfig c;
        c.algorithm = key;
        return c;
    };
    const std::vector<Case> cases = {
        {"path5-static-sp", "path", 5,
         generic(Timing::kStatic, Selection::kSelfPruning, 2, PriorityScheme::kId)},
        {"cycle6-fr-sp", "cycle", 6,
         generic(Timing::kFirstReceipt, Selection::kSelfPruning, 2, PriorityScheme::kId)},
        {"star6-fr-nd", "star", 6,
         generic(Timing::kFirstReceipt, Selection::kNeighborDesignating, 2,
                 PriorityScheme::kId)},
        {"grid9-frb-sp", "grid", 9,
         generic(Timing::kRandomBackoff, Selection::kSelfPruning, 2,
                 PriorityScheme::kDegree)},
        {"barbell8-frbd-maxdeg", "barbell", 8,
         generic(Timing::kDegreeBackoff, Selection::kHybridMaxDegree, 2,
                 PriorityScheme::kDegree)},
        {"cycle5-fr-minpri", "cycle", 5,
         generic(Timing::kFirstReceipt, Selection::kHybridMinId, 2, PriorityScheme::kId)},
        {"path6-global-sp", "path", 6,
         generic(Timing::kStatic, Selection::kSelfPruning, 0, PriorityScheme::kId)},
        {"grid9-flooding", "grid", 9, registry("flooding")},
        {"barbell8-dp", "barbell", 8, registry("dp")},
        {"cycle7-mpr", "cycle", 7, registry("mpr")},
        {"star7-wu-li", "star", 7, registry("wu-li")},
        {"path7-sba", "path", 7, registry("sba")},
        // Fault corpus: exercises the crash/recovery path end to end.
        {"grid9-crash-recovery", "grid", 9,
         generic(Timing::kFirstReceipt, Selection::kSelfPruning, 2, PriorityScheme::kId),
         {CrashFault{4, 2.0, 6.0}}, /*recovery=*/true},
        // Crashing a bridge endpoint partitions the far clique: the run
        // must classify as partitioned, not hang or fail.
        {"barbell8-bridge-crash", "barbell", 8, registry("flooding"),
         {CrashFault{3, 0.5, -1.0}}, /*recovery=*/false},
    };

    std::filesystem::create_directories(args.corpus_dir);
    const AlgorithmPool pool(/*with_mutants=*/false);
    int failures = 0;
    int index = 0;
    for (const Case& c : cases) {
        Scenario s;
        s.family = "corpus";
        s.run_seed = 0x5eed0000ULL + static_cast<std::uint64_t>(index);
        s.node_count = c.n;
        s.source = 0;
        s.config = c.config;
        Graph g(0);
        const std::string topology = c.topology;
        if (topology == "path") {
            g = path_graph(c.n);
        } else if (topology == "cycle") {
            g = cycle_graph(c.n);
        } else if (topology == "star") {
            g = star_graph(c.n);
        } else if (topology == "grid") {
            g = grid_graph(3, c.n / 3);
        } else {
            // Barbell: two K_{n/2} cliques joined by a single bridge edge.
            const std::size_t half = c.n / 2;
            g = Graph(2 * half);
            for (std::size_t u = 0; u < half; ++u) {
                for (std::size_t v = u + 1; v < half; ++v) {
                    g.add_edge(u, v);
                    g.add_edge(half + u, half + v);
                }
            }
            g.add_edge(half - 1, half);
        }
        s.node_count = g.node_count();
        s.edges = g.edges();
        s.crashes = c.crashes;
        s.recovery = c.recovery;
        s = normalized(s);

        const CheckReport check = check_scenario(s, pool);
        if (!check.ok) {
            std::printf("SKIP %s: oracle %s fired during emission: %s\n", c.name,
                        check.oracle.c_str(), check.detail.c_str());
            ++failures;
            continue;
        }
        Repro repro;
        repro.scenario = s;
        repro.oracle = "pass";
        repro.digest = check.digest;
        repro.note = std::string("seed corpus: ") + c.name;
        char file[96];
        std::snprintf(file, sizeof(file), "%02d-%s.repro", index, c.name);
        const std::string path = args.corpus_dir + "/" + file;
        if (!save_repro(path, repro)) {
            std::printf("ERROR writing %s\n", path.c_str());
            ++failures;
        } else {
            std::printf("wrote %s digest=0x%016" PRIx64 "\n", path.c_str(), check.digest);
        }
        ++index;
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    if (args.bad) {
        print_usage();
        return 2;
    }
    if (!args.replay_files.empty()) return run_replay_mode(args);
    if (args.mutants) return run_mutants_mode(args);
    if (!args.corpus_dir.empty()) return run_emit_corpus(args);
    return run_fuzz_mode(args);
}
