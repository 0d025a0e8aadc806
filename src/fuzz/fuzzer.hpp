/// \file fuzzer.hpp
/// \brief The differential fuzz loop and the oracle mutation-kill gate.
///
/// `run_fuzz` generates counter-indexed scenarios, checks each against the
/// oracle suite (oracles.hpp) and shrinks failures to minimal repros
/// (shrink.hpp).  Scenario i is a pure function of (base_seed, i), and the
/// report is assembled in iteration order, so a campaign's findings are
/// bit-identical at any jobs value — the same contract the campaign runner
/// keeps for benchmark sweeps.
///
/// `run_mutation_gate` validates the oracles themselves: for each entry of
/// the mutant catalog (mutants.hpp) it fuzzes with the algorithm pinned to
/// the mutant and asserts a failure is found and shrinks small.  A suite
/// that cannot kill known bugs guards nothing.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc::fuzz {

struct FuzzOptions {
    std::uint64_t base_seed = 1;
    std::uint64_t iterations = 200;   ///< scenario budget
    double seconds = 0.0;             ///< wall-clock cap (0 = none), checked between iterations
    std::size_t jobs = 1;             ///< worker threads
    GenerationLimits limits;          ///< topology/fault bounds
    std::size_t shrink_evals = 2000;  ///< per-finding shrink budget
    /// When set, every scenario runs this algorithm instead of the sampled
    /// one (the mutation gate pins "mutant:<name>" here).
    std::string algorithm_override;
    std::uint64_t max_findings = 8;  ///< stop shrinking after this many
};

/// One confirmed oracle failure.
struct Finding {
    std::uint64_t iteration = 0;  ///< generator index that produced it
    std::string oracle;
    std::string detail;           ///< diagnostic from the original failure
    /// The shrunk scenario's own diagnostic: what a replay of its repro
    /// shows.  Node ids differ from `detail`'s, since shrinking renumbers.
    std::string shrunk_detail;
    Scenario original;            ///< as generated
    Scenario shrunk;              ///< after delta debugging
    ShrinkStats shrink;
};

struct FuzzReport {
    std::uint64_t iterations_run = 0;
    std::uint64_t checks_passed = 0;
    std::vector<Finding> findings;  ///< iteration order, deterministic

    /// Campaign aggregate of per-iteration telemetry snapshots, merged in
    /// iteration order (empty while telemetry is disabled).  Like the rest
    /// of the report, the integer metrics are jobs-invariant.
    telemetry::Snapshot metrics;

    [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Runs the campaign.  Deterministic for fixed (options.base_seed,
/// iterations actually run); when `seconds` cuts the run short the already
/// completed prefix is still iteration-ordered.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options);

/// The finding for `scenario`, generator index `iteration`, which failed
/// with `report`: shrunk against the same oracle within `shrink_evals`
/// checks (0: only normalized), then checked once more for its own
/// diagnostic.
[[nodiscard]] Finding make_finding(std::uint64_t iteration, const Scenario& scenario,
                                   const CheckReport& report, const AlgorithmPool& pool,
                                   std::size_t shrink_evals);

/// The repro file of a finding: its shrunk scenario, oracle and digest,
/// and a note naming the iteration and the shrunk scenario's diagnostic —
/// the violation a replay of the file shows.
[[nodiscard]] Repro finding_repro(const Finding& finding, const AlgorithmPool& pool);

/// Gate result for one mutant.
struct MutantKill {
    std::string name;
    bool killed = false;
    std::uint64_t iterations = 0;    ///< iterations until first kill (or budget)
    std::size_t shrunk_nodes = 0;    ///< node count of the minimized repro
    std::string oracle;              ///< oracle that fired
    std::optional<Finding> finding;  ///< present when killed
};

/// Fuzzes every catalog mutant with a small fault-free budget.  All
/// mutants must report killed=true for the oracle suite to be trusted.
[[nodiscard]] std::vector<MutantKill> run_mutation_gate(std::uint64_t base_seed,
                                                        std::uint64_t iterations_per_mutant = 64);

}  // namespace adhoc::fuzz
