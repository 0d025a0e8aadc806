/// \file oracles.hpp
/// \brief The fuzzer's correctness oracles and the algorithm pool that
/// resolves a scenario's algorithm-under-test.
///
/// One scenario check runs the configured algorithm on the scenario
/// topology and cross-examines the outcome against every oracle whose
/// preconditions the scenario meets:
///
///  - `delivery`     — full delivery on the (connected) knowledge graph;
///                     requires a deterministic-guarantee algorithm, no
///                     loss and no mobility burst (Theorem 1).
///  - `cds`          — transmitted set is a connected dominating set;
///                     requires the delivery preconditions and no jitter
///                     (Theorem 2).
///  - `invariants`   — trace invariants I1-I5 (always, except stale-view
///                     runs, which produce no trace).
///  - `sanity`       — mask-level wellformedness that holds under every
///                     fault model: transmitters received (or are the
///                     source), receivers have a transmitting neighbor in
///                     the actual topology.
///  - `determinism`  — running the scenario twice produces bit-identical
///                     results (the jobs-invariance contract in the small).
///  - `kernels`      — the production coverage kernel agrees with the
///                     reference:: implementations on views sampled from
///                     the scenario topology.
///  - `recovery`     — faulted runs (churn/asymmetry and/or the NACK
///                     layer): the run terminated (implicit), no event
///                     ever touched a node inside its crash interval, and
///                     the delivered/degraded/partitioned classification
///                     is self-consistent.
///  - `traffic`      — scenarios with a continuous-traffic workload
///                     (`traffic_sessions > 0`): every session of the
///                     multi-session run is eventually classified into
///                     exactly one outcome class, the classification is
///                     self-consistent, duplicate caches stay under their
///                     ceiling, the run reproduces bit-identically, and
///                     fault-free lossless runs deliver every session.
///  - `scale`        — scenarios with `scale_check`: the windowed
///                     ScaleEngine replays the broadcast byte-identically
///                     to the Simulator (forward/received sets, counts,
///                     completion time, transmission-order digest) at a
///                     seed-derived (wheels, jobs) point.  Self-skips
///                     outside the engine's honorable subset.
///  - `scale_resilient` — `scale_check` composed with churn/asymmetry
///                     and/or the NACK layer: the engine's faulted plane
///                     (calendar fault buckets, counter-based loss draws,
///                     window-synchronous recovery) must match a dedicated
///                     resilient Simulator reference byte for byte,
///                     including retransmit/control/suppression counters
///                     and the final down mask.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "fuzz/scenario.hpp"

namespace adhoc::fuzz {

/// Resolves scenario algorithm names to BroadcastAlgorithm instances.
/// Owns the registry and (when enabled) the mutant catalog, so resolved
/// pointers stay valid for the pool's lifetime; "generic" configurations
/// are materialized per call.
class AlgorithmPool {
  public:
    /// \param with_mutants  also resolve "mutant:<name>" (mutation gate).
    explicit AlgorithmPool(bool with_mutants = false);
    ~AlgorithmPool();
    AlgorithmPool(const AlgorithmPool&) = delete;
    AlgorithmPool& operator=(const AlgorithmPool&) = delete;

    /// A resolved algorithm; `owned` keeps per-call instances alive.
    struct Resolved {
        const BroadcastAlgorithm* algorithm = nullptr;
        std::unique_ptr<BroadcastAlgorithm> owned;
    };

    /// Returns nullptr in `.algorithm` for unknown names.
    [[nodiscard]] Resolved resolve(const AlgorithmConfig& config) const;

    /// True when the algorithm claims full delivery + CDS on connected
    /// graphs under a fault-free medium (every algorithm but gossip).
    /// Mutants claim it too — the mutation gate exists to catch the lie.
    [[nodiscard]] static bool has_cds_guarantee(const std::string& algorithm);

    /// True when the delivery guarantee survives arrival reordering.
    /// Neighbor-designating / hybrid schemes relay only when the *first*
    /// heard sender designated them, so jitter can legitimately silence a
    /// needed relay; their delivery oracle applies on jitter-free media only.
    [[nodiscard]] bool delivery_robust_under_jitter(const AlgorithmConfig& config) const;

  private:
    std::vector<RegistryEntry> registry_;
    std::vector<std::pair<std::string, std::unique_ptr<BroadcastAlgorithm>>> mutants_;
};

/// Verdict of one scenario check.
struct CheckReport {
    bool ok = true;
    std::string oracle;  ///< first failing oracle id ("" when ok)
    std::string detail;  ///< human-readable diagnostic
    std::uint64_t digest = 0;  ///< run digest (valid also when ok)
};

/// Digest of one broadcast outcome: FNV-1a over the transmitted/received
/// masks, counters, completion time bits and the full trace.  Two runs are
/// "bit-identical" iff their digests match.
[[nodiscard]] std::uint64_t result_digest(const BroadcastResult& result);

/// Runs the scenario once (no oracles) and returns the digest — the
/// replay primitive.  Returns false when the algorithm is unknown.
[[nodiscard]] bool replay_digest(const Scenario& s, const AlgorithmPool& pool,
                                 std::uint64_t* digest);

/// Runs every applicable oracle; stops at the first failure.
[[nodiscard]] CheckReport check_scenario(const Scenario& s, const AlgorithmPool& pool);

}  // namespace adhoc::fuzz
