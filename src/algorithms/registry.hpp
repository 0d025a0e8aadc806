/// \file registry.hpp
/// \brief Name-indexed registry of every algorithm in the repository.
///
/// Used by the examples' command-line front-ends and the taxonomy bench.
/// Names are lowercase-kebab ("dp", "generic-fr", "hybrid-maxdeg", ...).

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "sim/scale_engine.hpp"

namespace adhoc {

/// Category per the paper's Table 1.
enum class AlgorithmCategory : std::uint8_t {
    kBaseline,                 ///< flooding / gossip
    kStatic,                   ///< proactive CDS
    kFirstReceipt,             ///< dynamic, decide at first receipt
    kFirstReceiptWithBackoff,  ///< dynamic, decide after backoff
};

/// Selection style per Table 1.
enum class SelectionStyle : std::uint8_t {
    kNone,                 ///< baselines
    kSelfPruning,
    kNeighborDesignating,
    kHybrid,
};

[[nodiscard]] std::string to_string(AlgorithmCategory category);
[[nodiscard]] std::string to_string(SelectionStyle style);

struct RegistryEntry {
    std::string key;
    AlgorithmCategory category;
    SelectionStyle style;
    std::string hop_info;  ///< "2-hop", "3-hop", ...
    std::unique_ptr<BroadcastAlgorithm> algorithm;
};

/// Builds the full registry (one entry per named configuration).
[[nodiscard]] std::vector<RegistryEntry> make_registry();

/// Finds an algorithm by key; nullptr when absent.  The returned pointer
/// is owned by `registry`.
[[nodiscard]] const BroadcastAlgorithm* find_algorithm(
    const std::vector<RegistryEntry>& registry, const std::string& key);

/// Maps a registry key onto a `ScaleEngine` configuration that reproduces
/// the named algorithm *exactly* (byte-identical forward set against the
/// serial Simulator), or nullopt when no such mapping exists.
///
/// Only exact equivalences are returned — this is the scale plane's
/// honesty contract, enforced by the differential tests:
///  - "flooding"        -> kFlood
///  - "generic-static"  -> kGenericCoverage with generic_static_config(2)
///  - "generic-fr"      -> kGenericCoverage with generic_fr_config(2)
/// Everything else is nullopt: backoff timings and neighbor designation
/// need per-node timers/pullback events; wu-li and rule-k run a marking
/// precheck (degree < 2 / pairwise-connected neighborhood) that diverges
/// from the pure coverage condition on clique neighborhoods; gossip is
/// randomized.  `wheels`/`jobs` are left at their defaults for
/// the caller to tune — they never change the result.
[[nodiscard]] std::optional<ScaleConfig> scale_config_for(const std::string& key);

}  // namespace adhoc
