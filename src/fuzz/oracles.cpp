#include "fuzz/oracles.hpp"

#include <bit>
#include <sstream>

#include "algorithms/generic.hpp"
#include "core/coverage.hpp"
#include "core/view.hpp"
#include "fuzz/mutants.hpp"
#include "graph/traversal.hpp"
#include "runner/seed.hpp"
#include "stats/rng.hpp"
#include "traffic/engine.hpp"
#include "traffic/policy.hpp"
#include "traffic/workload.hpp"
#include "verify/cds_check.hpp"
#include "verify/invariants.hpp"

namespace adhoc::fuzz {
namespace {

GenericConfig to_generic_config(const AlgorithmConfig& c) {
    GenericConfig cfg;
    cfg.timing = c.timing;
    cfg.selection = c.selection;
    cfg.hops = c.hops;
    cfg.priority = c.priority;
    cfg.history = c.history;
    cfg.coverage.strong = c.strong;
    cfg.strict_designation = c.strict_designation;
    return cfg;
}

CheckReport fail(std::string oracle, std::string detail, std::uint64_t digest = 0) {
    CheckReport r;
    r.ok = false;
    r.oracle = std::move(oracle);
    r.detail = std::move(detail);
    r.digest = digest;
    return r;
}

BroadcastResult run_once(const Scenario& s, const BroadcastAlgorithm& algo, const Graph& knowledge,
                         const Graph& actual) {
    Rng rng(s.run_seed);
    if (!s.lost_edges.empty()) {
        return algo.broadcast_with_stale_knowledge(knowledge, actual, s.source, rng);
    }
    const MediumConfig medium = s.medium_config();
    if (s.has_faults() || s.recovery) {
        const faults::FaultPlan plan = s.fault_plan();
        faults::RecoveryConfig recovery;
        recovery.enabled = s.recovery;
        return algo.broadcast_resilient(knowledge, s.source, rng, medium, plan, recovery,
                                        /*trace=*/true)
            .result;
    }
    return algo.broadcast_traced(knowledge, s.source, rng, medium);
}

/// The recovery oracle: no trace event may touch a node inside its crash
/// interval, and the outcome classification must be self-consistent.
/// Returns an empty string when clean.
std::string recovery_violation(const Scenario& s, const Graph& knowledge,
                               const BroadcastResult& result) {
    // Crash events at time t are queued before any same-time delivery, so
    // an event *at* the crash instant is already a violation; recovery at
    // time t is applied first too, so events at the recovery instant are
    // legal: the forbidden interval is [at, recover_at).
    for (const TraceEvent& e : result.trace.events()) {
        if (e.kind == TraceKind::kPrune || e.kind == TraceKind::kDesignate) continue;
        for (const CrashFault& c : s.crashes) {
            if (e.node != c.node) continue;
            const bool down = e.time >= c.at && (c.recover_at < 0.0 || e.time < c.recover_at);
            if (down) {
                std::ostringstream out;
                out << "event at t=" << e.time << " touched node " << e.node
                    << " inside its crash interval [" << c.at << ", "
                    << (c.recover_at < 0.0 ? std::string("inf")
                                           : std::to_string(c.recover_at))
                    << ")";
                return out.str();
            }
        }
    }

    const faults::ResilienceSummary summary =
        faults::classify_outcome(knowledge, s.source, result, s.fault_plan());
    switch (summary.outcome) {
        case faults::DeliveryOutcome::kDelivered:
            if (summary.delivered_up != summary.up_count) {
                return "classified delivered but an up node missed the packet";
            }
            break;
        case faults::DeliveryOutcome::kPartitioned:
            if (summary.missed_reachable != 0) {
                return "classified partitioned but a reachable up node missed the packet";
            }
            if (summary.delivered_up == summary.up_count) {
                return "classified partitioned but every up node holds the packet";
            }
            break;
        case faults::DeliveryOutcome::kDegraded:
            if (summary.missed_reachable == 0) {
                return "classified degraded but no reachable up node missed the packet";
            }
            break;
    }
    return {};
}

std::uint64_t traffic_digest(const traffic::TrafficResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t x) {
        h ^= x;
        h *= 0x100000001b3ULL;
    };
    mix(r.delivered);
    mix(r.degraded);
    mix(r.partitioned);
    mix(r.data_transmissions);
    mix(r.data_bytes);
    mix(r.fresh_deliveries);
    mix(r.duplicates_suppressed);
    mix(r.sv_beacons);
    mix(r.control_bytes);
    mix(r.pulls_sent);
    mix(r.repairs_served);
    mix(std::bit_cast<std::uint64_t>(r.completion_time));
    for (const traffic::SessionOutcome& s : r.sessions) {
        mix((std::uint64_t{s.source} << 32) | s.seq);
        mix((static_cast<std::uint64_t>(s.outcome) << 32) | s.delivered_up);
        mix(std::bit_cast<std::uint64_t>(s.last_delivery));
        mix(s.forwards);
    }
    return h;
}

/// The continuous-traffic oracle, over two legs: flooding and the
/// memoised generic-fr policy.  In each leg the scenario's multi-session
/// workload runs to completion with every session in exactly one outcome
/// class, the classification is self-consistent, no per-node duplicate
/// cache exceeds its ceiling, and a second run on the same (now reused)
/// policy reproduces the first bit-identically.  Flooding keeps full
/// delivery under any arrival order, so only its leg also requires a
/// fault-free lossless run to deliver every session; FR may legitimately
/// leave a session degraded under jitter.  Returns an empty string when
/// clean.
std::string traffic_violation(const Scenario& s, const Graph& knowledge) {
    traffic::TrafficConfig tc;
    tc.sessions = s.traffic_sessions;
    tc.rate = s.traffic_rate;
    if (s.traffic_bursty) tc.process = traffic::ArrivalProcess::kBursty;
    const traffic::Workload wl =
        traffic::make_workload(tc, knowledge.node_count(), s.run_seed, 0);

    traffic::EngineConfig config;
    config.medium.loss_probability = s.loss;
    config.medium.jitter = s.jitter;
    const faults::FaultPlan plan = s.fault_plan();

    const auto leg = [&](const char* key, bool expect_delivery) -> std::string {
        const auto policy = traffic::make_policy(knowledge, key);
        const auto once = [&] {
            traffic::TrafficEngine engine(knowledge, *policy, config);
            if (s.has_faults()) engine.attach_faults(&plan);
            Rng rng(runner::splitmix64(s.run_seed ^ 0x7aff1cULL));
            return engine.run(wl, rng);
        };
        const traffic::TrafficResult r = once();

        if (r.sessions.size() != s.traffic_sessions) {
            return "engine reported " + std::to_string(r.sessions.size()) +
                   " sessions, expected " + std::to_string(s.traffic_sessions);
        }
        if (r.delivered + r.degraded + r.partitioned != r.sessions.size()) {
            return "outcome classes do not partition the session set";
        }
        for (const traffic::SessionOutcome& outcome : r.sessions) {
            switch (outcome.outcome) {
                case faults::DeliveryOutcome::kDelivered:
                    if (outcome.delivered_up != outcome.up_count) {
                        return "session classified delivered but an up node missed it";
                    }
                    break;
                case faults::DeliveryOutcome::kPartitioned:
                    if (outcome.missed_reachable != 0) {
                        return "session classified partitioned but a reachable up node missed "
                               "it";
                    }
                    if (outcome.delivered_up == outcome.up_count) {
                        return "session classified partitioned but every up node holds it";
                    }
                    break;
                case faults::DeliveryOutcome::kDegraded:
                    if (outcome.missed_reachable == 0) {
                        return "session classified degraded but no reachable up node missed it";
                    }
                    break;
            }
        }
        if (r.cache_ceiling_bytes > 0 && r.cache_peak_bytes > r.cache_ceiling_bytes) {
            return "duplicate cache grew past its ceiling (" +
                   std::to_string(r.cache_peak_bytes) + " > " +
                   std::to_string(r.cache_ceiling_bytes) + " bytes)";
        }
        if (traffic_digest(once()) != traffic_digest(r)) {
            return "two traffic runs of the same seed diverged";
        }
        if (expect_delivery && !s.has_faults() && s.loss == 0.0 &&
            r.delivered != r.sessions.size()) {
            return std::to_string(r.sessions.size() - r.delivered) +
                   " sessions undelivered on a fault-free lossless medium";
        }
        return {};
    };

    if (std::string violation = leg("flooding", true); !violation.empty()) return violation;
    if (std::string violation = leg("generic-fr", false); !violation.empty()) {
        return "generic-fr: " + violation;
    }
    return {};
}

/// Runs `engine` from the scenario's source and requires byte-identical
/// results against the Simulator's `ref`: masks, counts, completion time,
/// fault/recovery counters, final down mask (empty on both sides for a
/// fault-free run) and the global transmission-order digest.  `plane`
/// opens the diagnostic.  Returns an empty string when they agree.
std::string scale_mismatch(const std::string& plane, ScaleEngine& engine, const Scenario& s,
                           const BroadcastResult& ref) {
    const ScaleResult got = engine.run(s.source);
    if (engine.forwarded_mask() != ref.transmitted) {
        return plane + " forward set diverged from the Simulator's";
    }
    if (engine.received_mask() != ref.received) {
        return plane + " received set diverged from the Simulator's";
    }
    if (got.forward_count != ref.forward_count || got.received_count != ref.received_count) {
        return plane + " counts diverged (forwards " + std::to_string(got.forward_count) +
               " vs " + std::to_string(ref.forward_count) + ")";
    }
    if (got.completion_time != ref.completion_time) {
        return plane + " completion time diverged";
    }
    if (got.retransmit_count != ref.retransmit_count ||
        got.control_count != ref.control_count ||
        got.fault_suppressed != ref.fault_suppressed) {
        return plane + " recovery counters diverged (retransmits " +
               std::to_string(got.retransmit_count) + " vs " +
               std::to_string(ref.retransmit_count) + ", controls " +
               std::to_string(got.control_count) + " vs " +
               std::to_string(ref.control_count) + ", suppressed " +
               std::to_string(got.fault_suppressed) + " vs " +
               std::to_string(ref.fault_suppressed) + ")";
    }
    if (got.down != ref.down) {
        return plane + " final down mask diverged";
    }
    if (got.order_digest != reference_transmission_digest(ref.trace)) {
        return plane + " transmission-order digest diverged from the trace fold";
    }
    return {};
}

/// The scale-differential oracles: replay the broadcast through the
/// windowed ScaleEngine and compare.  Self-skips (empty string) outside the
/// engine's honorable subset.  Wheel/job choice is seed-derived: over a
/// campaign the sharding space gets swept, while any single scenario stays
/// reproducible.
///
/// `scale` (fault-free): `result` came from plain broadcast_traced with a
/// default medium (the caller checks), so it IS the reference.
///
/// `scale_resilient` (churn/asymmetry and/or recovery): the engine runs
/// the faulted plane against a dedicated resilient Simulator reference,
/// rerun here because the engine's window-synchronous recovery demands an
/// aligned config (`nack_delay` a multiple of the delay), while run_once
/// keeps the historical `RecoveryConfig{}` default of 0.5: both machines
/// get the same aligned config, so the comparison stays exact and every
/// pinned corpus digest — computed from run_once's result — is untouched.
/// The recovery budgets come from `run_seed` bits above the wheel/job
/// ones, so a campaign sweeps them without a draw from the scenario stream.
std::string scale_divergence(const Scenario& s, const BroadcastAlgorithm& algo,
                             const Graph& knowledge, const BroadcastResult& result) {
    std::optional<ScaleConfig> cfg;
    if (s.config.algorithm == "generic") {
        const GenericConfig gc = to_generic_config(s.config);
        const bool honorable =
            (gc.timing == Timing::kStatic || gc.timing == Timing::kFirstReceipt) &&
            gc.selection == Selection::kSelfPruning && gc.hops >= 1;
        if (!honorable) return {};
        cfg.emplace();
        cfg->policy = ScalePolicy::kGenericCoverage;
        cfg->generic = gc;
    } else if (s.config.algorithm.starts_with("mutant:")) {
        return {};  // mutants diverge on purpose; the kill gate owns them
    } else {
        cfg = scale_config_for(s.config.algorithm);
        if (!cfg) return {};
    }
    cfg->wheels = 1 + s.run_seed % 7;
    cfg->jobs = 1 + (s.run_seed >> 8) % 3;
    ScaleEngine engine(knowledge, *cfg);
    if (!s.has_faults() && !s.recovery) return scale_mismatch("scale", engine, s, result);

    const faults::FaultPlan plan = s.fault_plan();
    faults::RecoveryConfig recovery;
    recovery.enabled = s.recovery;
    recovery.nack_delay = 1.0;  // window-aligned (set_recovery's contract)
    const std::uint64_t bits = s.run_seed >> 16;
    recovery.max_beacons = bits % 6;
    recovery.max_nacks = (bits >> 3) % 5;
    recovery.retransmit_budget = (bits >> 6) % 4;
    recovery.backoff_factor = static_cast<double>(1 + (bits >> 8) % 3);
    recovery.history = 1 + (bits >> 10) % 3;

    Rng rng(s.run_seed);
    const ResilientResult ref = algo.broadcast_resilient(knowledge, s.source, rng, MediumConfig{},
                                                         plan, recovery, /*trace=*/true);
    engine.attach_faults(&plan);
    engine.set_recovery(recovery);
    return scale_mismatch("faulted scale", engine, s, ref.result);
}

/// The medium-degeneracy oracle: a kSinr medium with beta = 0 and zero
/// noise accepts every arrival, so it must replay the ideal backend's
/// run byte for byte (the backends' determinism contract: the reception
/// decision consumes no randomness and never perturbs scheduling).  Only
/// meaningful for kSinr — the uniform-power backend rejects on any
/// interference even with beta = 0.  Returns an empty string when clean.
std::string medium_degeneracy(const Scenario& s, const BroadcastAlgorithm& algo,
                              const Graph& knowledge, const Graph& actual) {
    Scenario degenerate = s;
    degenerate.sinr_beta = 0.0;
    degenerate.sinr_noise = 0.0;
    Scenario ideal = s;
    ideal.medium_backend = MediumBackend::kIdeal;
    ideal.positions.clear();
    const std::uint64_t d = result_digest(run_once(degenerate, algo, knowledge, actual));
    const std::uint64_t i = result_digest(run_once(ideal, algo, knowledge, actual));
    if (d != i) return "beta=0 zero-noise sinr run diverged from the ideal backend";
    return {};
}

/// Production-vs-reference coverage kernel agreement on views sampled from
/// the scenario topology.  Returns an empty string on agreement.
std::string kernel_disagreement(const Scenario& s, const Graph& g) {
    PriorityKeys keys(g, s.config.priority);
    Rng rng(runner::splitmix64(s.run_seed ^ 0x6b9e11ULL));
    const std::size_t k = s.config.hops;
    const std::size_t samples = std::min<std::size_t>(g.node_count(), 6);

    std::vector<char> visited(g.node_count(), 0);
    std::vector<char> designated(g.node_count(), 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        if (rng.chance(0.25)) {
            visited[v] = 1;
        } else if (rng.chance(0.15)) {
            designated[v] = 1;
        }
    }

    CoverageOptions combos[6];
    combos[0].strong = s.config.strong;
    combos[1].strong = !s.config.strong;
    combos[2].max_path_hops = 3;
    combos[3].strong = true;
    combos[3].coverage_radius = 1;
    combos[4].coverage_radius = 2;
    combos[5].merge_visited = false;

    for (std::size_t i = 0; i < samples; ++i) {
        const NodeId v = static_cast<NodeId>(rng.index(g.node_count()));
        const View stat = make_static_view(g, v, k, keys);
        const View dyn = make_dynamic_view(g, v, k, keys, visited, designated);
        for (const View* view : {&stat, &dyn}) {
            for (const CoverageOptions& opts : combos) {
                const CoverageOutcome got = evaluate_coverage(*view, v, opts);
                const CoverageOutcome want = reference::evaluate_coverage(*view, v, opts);
                if (got.covered != want.covered || got.uncovered_u != want.uncovered_u ||
                    got.uncovered_w != want.uncovered_w) {
                    std::ostringstream out;
                    out << "node " << v << " strong=" << opts.strong
                        << " hops=" << opts.max_path_hops << " radius=" << opts.coverage_radius
                        << " merge=" << opts.merge_visited << ": kernel covered=" << got.covered
                        << " reference covered=" << want.covered;
                    return out.str();
                }
            }
        }
    }
    return {};
}

}  // namespace

AlgorithmPool::AlgorithmPool(bool with_mutants) : registry_(make_registry()) {
    if (with_mutants) {
        for (const MutantSpec& spec : mutant_specs()) {
            mutants_.emplace_back(spec.name, spec.make());
        }
    }
}

AlgorithmPool::~AlgorithmPool() = default;

AlgorithmPool::Resolved AlgorithmPool::resolve(const AlgorithmConfig& config) const {
    Resolved r;
    if (config.algorithm == "generic") {
        r.owned = std::make_unique<GenericBroadcast>(to_generic_config(config));
        r.algorithm = r.owned.get();
        return r;
    }
    if (config.algorithm.starts_with("mutant:")) {
        const std::string name = config.algorithm.substr(7);
        for (const auto& [key, algo] : mutants_) {
            if (key == name) {
                r.algorithm = algo.get();
                return r;
            }
        }
        return r;
    }
    r.algorithm = find_algorithm(registry_, config.algorithm);
    return r;
}

bool AlgorithmPool::has_cds_guarantee(const std::string& algorithm) {
    // Gossip is explicitly probabilistic (paper Section 1).  Mutants claim
    // the guarantee — exposing the lie is the mutation-kill gate's job.
    return !algorithm.starts_with("gossip");
}

bool AlgorithmPool::delivery_robust_under_jitter(const AlgorithmConfig& config) const {
    // Neighbor-designating / hybrid schemes forward only when the sender
    // they first heard designated them; jitter can reorder arrivals so the
    // designating sender is no longer first, legitimately silencing a
    // needed relay (the paper models an error-free, uniform-delay medium).
    // Self-pruning and static-set schemes decide from their own view and
    // keep the delivery guarantee under any arrival order.
    if (config.algorithm == "generic") {
        return config.selection == Selection::kSelfPruning;
    }
    for (const RegistryEntry& entry : registry_) {
        if (entry.key == config.algorithm) {
            return entry.style != SelectionStyle::kNeighborDesignating &&
                   entry.style != SelectionStyle::kHybrid;
        }
    }
    return true;  // mutants: static self-pruning variants, timing-robust
}

std::uint64_t result_digest(const BroadcastResult& result) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t x) {
        h ^= x;
        h *= 0x100000001b3ULL;
    };
    for (const char c : result.transmitted) mix(static_cast<unsigned char>(c));
    for (const char c : result.received) mix(static_cast<unsigned char>(c) ^ 0x80u);
    mix(result.forward_count);
    mix(result.received_count);
    mix(std::bit_cast<std::uint64_t>(result.completion_time));
    mix(result.full_delivery ? 1 : 0);
    for (const TraceEvent& e : result.trace.events()) {
        mix(std::bit_cast<std::uint64_t>(e.time));
        mix((static_cast<std::uint64_t>(e.kind) << 48) | ((std::uint64_t{e.node} << 16) ^
                                                          e.other));
    }
    return h;
}

bool replay_digest(const Scenario& s, const AlgorithmPool& pool, std::uint64_t* digest) {
    const auto resolved = pool.resolve(s.config);
    if (resolved.algorithm == nullptr) return false;
    const Graph knowledge = s.knowledge_graph();
    const Graph actual = s.actual_graph();
    *digest = result_digest(run_once(s, *resolved.algorithm, knowledge, actual));
    return true;
}

CheckReport check_scenario(const Scenario& s, const AlgorithmPool& pool) {
    if (s.node_count == 0 || s.source >= s.node_count) {
        return fail("malformed", "source out of range or empty topology");
    }
    const Graph knowledge = s.knowledge_graph();
    if (!is_connected(knowledge)) {
        return fail("malformed", "knowledge graph is not connected (scenario not normalized)");
    }
    const auto resolved = pool.resolve(s.config);
    if (resolved.algorithm == nullptr) {
        return fail("resolve", "unknown algorithm '" + s.config.algorithm + "'");
    }
    const Graph actual = s.actual_graph();
    const BroadcastAlgorithm& algo = *resolved.algorithm;

    const BroadcastResult result = run_once(s, algo, knowledge, actual);
    const std::uint64_t digest = result_digest(result);

    // Determinism: the same scenario must reproduce bit-identically.
    {
        const BroadcastResult again = run_once(s, algo, knowledge, actual);
        if (result_digest(again) != digest) {
            return fail("determinism", "two runs of the same seed diverged", digest);
        }
    }

    // Mask-level sanity holds under every fault model.
    for (NodeId v = 0; v < knowledge.node_count(); ++v) {
        if (result.transmitted[v] && !result.received[v]) {
            return fail("sanity", "node " + std::to_string(v) + " transmitted but not received",
                        digest);
        }
        if (result.received[v] && v != s.source && !result.transmitted[v]) {
            bool has_sender = false;
            for (NodeId u : actual.neighbors(v)) {
                // Recovery repairs (resend) put real packets on the air
                // without marking the sender as a forward node.
                if (result.transmitted[u] ||
                    (!result.retransmitted.empty() && result.retransmitted[u])) {
                    has_sender = true;
                    break;
                }
            }
            if (!has_sender) {
                return fail("sanity",
                            "node " + std::to_string(v) + " received without a transmitting "
                            "neighbor in the actual topology",
                            digest);
            }
        }
    }

    // Trace invariants (stale-view runs produce no trace; crash
    // suppression makes I-level accounting inapplicable under churn).
    if (s.lost_edges.empty() && !s.has_faults()) {
        const InvariantReport report = check_invariants(knowledge, s.source, result);
        if (!report.ok) return fail("invariants", report.describe(), digest);
    }

    // Faulted / recovery runs: crash isolation + outcome classification.
    if (s.has_faults() || s.recovery) {
        const std::string violation = recovery_violation(s, knowledge, result);
        if (!violation.empty()) return fail("recovery", violation, digest);
    }

    // Continuous traffic: every session of the multi-session workload is
    // eventually delivered-or-classified under the same fault plan.
    if (s.has_traffic()) {
        const std::string violation = traffic_violation(s, knowledge);
        if (!violation.empty()) return fail("traffic", violation, digest);
    }

    // Theorems 1 & 2: delivery and CDS under the fault-free preconditions.
    const bool expect_delivery =
        AlgorithmPool::has_cds_guarantee(s.config.algorithm) && s.loss == 0.0 &&
        s.lost_edges.empty() && !s.has_faults() &&
        (s.jitter == 0.0 || pool.delivery_robust_under_jitter(s.config)) &&
        // A non-degenerate physical layer legitimately silences links: a
        // uniform-power medium statically prunes them, and a kSinr medium
        // with beta > 0 rejects interfered/noisy arrivals.  Degenerate
        // kSinr (beta = 0) accepts everything and keeps the guarantee.
        (!s.has_medium() ||
         (s.medium_backend == MediumBackend::kSinr && s.sinr_beta == 0.0));
    if (expect_delivery) {
        if (!result.full_delivery) {
            std::size_t missing = 0;
            NodeId witness = kInvalidNode;
            for (NodeId v = 0; v < knowledge.node_count(); ++v) {
                if (!result.received[v]) {
                    ++missing;
                    if (witness == kInvalidNode) witness = v;
                }
            }
            return fail("delivery",
                        std::to_string(missing) + " nodes unreached (first: node " +
                            std::to_string(witness) + ")",
                        digest);
        }
        if (s.jitter == 0.0) {
            BroadcastVerdict verdict = check_broadcast(knowledge, s.source, result);
            if (s.recovery) {
                // Theorem 2's CDS is the set of nodes that put the packet on
                // the air.  A recovery repair is such a transmission, and its
                // chain names the repairing holder, so the receiver counts
                // that holder visited even when it was pruned from the
                // forward set: the CDS is forwarders plus repairers.
                std::vector<char> senders = result.transmitted;
                for (NodeId v = 0; v < result.retransmitted.size(); ++v) {
                    if (result.retransmitted[v]) senders[v] = 1;
                }
                verdict.cds = check_cds(knowledge, senders);
            }
            if (!verdict.ok()) {
                return fail("cds", verdict.cds.describe() +
                                       (verdict.source_transmitted ? "" : " (source silent)"),
                            digest);
            }
        }
    }

    // Scale differential: the windowed engine must reproduce the serial
    // result byte-for-byte.  Only meaningful on the engine's honorable
    // medium (no loss/jitter, no stale views, ideal backend).
    if (s.scale_check && s.loss == 0.0 && s.jitter == 0.0 && s.lost_edges.empty() &&
        !s.has_medium()) {
        const std::string violation = scale_divergence(s, algo, knowledge, result);
        if (!violation.empty()) {
            return fail(s.has_faults() || s.recovery ? "scale_resilient" : "scale", violation,
                        digest);
        }
    }

    // Physical-layer degeneracy: a beta = 0 zero-noise kSinr run must
    // replay the ideal backend byte for byte.
    if (s.medium_backend == MediumBackend::kSinr) {
        const std::string violation = medium_degeneracy(s, algo, knowledge, actual);
        if (!violation.empty()) return fail("medium", violation, digest);
    }

    // Production-vs-reference kernel agreement on sampled views.
    if (knowledge.node_count() <= 160) {
        const std::string mismatch = kernel_disagreement(s, knowledge);
        if (!mismatch.empty()) return fail("kernels", mismatch, digest);
    }

    CheckReport ok;
    ok.digest = digest;
    return ok;
}

}  // namespace adhoc::fuzz
