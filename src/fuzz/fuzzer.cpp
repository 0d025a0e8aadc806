#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "fuzz/mutants.hpp"
#include "fuzz/oracles.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc::fuzz {
namespace {

namespace tel = telemetry;

const tel::MetricId kCheckTimer = tel::timer("fuzz.check");
const tel::MetricId kScenarios = tel::counter("fuzz.scenarios", "scenarios");
const tel::MetricId kFailures = tel::counter("fuzz.failures", "scenarios");
const tel::MetricId kShrinkEvals = tel::counter("fuzz.shrink_evals", "evals");
const tel::MetricId kFindings = tel::counter("fuzz.findings", "findings");
const tel::MetricId kScenarioNodes =
    tel::histogram("fuzz.scenario_nodes", {4, 8, 12, 16, 24, 32, 48, 64}, "nodes");

/// FNV-1a over a string; decorrelates per-mutant seed streams.
std::uint64_t name_hash(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// Applies the campaign-wide algorithm override, if any.
Scenario with_override(Scenario s, const std::string& algorithm) {
    if (!algorithm.empty()) s.config.algorithm = algorithm;
    return s;
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options) {
    const std::size_t jobs = std::max<std::size_t>(1, options.jobs);
    const AlgorithmPool pool(/*with_mutants=*/true);

    // Per-iteration result slots: findings land at their own index, so the
    // report order is independent of worker interleaving.
    struct Slot {
        bool checked = false;
        bool failed = false;
        CheckReport report;
        Scenario scenario;
        tel::Snapshot telemetry;  ///< metrics recorded while checking this scenario
    };
    std::vector<Slot> slots(options.iterations);

    const auto start = std::chrono::steady_clock::now();
    std::atomic<bool> out_of_time{false};
    const auto expired = [&] {
        if (options.seconds <= 0.0) return false;
        if (out_of_time.load(std::memory_order_relaxed)) return true;
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        if (elapsed.count() >= options.seconds) {
            out_of_time.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    };

    const auto worker = [&](std::size_t shard) {
        for (std::uint64_t i = shard; i < options.iterations; i += jobs) {
            if (expired()) return;
            Slot& slot = slots[i];
            slot.scenario = with_override(
                generate_scenario(options.base_seed, i, options.limits),
                options.algorithm_override);
            {
                tel::RunScope scope;  // one snapshot per scenario
                {
                    tel::ScopedTimer span(kCheckTimer);  // must end before harvest()
                    tel::count(kScenarios);
                    tel::observe(kScenarioNodes, slot.scenario.node_count);
                    slot.report = check_scenario(slot.scenario, pool);
                }
                slot.failed = !slot.report.ok;
                if (slot.failed) tel::count(kFailures);
                slot.telemetry = scope.harvest();
            }
            if (tel::jsonl_enabled()) {
                tel::jsonl_write_run(
                    "fuzz.scenario",
                    {{"iteration", i},
                     {"nodes", static_cast<std::uint64_t>(slot.scenario.node_count)},
                     {"failed", slot.failed ? 1u : 0u}},
                    slot.telemetry);
            }
            slot.checked = true;
        }
    };

    if (jobs == 1) {
        worker(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (std::size_t w = 0; w < jobs; ++w) threads.emplace_back(worker, w);
        for (std::thread& t : threads) t.join();
    }

    // A time-limited multi-worker run may leave holes in the checked
    // prefix; keep only the contiguous prefix so the report stays a pure
    // function of (base_seed, iterations_run).
    FuzzReport report;
    for (const Slot& slot : slots) {
        if (!slot.checked) break;
        ++report.iterations_run;
        if (!slot.failed) ++report.checks_passed;
        report.metrics.merge(slot.telemetry);  // iteration order: jobs-invariant
    }

    // Shrinking is serial: it dominates cost only when something is wrong,
    // and serializing keeps the shrink budget deterministic.
    tel::RunScope shrink_scope;  // shrink-phase metrics, harvested below
    for (std::uint64_t i = 0; i < report.iterations_run; ++i) {
        const Slot& slot = slots[i];
        if (!slot.failed) continue;
        tel::count(kFindings);
        const bool shrink = report.findings.size() < options.max_findings;
        report.findings.push_back(make_finding(i, slot.scenario, slot.report, pool,
                                               shrink ? options.shrink_evals : 0));
    }
    report.metrics.merge(shrink_scope.harvest());
    return report;
}

Finding make_finding(std::uint64_t iteration, const Scenario& scenario,
                     const CheckReport& report, const AlgorithmPool& pool,
                     std::size_t shrink_evals) {
    Finding finding;
    finding.iteration = iteration;
    finding.oracle = report.oracle;
    finding.detail = report.detail;
    finding.original = scenario;
    if (shrink_evals > 0) {
        const auto still_fails = [&](const Scenario& candidate) {
            tel::count(kShrinkEvals);
            const CheckReport r = check_scenario(candidate, pool);
            return !r.ok && r.oracle == finding.oracle;
        };
        finding.shrunk = shrink_scenario(scenario, still_fails, ShrinkOptions{shrink_evals},
                                         &finding.shrink);
    } else {
        finding.shrunk = normalized(scenario);  // budget spent; keep as-is
    }
    finding.shrunk_detail = check_scenario(finding.shrunk, pool).detail;
    return finding;
}

Repro finding_repro(const Finding& finding, const AlgorithmPool& pool) {
    Repro repro;
    repro.scenario = finding.shrunk;
    repro.oracle = finding.oracle;
    std::uint64_t digest = 0;
    if (replay_digest(finding.shrunk, pool, &digest)) repro.digest = digest;
    repro.note = "iteration " + std::to_string(finding.iteration) + ": " + finding.shrunk_detail;
    return repro;
}

std::vector<MutantKill> run_mutation_gate(std::uint64_t base_seed,
                                          std::uint64_t iterations_per_mutant) {
    std::vector<MutantKill> kills;
    for (const MutantSpec& spec : mutant_specs()) {
        FuzzOptions options;
        options.base_seed = base_seed ^ name_hash(spec.name);  // per-mutant stream
        options.iterations = iterations_per_mutant;
        options.limits.max_nodes = 12;   // small graphs kill pruning bugs fastest
        options.limits.faults = false;   // keep delivery/cds oracles armed
        options.limits.medium_intensity = 0.0;  // likewise: no SINR exemptions
        options.limits.registry_algorithms = false;
        options.algorithm_override = "mutant:" + spec.name;
        options.max_findings = 1;

        FuzzReport report = run_fuzz(options);
        MutantKill kill;
        kill.name = spec.name;
        kill.killed = !report.findings.empty();
        kill.iterations =
            kill.killed ? report.findings.front().iteration + 1 : report.iterations_run;
        if (kill.killed) {
            kill.oracle = report.findings.front().oracle;
            kill.shrunk_nodes = report.findings.front().shrunk.node_count;
            kill.finding = std::move(report.findings.front());
        }
        kills.push_back(std::move(kill));
    }
    return kills;
}

}  // namespace adhoc::fuzz
