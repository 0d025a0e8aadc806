// Property test: the EventQueue (FIFO lanes in front of a heap/calendar
// residual) realizes the exact (time, seq) total order of the historical
// std::priority_queue scheduler.
//
// A reference binary heap with the same comparator is driven through an
// identical operation stream (pushes, pops, clears — heavy enough to force
// the calendar migration, rebuilds and the shrink path, and shaped to bind,
// fill, drain and rebind lanes) and every popped event must match
// field-for-field, including FIFO order among equal timestamps.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

namespace adhoc {
namespace {

// The pre-calendar scheduler, verbatim: std::priority_queue on (time, seq).
class ReferenceQueue {
  public:
    void push(double time, EventKind kind, NodeId node, std::size_t payload) {
        heap_.push(Event{time, next_seq_++, kind, node, payload});
    }
    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const { return heap_.size(); }
    [[nodiscard]] const Event& peek() const { return heap_.top(); }
    Event pop() {
        Event e = heap_.top();
        heap_.pop();
        return e;
    }
    void clear() {
        heap_ = {};
        next_seq_ = 0;
    }

  private:
    std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
    std::uint64_t next_seq_ = 0;
};

void expect_same_event(const Event& got, const Event& want, std::size_t op) {
    ASSERT_EQ(got.time, want.time) << "op " << op;
    ASSERT_EQ(got.seq, want.seq) << "op " << op;
    ASSERT_EQ(got.kind, want.kind) << "op " << op;
    ASSERT_EQ(got.node, want.node) << "op " << op;
    ASSERT_EQ(got.payload, want.payload) << "op " << op;
}

TEST(SchedulerEquivalence, RandomMixedOpsMatchReferenceHeap) {
    std::mt19937_64 rng(0x5ca1ab1e);
    std::uniform_real_distribution<double> jitter(0.0, 4.0);
    std::uniform_int_distribution<int> op_dist(0, 99);
    std::uniform_int_distribution<int> tie_dist(0, 7);
    std::uniform_int_distribution<int> kind_dist(0, 3);

    EventQueue q;
    ReferenceQueue ref;
    double clock = 0.0;
    constexpr std::size_t kOps = 100000;

    for (std::size_t op = 0; op < kOps; ++op) {
        const int roll = op_dist(rng);
        if (roll < 55) {
            // Push, biased toward near-future times with frequent exact
            // ties (tie_dist quantizes) to exercise FIFO resolution.
            const double t = clock + static_cast<double>(tie_dist(rng)) +
                             (tie_dist(rng) == 0 ? 0.0 : jitter(rng));
            const auto kind = static_cast<EventKind>(kind_dist(rng));
            const auto node = static_cast<NodeId>(op % 4096);
            q.push(t, kind, node, op);
            ref.push(t, kind, node, op);
        } else if (roll < 97) {
            ASSERT_EQ(q.empty(), ref.empty());
            ASSERT_EQ(q.size(), ref.size());
            if (ref.empty()) continue;
            expect_same_event(q.peek(), ref.peek(), op);
            const Event got = q.pop();
            const Event want = ref.pop();
            expect_same_event(got, want, op);
            clock = want.time;  // monotone sim clock, like the simulator loop
        } else {
            q.clear();
            ref.clear();
            clock = 0.0;
        }
    }

    // Drain whatever is left — full suffix must match too.
    ASSERT_EQ(q.size(), ref.size());
    std::size_t op = kOps;
    while (!ref.empty()) {
        expect_same_event(q.pop(), ref.pop(), op++);
    }
    EXPECT_TRUE(q.empty());
}

TEST(SchedulerEquivalence, SustainedLargeBacklogMatches) {
    // Hold >>threshold events so the queue lives in calendar mode for the
    // whole run, including bucket-count grow rebuilds.
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> gap(0.0, 1.0);

    EventQueue q;
    ReferenceQueue ref;
    double clock = 0.0;
    for (std::size_t i = 0; i < 20000; ++i) {
        const double t = clock + gap(rng) * 16.0;
        q.push(t, EventKind::kDelivery, static_cast<NodeId>(i), i);
        ref.push(t, EventKind::kDelivery, static_cast<NodeId>(i), i);
    }
    // Steady state: pop one, push two descendants, then drain.
    for (std::size_t i = 0; i < 30000; ++i) {
        const Event want = ref.pop();
        expect_same_event(q.pop(), want, i);
        clock = want.time;
        for (int c = 0; c < 2 && i < 15000; ++c) {
            const double t = clock + 1.0 + gap(rng);
            q.push(t, EventKind::kTimer, want.node, i);
            ref.push(t, EventKind::kTimer, want.node, i);
        }
    }
    ASSERT_EQ(q.size(), ref.size());
    std::size_t op = 0;
    while (!ref.empty()) expect_same_event(q.pop(), ref.pop(), op++);
}

TEST(SchedulerEquivalence, SparseFarFutureEventsMatch) {
    // Events spread over a huge time range relative to the bucket width
    // forces the direct-search fallback after empty year scans.
    EventQueue q;
    ReferenceQueue ref;
    // Dense cluster to trigger migration with a small width estimate...
    for (std::size_t i = 0; i < 6000; ++i) {
        const double t = static_cast<double>(i) * 1e-3;
        q.push(t, EventKind::kTimer, 0, i);
        ref.push(t, EventKind::kTimer, 0, i);
    }
    // ...plus far-future outliers that land many "years" ahead.
    for (std::size_t i = 0; i < 64; ++i) {
        const double t = 1e6 + static_cast<double>(i) * 1e5;
        q.push(t, EventKind::kFault, 1, i);
        ref.push(t, EventKind::kFault, 1, i);
    }
    std::size_t op = 0;
    while (!ref.empty()) expect_same_event(q.pop(), ref.pop(), op++);
    EXPECT_TRUE(q.empty());
}

// Drives an EventQueue and the reference in lockstep; every pop and peek
// must agree field for field.
struct Lockstep {
    EventQueue q;
    ReferenceQueue ref;
    std::size_t ops = 0;
    double now = 0.0;  ///< time of the latest pop

    void push(double t, EventKind kind, NodeId node, std::size_t payload) {
        q.push(t, kind, node, payload);
        ref.push(t, kind, node, payload);
    }
    void push_after(double delay, NodeId node) {
        push(now + delay, EventKind::kDelivery, node, ops);
    }
    Event pop() {
        EXPECT_EQ(q.size(), ref.size()) << "op " << ops;
        expect_same_event(q.peek(), ref.peek(), ops);
        const Event want = ref.pop();
        expect_same_event(q.pop(), want, ops);
        ++ops;
        now = want.time;
        return want;
    }
    void clear() {
        q.clear();
        ref.clear();
        now = 0.0;
    }
    void drain() {
        while (!ref.empty()) pop();
        EXPECT_TRUE(q.empty());
    }
};

TEST(SchedulerEquivalence, FixedOffsetFanoutCascadeMatches) {
    // Three fixed delays, as a simulator with deliveries, controls and
    // beacons pushes them, plus a sparse stream of quarter-step delays
    // that lands on lane times exactly: lane heads tie with residual
    // events, and lanes tie with each other.
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<int> fanout(0, 5);
    std::uniform_int_distribution<int> quarter(1, 12);
    std::uniform_int_distribution<int> roll(0, 9);
    constexpr double kOffsets[] = {1.0, 2.5, 0.75};
    Lockstep s;
    for (NodeId v = 0; v < 8; ++v) s.push(0.0, EventKind::kTimer, v, v);
    while (s.ops < 60000 && !s.ref.empty()) {
        const Event e = s.pop();
        const int children = s.ops < 50000 ? fanout(rng) : 0;
        for (int c = 0; c < children; ++c) s.push_after(kOffsets[0], e.node + 1);
        if (e.node % 3 == 0 && s.ops < 50000) s.push_after(kOffsets[1], e.node);
        if (roll(rng) == 0 && s.ops < 50000) s.push_after(kOffsets[2], e.node);
        if (roll(rng) < 2 && s.ops < 50000) s.push_after(0.25 * quarter(rng), e.node);
        if (s.q.size() > 3000) {  // keep the cascade bounded
            while (s.q.size() > 1000) s.pop();
        }
    }
    s.drain();
}

TEST(SchedulerEquivalence, MixedFixedAndRandomOffsetsWithClearMatch) {
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> jitter(0.0, 3.0);
    std::uniform_int_distribution<int> roll(0, 999);
    Lockstep s;
    for (std::size_t op = 0; op < 120000; ++op) {
        const int r = roll(rng);
        if (r < 280) {
            s.push_after(1.0, static_cast<NodeId>(op % 97));
        } else if (r < 400) {
            s.push_after(4.0, static_cast<NodeId>(op % 89));
        } else if (r < 530) {
            s.push_after(jitter(rng), static_cast<NodeId>(op % 83));
        } else if (r < 540) {
            s.push_after(0.0, static_cast<NodeId>(op % 7));  // zero delay: same-time FIFO
        } else if (r < 997) {
            if (!s.ref.empty()) s.pop();
        } else {
            s.clear();
        }
    }
    s.drain();
}

TEST(SchedulerEquivalence, BacklogCrossesCalendarThresholdWithLiveLanes) {
    // A fixed-delay cascade keeps lanes live while a random-delay backlog
    // pushes the residual past the calendar threshold and drains it back
    // below the heap threshold, twice.
    std::mt19937_64 rng(13);
    std::uniform_real_distribution<double> far(0.0, 50.0);
    Lockstep s;
    for (NodeId v = 0; v < 16; ++v) s.push(0.0, EventKind::kTimer, v, v);
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < 9000; ++i) {
            s.push_after(far(rng), static_cast<NodeId>(i % 512));
            if (i % 3 == 0) {
                const Event e = s.pop();
                s.push_after(1.0, e.node);
                s.push_after(1.0, e.node + 1);
            }
        }
        // Drain to 200 while the cascade goes on for the first 4000 pops.
        for (std::size_t k = 0; s.q.size() > 200; ++k) {
            const Event e = s.pop();
            if (k < 4000 && e.node % 2 == 0) s.push_after(1.0, e.node);
        }
    }
    s.drain();
}

TEST(SchedulerEquivalence, OffsetsWithinRoutingSlackMatch) {
    // Delays that differ by less than the lane-matching slack route to one
    // lane, but their times need not be in order: pops at nearly one time
    // followed by pushes at now + 1 +- 1e-12 must not be appended behind
    // a later tail.  Pushes into the past take negative offsets.
    std::mt19937_64 rng(19);
    std::uniform_int_distribution<int> pick(0, 3);
    constexpr double kDelays[] = {1.0, 1.0 - 1e-12, 1.0 + 1e-12, -0.5};
    Lockstep s;
    for (NodeId v = 0; v < 32; ++v) s.push(0.0, EventKind::kTimer, v, v);
    while (!s.ref.empty() && s.ops < 30000) {
        const Event e = s.pop();
        for (int c = 0; c < 2 && s.q.size() < 2000; ++c) {
            const int k = pick(rng);
            if (k < 3 || e.time > 1.0) s.push_after(kDelays[k], e.node);
        }
    }
    s.drain();
}

TEST(SchedulerEquivalence, SortedScheduleLoadMatches) {
    // A caller loading its schedule before the first pop: a sorted fault
    // plan, sorted arrivals, staggered beacons (each sorted, interleaved
    // runs), then an out-of-order tail and periodic beacon re-arming.
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    Lockstep s;
    double t = 0.0;
    for (std::size_t i = 0; i < 300; ++i) {
        t += unit(rng);
        s.push(t, EventKind::kFault, static_cast<NodeId>(i % 60), i);
    }
    t = 0.0;
    for (std::size_t i = 0; i < 1000; ++i) {
        t += 0.15 * unit(rng);
        s.push(t, EventKind::kTimer, static_cast<NodeId>(i % 60), i << 1);
    }
    for (NodeId v = 0; v < 60; ++v) {
        s.push(5.0 * (1.0 + v / 60.0), EventKind::kTimer, v, 1);
    }
    for (std::size_t i = 0; i < 40; ++i) {
        s.push(200.0 * unit(rng), EventKind::kTimer, 0, 2 * i + 1);
    }
    while (!s.ref.empty() && s.ops < 40000) {
        const Event e = s.pop();
        if (e.kind == EventKind::kTimer && (e.payload & 1) && e.time < 120.0) {
            s.push_after(5.0, e.node);  // beacon re-arms at a fixed period
        } else if (e.kind != EventKind::kFault && e.time < 120.0) {
            for (NodeId c = 0; c < 3; ++c) s.push_after(1.0, e.node + c);
        }
        if (s.q.size() > 4000) {
            while (s.q.size() > 2000) s.pop();
        }
    }
    s.drain();
}

TEST(SchedulerEquivalence, ClearResetsSequenceAndKeepsWorking) {
    EventQueue q;
    for (std::size_t i = 0; i < 10000; ++i) {
        q.push(static_cast<double>(i % 97), EventKind::kTimer, 0, i);
    }
    q.clear();
    EXPECT_TRUE(q.empty());
    // Sequence restarts at zero, exactly like the old scheduler.
    q.push(1.0, EventKind::kTimer, 3, 9);
    EXPECT_EQ(q.peek().seq, 0u);
    EXPECT_EQ(q.pop().node, 3u);
}

}  // namespace
}  // namespace adhoc
