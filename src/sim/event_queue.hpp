/// \file event_queue.hpp
/// \brief Deterministic discrete-event queue for the broadcast simulator.
///
/// Events are ordered by (time, insertion sequence); ties in time resolve
/// in FIFO order, which makes every simulation run fully deterministic for
/// a given seed — a property the reproduction harness depends on.
///
/// Implementation: monotone FIFO *lanes* in front of a *residual*
/// heap/calendar store.
///
/// Lanes.  On a medium with a fixed propagation delay d, every copy sent
/// at time `now` arrives at `now + d`, and `now` only grows, so the
/// deliveries a simulator pushes are already in (time, seq) order when
/// they are pushed.  An offset lane is bound to one offset from the last
/// popped time; a push at that offset whose time is at or after the
/// lane's tail is appended to the lane in O(1).  Only each lane's head
/// (its earliest event) sits in the residual, so the residual minimum is
/// the global minimum: a pop is one residual pop, plus one residual insert
/// of the lane's next event when the popped event was a lane head.
///
/// A lane is claimed by `kOffsetClaim` consecutive unrouted pushes at one
/// offset (one sender's fanout, a periodic beacon); a stream that draws
/// each delay from many values never gets there and pays only a range
/// test and a few counters per push.  Before the first pop, while the
/// caller loads its schedule, `kRunClaim` unrouted pushes in time order
/// claim a run lane instead, which takes the rest of that sorted run
/// (session arrivals, a fault plan, staggered beacons).  Lane storage is
/// fixed-size chunks on one shared free list: the queue holds its live
/// events plus at most two partly used chunks per lane.
///
/// Residual.  Small residuals (the paper-scale regime, a few hundred
/// pending events) use an explicit binary heap with exactly the old
/// `std::priority_queue` semantics; once the residual crosses
/// `kCalendarThreshold` it migrates to a calendar structure — a circular
/// array of time buckets of width `width_`, each bucket an ascending
/// (time, seq) vector behind a head cursor: the bucket minimum is
/// `items[head]`, removal advances the cursor, and the common append of a
/// later event is a plain `push_back`.  Pops walk the bucket "year" cursor
/// forward; pushes drop into `floor(time / width) mod buckets`.  With the
/// bucket count resized to track the residual, both operations are
/// amortized O(1) versus the heap's O(log n).
///
/// Lanes and both residual modes realize the same total order, so the pop
/// sequence is *bit-identical* to the historical heap (property-tested
/// against a reference heap in tests/scheduler_equivalence_test.cpp).
/// Storage keeps its capacity across `clear()` so per-run resets stop
/// re-paying allocation.

#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "graph/graph.hpp"

namespace adhoc {

/// What an event means to the simulator loop.
enum class EventKind : std::uint8_t {
    kDelivery,  ///< a transmission arrives at `node`; payload = transmission index
    kTimer,     ///< a scheduled decision timer fires; payload = timer kind
    kControl,   ///< a control message arrives at `node`; payload = message index
    kFault,     ///< a scheduled fault fires; payload = fault-plan event index
};

struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< insertion order, breaks time ties
    EventKind kind = EventKind::kTimer;
    NodeId node = kInvalidNode;
    std::size_t payload = 0;
};

/// Strict-weak order "a fires after b" — the heap comparator.
struct EventAfter {
    bool operator()(const Event& a, const Event& b) const noexcept {
        if (a.time != b.time) return a.time > b.time;
        return a.seq > b.seq;
    }
};

/// Strict-weak order "a fires before b" — ascending calendar-bucket order.
struct EventBefore {
    bool operator()(const Event& a, const Event& b) const noexcept {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
    }
};

/// Min-queue on (time, seq).
class EventQueue {
  public:
    void push(double time, EventKind kind, NodeId node, std::size_t payload);

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Removes and returns (moves out) the earliest event.
    /// Precondition: !empty().
    Event pop();

    /// The earliest event without removing it.  Precondition: !empty().
    [[nodiscard]] const Event& peek() const;

    /// Empties the queue, unbinds every lane and resets the insertion
    /// sequence.  Storage — heap vector, calendar buckets, lane chunks —
    /// keeps its capacity, so a cleared-and-refilled queue performs no
    /// fresh allocation.
    void clear();

  private:
    /// Number of lanes; a stream with more distinct fixed offsets leaves
    /// the extra ones in the residual.
    static constexpr std::size_t kLanes = 4;
    /// Events per lane chunk (1 KiB).
    static constexpr std::uint32_t kChunkEvents = 32;
    /// Consecutive unrouted pushes at one offset that claim an offset lane.
    /// A stream that draws each delay from many values stays below it.
    static constexpr std::size_t kOffsetClaim = 4;
    /// Unrouted pushes in time order, before the first pop, that claim a
    /// run lane: the caller is loading a sorted schedule (arrivals, fault
    /// plans, staggered beacons).
    static constexpr std::size_t kRunClaim = 8;
    /// Relative slack when matching an offset to a lane: `(now + d) - now`
    /// rounds differently for different `now`.  Routing only; the order
    /// is guarded by the exact tail compare.
    static constexpr double kOffsetSlack = 1e-9;
    static constexpr std::uint64_t kNoHead = ~std::uint64_t{0};

    struct Chunk {
        Event items[kChunkEvents];
        Chunk* next = nullptr;
    };

    /// One FIFO run.  Its head is in the residual (`head_seq`); the events
    /// behind it are `first->items[begin..)` through `last->items[..end)`.
    struct Lane {
        double lo = 0.0, hi = -1.0;  ///< offsets routed here (empty: unbound or run lane)
        double tail = 0.0;           ///< time of the lane's latest event
        std::uint64_t head_seq = kNoHead;
        Chunk* first = nullptr;
        Chunk* last = nullptr;
        std::uint32_t begin = 0, end = 0;

        [[nodiscard]] bool routes(double offset) const noexcept {
            return (offset >= lo) & (offset <= hi);
        }
    };

    /// No pop since clear(): the caller is loading its schedule.
    [[nodiscard]] bool loading() const noexcept { return std::isnan(last_pop_); }
    /// Before the first pop: the open run lane if `time` extends it, else
    /// a new run lane once kRunClaim pushes came in time order; nullptr
    /// otherwise.
    Lane* load_lane(double time);
    /// Binds an idle lane to the latest unrouted push's offset; nullptr
    /// when every lane is busy.
    Lane* claim();
    /// An idle lane, unbound; nullptr when every lane is busy.
    Lane* idle_lane();
    /// The slot behind the lane's last event, taking a chunk when full.
    Event* append_slot(Lane& lane);
    /// Moves the event behind the popped head `seq` (if any) into the residual.
    void promote(std::uint64_t seq);

    /// Inserts into the heap or calendar.  Takes fields, not an Event, so
    /// the event is built in place (see push()).
    void residual_push(double time, std::uint64_t seq, EventKind kind, NodeId node,
                       std::size_t payload);
    /// Re-buckets the calendar for the current residual size.
    void resize_calendar();

    /// Residual size at which it migrates to the calendar structure.
    /// Below it the explicit binary heap is both exact (same order) and
    /// faster — calendar bookkeeping only pays off at scale.
    static constexpr std::size_t kCalendarThreshold = 4096;
    static constexpr std::size_t kMinBuckets = 1024;        // power of two
    static constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;

    void migrate_to_calendar();
    void migrate_to_heap();
    void rebuild(std::vector<Event>&& events, std::size_t bucket_count);
    void gather(std::vector<Event>& out);
    [[nodiscard]] double estimate_width(const std::vector<Event>& events) const;
    /// Positions the cursor on the virtual bucket holding the global
    /// minimum.  Logically const (cursor is mutable); amortized O(1) —
    /// a scan that misses a whole year flags the width as stale.
    void locate() const;

    /// Virtual (un-wrapped) bucket index of `time`.  Bucket placement and
    /// the cursor's in-window test both use this exact function, so float
    /// rounding at window boundaries can never disagree between them.
    [[nodiscard]] std::uint64_t vbucket(double time) const noexcept {
        double q = time * inv_width_;
        if (!(q < 4.6e18)) q = 4.6e18;  // clamp pathological quotients (and NaN)
        return static_cast<std::uint64_t>(q);
    }

    // ---- shared -----------------------------------------------------
    // No two counters that push() or pop() update together are adjacent:
    // GCC merges such updates into one 16-byte read-modify-write, whose
    // load cannot be forwarded from the previous call's 8-byte stores.
    std::uint64_t next_seq_ = 0;
    bool calendar_ = false;
    std::size_t size_ = 0;  ///< pending events, lanes included

    // ---- lanes ------------------------------------------------------
    std::array<Lane, kLanes> lanes_{};
    std::size_t live_heads_ = 0;  ///< lanes whose head is in the residual
    /// Time of the latest pop; offsets count from it.  NaN until the
    /// first pop, while the caller loads its schedule: every offset is
    /// then NaN and matches no lane.
    double last_pop_ = std::numeric_limits<double>::quiet_NaN();
    /// Hull of the offset lanes' ranges: one test rejects most pushes of a
    /// random-delay stream.  Empty (lo > hi) while no lane is bound.
    double routed_lo_ = std::numeric_limits<double>::infinity();
    double routed_hi_ = -std::numeric_limits<double>::infinity();
    /// The latest push no lane took: its offset (NaN: none since clear())
    /// and matching slack, and the consecutive unrouted pushes at that
    /// offset.
    double unrouted_offset_ = std::numeric_limits<double>::quiet_NaN();
    double unrouted_slack_ = 0.0;
    std::size_t unrouted_repeats_ = 0;
    /// While loading, lane `open_run_` (kLanes: none) takes pushes in
    /// time order, and `load_run_` counts the unrouted pushes in time
    /// order up to the latest, at `load_time_`.  An index, not a pointer,
    /// so a moved queue keeps it.
    std::size_t open_run_ = kLanes;
    std::size_t load_run_ = 0;
    double load_time_ = 0.0;
    /// Every chunk the queue owns.  Chunks are allocated one by one, so
    /// growing the pool moves nothing and a lane's pointers stay valid.
    std::vector<std::unique_ptr<Chunk>> chunks_;
    Chunk* free_chunk_ = nullptr;  ///< free list threaded through Chunk::next

    // ---- heap mode --------------------------------------------------
    std::vector<Event> heap_;

    // ---- calendar mode ----------------------------------------------
    std::size_t calendar_size_ = 0;  ///< pending events in the calendar
    /// One calendar bucket: `items[head..)` are pending, ascending on
    /// (time, seq); the prefix before `head` is already popped and is
    /// reclaimed when the bucket drains empty.
    struct Bucket {
        std::vector<Event> items;
        std::size_t head = 0;

        [[nodiscard]] bool empty() const noexcept { return head >= items.size(); }
        [[nodiscard]] const Event& min() const noexcept { return items[head]; }
        Event pop_min() {
            Event e = std::move(items[head]);
            if (++head == items.size()) {
                items.clear();
                head = 0;
            }
            return e;
        }
        void clear() noexcept {
            items.clear();
            head = 0;
        }
    };

    std::vector<Bucket> buckets_;
    std::uint64_t bucket_mask_ = 0;            ///< buckets_.size() - 1 (power of two)
    double width_ = 1.0;                       ///< bucket time width
    double inv_width_ = 1.0;
    mutable std::uint64_t cur_vb_ = 0;         ///< cursor: virtual bucket being drained
    /// A year scan found nothing, so the width no longer fits the pending
    /// times: the next pop re-buckets the calendar (and re-estimates it).
    mutable bool stale_width_ = false;
};

}  // namespace adhoc
