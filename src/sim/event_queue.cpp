#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace adhoc {

void EventQueue::push(double time, EventKind kind, NodeId node, std::size_t payload) {
    // Events are built in place at their destination: a local Event copied
    // out with wide loads right after its narrow field stores stalls the
    // store buffer, which costs a heap-sized queue about a fifth of its
    // push time.
    const std::uint64_t seq = next_seq_++;
    ++size_;
    const double offset = time - last_pop_;
    Lane* lane = nullptr;
    if (offset >= routed_lo_ && offset <= routed_hi_) {
        // Branch-free match: on a random-delay stream every per-lane
        // branch would be a coin flip.
        unsigned hit = 0;
        for (std::size_t i = 0; i < kLanes; ++i) {
            hit |= static_cast<unsigned>(lanes_[i].routes(offset)) << i;
        }
        if (hit != 0) lane = &lanes_[std::countr_zero(hit)];
    }
    if (lane == nullptr && loading()) lane = load_lane(time);
    if (lane == nullptr) {
        // Arithmetic, not a ternary: GCC would branch on `same`.
        const auto same =
            static_cast<std::size_t>(std::abs(offset - unrouted_offset_) <= unrouted_slack_);
        unrouted_repeats_ = 1 + unrouted_repeats_ * same;
        unrouted_offset_ = offset;
        unrouted_slack_ = kOffsetSlack * (1.0 + std::abs(offset));
        if (unrouted_repeats_ >= kOffsetClaim) lane = claim();
    }
    if (lane != nullptr) {
        if (lane->head_seq == kNoHead) {  // idle lane: this event becomes its head
            lane->head_seq = seq;
            lane->tail = time;
            ++live_heads_;
        } else if (time >= lane->tail) {
            lane->tail = time;
            *append_slot(*lane) = Event{time, seq, kind, node, payload};
            return;
        }
    }
    residual_push(time, seq, kind, node, payload);
}

Event EventQueue::pop() {
    assert(size_ > 0);
    --size_;
    Event e;
    if (!calendar_) {
        std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
        e = heap_.back();
        heap_.pop_back();
    } else {
        if (stale_width_) resize_calendar();
        locate();
        e = buckets_[cur_vb_ & bucket_mask_].pop_min();
        --calendar_size_;
        if (calendar_size_ < kCalendarThreshold / 4) {
            migrate_to_heap();
        } else if (calendar_size_ < buckets_.size() / 8 && buckets_.size() > kMinBuckets) {
            resize_calendar();
        }
    }
    last_pop_ = e.time;
    if (live_heads_ != 0) promote(e.seq);
    return e;
}

const Event& EventQueue::peek() const {
    assert(size_ > 0);
    if (!calendar_) return heap_.front();
    locate();
    return buckets_[cur_vb_ & bucket_mask_].min();
}

void EventQueue::clear() {
    heap_.clear();
    for (auto& bucket : buckets_) bucket.clear();
    calendar_ = false;
    stale_width_ = false;
    size_ = 0;
    calendar_size_ = 0;
    next_seq_ = 0;
    cur_vb_ = 0;
    for (Lane& lane : lanes_) {
        if (lane.first != nullptr) {  // hand the lane's chunk chain to the free list
            lane.last->next = free_chunk_;
            free_chunk_ = lane.first;
        }
        lane = Lane{};
    }
    live_heads_ = 0;
    last_pop_ = std::numeric_limits<double>::quiet_NaN();
    routed_lo_ = std::numeric_limits<double>::infinity();
    routed_hi_ = -routed_lo_;
    unrouted_offset_ = std::numeric_limits<double>::quiet_NaN();
    unrouted_slack_ = 0.0;
    unrouted_repeats_ = 0;
    load_run_ = 0;
    open_run_ = kLanes;
}

EventQueue::Lane* EventQueue::load_lane(double time) {
    if (open_run_ != kLanes && time >= lanes_[open_run_].tail) return &lanes_[open_run_];
    load_run_ = time >= load_time_ ? load_run_ + 1 : 1;
    load_time_ = time;
    if (load_run_ < kRunClaim) return nullptr;
    Lane* lane = idle_lane();
    if (lane != nullptr) {
        load_run_ = 0;
        open_run_ = static_cast<std::size_t>(lane - lanes_.data());
    }
    return lane;
}

EventQueue::Lane* EventQueue::claim() {
    Lane* lane = idle_lane();
    if (lane == nullptr) return nullptr;
    lane->lo = unrouted_offset_ - unrouted_slack_;
    lane->hi = unrouted_offset_ + unrouted_slack_;
    unrouted_repeats_ = 0;
    routed_lo_ = std::min(routed_lo_, lane->lo);
    routed_hi_ = std::max(routed_hi_, lane->hi);
    return lane;
}

EventQueue::Lane* EventQueue::idle_lane() {
    // An idle lane, preferring one that was never bound.  Rebinding an
    // idle offset lane leaves its old range in the hull, which only costs
    // a lane scan on pushes that then match nothing.
    Lane* idle = nullptr;
    for (Lane& lane : lanes_) {
        if (lane.head_seq != kNoHead) continue;
        if (lane.hi < lane.lo) return &lane;
        if (idle == nullptr) idle = &lane;
    }
    if (idle != nullptr) {
        idle->lo = 0.0;
        idle->hi = -1.0;
    }
    return idle;
}

Event* EventQueue::append_slot(Lane& lane) {
    if (lane.last == nullptr || lane.end == kChunkEvents) {
        Chunk* c = free_chunk_;
        if (c != nullptr) {
            free_chunk_ = c->next;
            c->next = nullptr;
        } else {
            c = chunks_.emplace_back(std::make_unique<Chunk>()).get();
        }
        if (lane.last == nullptr) {
            lane.first = c;
            lane.begin = 0;
        } else {
            lane.last->next = c;
        }
        lane.last = c;
        lane.end = 0;
    }
    return &lane.last->items[lane.end++];
}

void EventQueue::promote(std::uint64_t seq) {
    unsigned hit = 0;
    for (std::size_t i = 0; i < kLanes; ++i) {
        hit |= static_cast<unsigned>(lanes_[i].head_seq == seq) << i;
    }
    if (hit == 0) return;
    Lane& lane = lanes_[std::countr_zero(hit)];
    if (lane.first == nullptr) {  // nothing behind the head: the lane idles
        lane.head_seq = kNoHead;
        --live_heads_;
        return;
    }
    Chunk* chunk = lane.first;
    const Event next = chunk->items[lane.begin++];
    if (chunk == lane.last ? lane.begin == lane.end : lane.begin == kChunkEvents) {
        lane.first = chunk->next;
        lane.begin = 0;
        if (lane.first == nullptr) lane.last = nullptr;
        chunk->next = free_chunk_;
        free_chunk_ = chunk;
    }
    lane.head_seq = next.seq;
    residual_push(next.time, next.seq, next.kind, next.node, next.payload);
}

void EventQueue::residual_push(double time, std::uint64_t seq, EventKind kind, NodeId node,
                               std::size_t payload) {
    if (!calendar_) {
        heap_.push_back(Event{time, seq, kind, node, payload});
        std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
        if (heap_.size() > kCalendarThreshold) migrate_to_calendar();
        return;
    }
    ++calendar_size_;

    const std::uint64_t vb = vbucket(time);
    // An event earlier than the cursor's window would be skipped by the
    // year scan; pulling the cursor back to it is always safe (the cursor
    // may lag the minimum, never lead it).
    if (vb < cur_vb_) cur_vb_ = vb;

    auto& bucket = buckets_[vb & bucket_mask_];
    auto& items = bucket.items;
    // Appending a later event — the simulator's FIFO-burst common case —
    // is O(1); only a genuinely out-of-order arrival pays an insertion.
    if (items.empty() || EventBefore{}(items.back(), Event{time, seq})) {
        items.push_back(Event{time, seq, kind, node, payload});
    } else {
        const Event e{time, seq, kind, node, payload};
        items.insert(std::lower_bound(items.begin() + static_cast<std::ptrdiff_t>(bucket.head),
                                      items.end(), e, EventBefore{}),
                     e);
    }

    if (calendar_size_ > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) resize_calendar();
}

void EventQueue::resize_calendar() {
    std::vector<Event> events;
    gather(events);
    std::size_t want = kMinBuckets;
    while (want < calendar_size_ && want < kMaxBuckets) want <<= 1;
    rebuild(std::move(events), want);
}

void EventQueue::locate() const {
    // Year scan: walk virtual buckets from the cursor; the first bucket
    // whose minimum maps to the cursor's virtual index holds the global
    // minimum (windows are disjoint and scanned in increasing time order,
    // and the cursor never leads the minimum).
    const std::size_t buckets = buckets_.size();
    for (std::size_t scanned = 0; scanned < buckets; ++scanned, ++cur_vb_) {
        const auto& bucket = buckets_[cur_vb_ & bucket_mask_];
        if (!bucket.empty() && vbucket(bucket.min().time) == cur_vb_) return;
    }
    // Full year without a hit: every pending event lies beyond the scanned
    // window.  Direct-search the bucket minima and jump the cursor there.
    const Event* best = nullptr;
    for (const auto& bucket : buckets_) {
        if (bucket.empty()) continue;
        const Event& candidate = bucket.min();
        if (best == nullptr || EventAfter{}(*best, candidate)) best = &candidate;
    }
    assert(best != nullptr);
    cur_vb_ = vbucket(best->time);
    // Every pop after this one would pay the same scan until the width
    // fits again (e.g. a dense cluster drained ahead of sparse stragglers).
    stale_width_ = true;
}

void EventQueue::gather(std::vector<Event>& out) {
    out.reserve(calendar_ ? calendar_size_ : heap_.size());
    if (!calendar_) {
        out = std::move(heap_);
        heap_.clear();
        return;
    }
    for (auto& bucket : buckets_) {
        out.insert(out.end(),
                   bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.head),
                   bucket.items.end());
        bucket.clear();
    }
}

void EventQueue::migrate_to_calendar() {
    calendar_size_ = heap_.size();
    resize_calendar();
    calendar_ = true;
}

void EventQueue::migrate_to_heap() {
    std::vector<Event> events;
    gather(events);
    heap_ = std::move(events);
    std::make_heap(heap_.begin(), heap_.end(), EventAfter{});
    calendar_ = false;
}

void EventQueue::rebuild(std::vector<Event>&& events, std::size_t bucket_count) {
    assert((bucket_count & (bucket_count - 1)) == 0);
    buckets_.resize(bucket_count);
    bucket_mask_ = bucket_count - 1;

    width_ = estimate_width(events);
    inv_width_ = 1.0 / width_;
    stale_width_ = false;

    for (const Event& e : events) {
        buckets_[vbucket(e.time) & bucket_mask_].items.push_back(e);
    }
    const Event* min_event = nullptr;
    for (auto& bucket : buckets_) {
        if (bucket.empty()) continue;
        std::sort(bucket.items.begin(), bucket.items.end(), EventBefore{});
        if (min_event == nullptr || EventAfter{}(*min_event, bucket.min())) {
            min_event = &bucket.min();
        }
    }
    cur_vb_ = min_event != nullptr ? vbucket(min_event->time) : 0;
}

double EventQueue::estimate_width(const std::vector<Event>& events) const {
    const std::size_t n = events.size();
    if (n < 2) return 1.0;

    // Sample the k earliest times — the region the cursor drains next —
    // and size buckets to ~3 mean inter-event gaps, the classic calendar
    // queue heuristic.  Depends only on the multiset of pending times, so
    // the estimate (and thus the structure) is deterministic.
    const std::size_t k = std::min<std::size_t>(n, 256);
    std::vector<double> times(n);
    double max_time = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        times[i] = events[i].time;
        max_time = std::max(max_time, events[i].time);
    }
    std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     times.end());
    std::sort(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k));

    double gap_sum = 0.0;
    for (std::size_t i = 1; i < k; ++i) gap_sum += times[i] - times[i - 1];
    double width = 3.0 * gap_sum / static_cast<double>(k - 1);

    // Keep the virtual bucket index (time / width) comfortably inside the
    // exactly-representable integer range of double.
    width = std::max(width, max_time * 1e-9);
    if (!(width > 0.0) || !std::isfinite(width)) width = 1.0;
    return width;
}

}  // namespace adhoc
