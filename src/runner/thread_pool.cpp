#include "runner/thread_pool.hpp"

#include <cassert>
#include <utility>

namespace adhoc::runner {

namespace {

// Identifies the pool (if any) the current thread works for, so submit()
// can route continuations onto the submitting worker's own deque.
struct WorkerIdentity {
    const ThreadPool* pool = nullptr;
    std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

std::size_t ThreadPool::default_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) threads = default_jobs();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.push_back(std::make_unique<Worker>());
    }
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        threads_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        // Under the sleep mutex, like `pending_` in submit: a worker between
        // its predicate check and its wait cannot miss the stop.
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        stop_.store(true, std::memory_order_release);
    }
    sleep_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    assert(pending_.load() == 0);
}

void ThreadPool::submit(std::function<void()> task) {
    assert(task);
    std::size_t target;
    if (tls_worker.pool == this) {
        target = tls_worker.index;  // continuation: stay on this worker
    } else {
        target = next_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    }
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->queue.push_back(std::move(task));
    }
    {
        // Bumping `pending_` outside the sleep mutex could land between a
        // worker's predicate check and its wait, losing the notify and
        // leaving the task queued with every worker asleep.
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        pending_.fetch_add(1, std::memory_order_release);
    }
    sleep_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
    {  // own deque: LIFO
        Worker& w = *workers_[self];
        std::lock_guard<std::mutex> lock(w.mutex);
        if (!w.queue.empty()) {
            out = std::move(w.queue.back());
            w.queue.pop_back();
            return true;
        }
    }
    // steal from victims: FIFO, starting after self to spread contention
    for (std::size_t k = 1; k < workers_.size(); ++k) {
        Worker& victim = *workers_[(self + k) % workers_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.queue.empty()) {
            out = std::move(victim.queue.front());
            victim.queue.pop_front();
            return true;
        }
    }
    return false;
}

void ThreadPool::worker_loop(std::size_t self) {
    tls_worker = {this, self};
    std::function<void()> task;
    while (true) {
        if (try_pop(self, task)) {
            pending_.fetch_sub(1, std::memory_order_release);
            task();
            task = nullptr;
            continue;
        }
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        sleep_cv_.wait(lock, [this] {
            return stop_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
        if (stop_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0) {
            return;
        }
    }
}

}  // namespace adhoc::runner
