#include "common/thread_pool.hh"

#include <algorithm>

#include "common/telemetry.hh"

namespace flexon {

namespace {

/** Set for the lifetime of a pool worker thread. */
thread_local bool tlsInsideWorker = false;

/** Set while a caller thread is inside run() (holds the dispatch). */
thread_local bool tlsInDispatch = false;

} // namespace

bool
ThreadPool::insideWorker()
{
    // Both a pool worker and a caller mid-dispatch must run nested
    // forks inline: the worker to keep the barrier acyclic, the
    // caller because it already holds the (non-recursive) dispatch
    // mutex.
    return tlsInsideWorker || tlsInDispatch;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

size_t
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return workers_.size();
}

void
ThreadPool::execChunk(Task task, void *ctx, size_t lane,
                      size_t begin, size_t end)
{
    if (begin >= end)
        return;
    // Lane accounting is always on: two clock reads per chunk of a
    // dispatch that already pays a barrier. Only the span is gated.
    const bool trace = telemetry::traceEnabled();
    if (trace)
        telemetry::traceBegin("pool.chunk");
    const uint64_t start = telemetry::nowNanos();
    task(ctx, lane, begin, end);
    const uint64_t elapsed = telemetry::nowNanos() - start;
    if (trace)
        telemetry::traceEnd("pool.chunk");
    LaneMetrics &metrics = laneMetrics_[lane];
    metrics.busyNs.fetch_add(elapsed, std::memory_order_relaxed);
    metrics.chunks.fetch_add(1, std::memory_order_relaxed);
}

ThreadPool::TelemetrySnapshot
ThreadPool::telemetrySnapshot() const
{
    TelemetrySnapshot snap;
    snap.workers = workerCount();
    snap.dispatches = dispatches_.load(std::memory_order_relaxed);
    snap.wallNs = wallNs_.load(std::memory_order_relaxed);
    snap.laneNs = laneNs_.load(std::memory_order_relaxed);
    size_t used = 0;
    for (size_t i = 0; i < maxLanes; ++i) {
        if (laneMetrics_[i].chunks.load(std::memory_order_relaxed) >
            0) {
            used = i + 1;
        }
    }
    snap.laneBusyNs.resize(used);
    snap.laneChunks.resize(used);
    for (size_t i = 0; i < used; ++i) {
        snap.laneBusyNs[i] =
            laneMetrics_[i].busyNs.load(std::memory_order_relaxed);
        snap.laneChunks[i] =
            laneMetrics_[i].chunks.load(std::memory_order_relaxed);
        snap.busyNs += snap.laneBusyNs[i];
        snap.chunks += snap.laneChunks[i];
    }
    return snap;
}

void
ThreadPool::resetTelemetry()
{
    for (LaneMetrics &metrics : laneMetrics_) {
        metrics.busyNs.store(0, std::memory_order_relaxed);
        metrics.chunks.store(0, std::memory_order_relaxed);
    }
    dispatches_.store(0, std::memory_order_relaxed);
    wallNs_.store(0, std::memory_order_relaxed);
    laneNs_.store(0, std::memory_order_relaxed);
}

void
ThreadPool::ensureWorkers(size_t count)
{
    count = std::min(count, maxLanes);
    std::lock_guard<std::mutex> guard(mutex_);
    while (workers_.size() < count)
        workers_.emplace_back([this] { workerMain(); });
}

void
ThreadPool::workerMain()
{
    tlsInsideWorker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    uint64_t seen = 0;
    for (;;) {
        wake_.wait(lock, [&] {
            return shutdown_ ||
                   (generation_ != seen && nextLane_ < jobLanes_);
        });
        if (shutdown_)
            return;
        seen = generation_;
        // Claim lanes until the job is drained. A worker may execute
        // several lanes when the host is oversubscribed; the
        // lane -> index-range mapping is fixed by (n, lanes) alone,
        // so results do not depend on who runs which lane.
        while (nextLane_ < jobLanes_) {
            const size_t lane = nextLane_++;
            const size_t begin = lane * jobChunk_;
            const size_t end = std::min(jobN_, begin + jobChunk_);
            const Task task = task_;
            void *const ctx = ctx_;
            lock.unlock();
            execChunk(task, ctx, lane, begin, end);
            lock.lock();
            if (--pending_ == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::run(size_t n, size_t lanes, Task task, void *ctx)
{
    // One dispatch at a time; concurrent callers queue here.
    std::lock_guard<std::mutex> dispatch(dispatchMutex_);
    struct DispatchFlag
    {
        DispatchFlag() { tlsInDispatch = true; }
        ~DispatchFlag() { tlsInDispatch = false; }
    } inDispatch;
    ensureWorkers(lanes - 1);
    const uint64_t dispatchStart = telemetry::nowNanos();
    const size_t chunk = (n + lanes - 1) / lanes;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        task_ = task;
        ctx_ = ctx;
        jobN_ = n;
        jobLanes_ = lanes;
        jobChunk_ = chunk;
        nextLane_ = 1; // the caller takes lane 0 itself
        pending_ = lanes;
        ++generation_;
    }
    wake_.notify_all();
    execChunk(task, ctx, 0, 0, std::min(n, chunk));
    std::unique_lock<std::mutex> lock(mutex_);
    --pending_;
    // Help drain lanes the workers have not picked up yet (slow
    // wakeups, oversubscribed hosts): the barrier never waits on a
    // sleeping thread while there is runnable work.
    while (nextLane_ < jobLanes_) {
        const size_t lane = nextLane_++;
        const size_t begin = lane * jobChunk_;
        const size_t end = std::min(jobN_, begin + jobChunk_);
        lock.unlock();
        execChunk(task, ctx, lane, begin, end);
        lock.lock();
        --pending_;
    }
    done_.wait(lock, [&] { return pending_ == 0; });
    lock.unlock();
    const uint64_t wall = telemetry::nowNanos() - dispatchStart;
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    wallNs_.fetch_add(wall, std::memory_order_relaxed);
    laneNs_.fetch_add(wall * lanes, std::memory_order_relaxed);
}

} // namespace flexon
