#include "base/thread_pool.hh"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "base/logging.hh"
#include "obs/metrics.hh"

namespace tdfe
{

namespace
{

/**
 * How long an idle worker spins before it parks. Long enough to
 * cover the gaps between a solver cycle's parallel regions and the
 * per-iteration async handoffs; short enough that idle workers do
 * not starve co-running processes (such as the timing-gated bench
 * smokes under `ctest -j4`).
 */
constexpr std::chrono::microseconds spinWindow{40};

/** One spin-wait step: a pause hint where the ISA has one. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/**
 * Spin until @p ready() holds or the spin window expires. Pauses in
 * the first half of the window (cheapest wake-up) and yields in the
 * second, so an oversubscribed host loses little.
 *
 * @return whether @p ready() held.
 */
template <typename Ready>
bool
spinUntil(Ready &&ready)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    bool yielding = false;
    for (unsigned i = 1;; ++i) {
        if (ready())
            return true;
        if (yielding)
            std::this_thread::yield();
        else
            cpuRelax();
        if (i % 8 == 0) {
            const Clock::duration idle = Clock::now() - start;
            if (idle >= spinWindow)
                return false;
            yielding = idle >= spinWindow / 2;
        }
    }
}

} // namespace

int
configuredThreadCount()
{
    if (const char *env = std::getenv("TDFE_NUM_THREADS")) {
        char *end = nullptr;
        errno = 0;
        const long n = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && errno == 0 && n >= 1 &&
            n <= INT_MAX)
            return static_cast<int>(n);
        TDFE_WARN("ignoring invalid TDFE_NUM_THREADS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    nThreads = threads > 0 ? threads : configuredThreadCount();
    spawnWorkers();
}

ThreadPool::~ThreadPool()
{
    joinWorkers();
}

void
ThreadPool::spawnWorkers()
{
    shutdown.store(false, std::memory_order_relaxed);
    workers.reserve(static_cast<std::size_t>(nThreads - 1));
    for (int w = 1; w < nThreads; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::joinWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        shutdown.store(true, std::memory_order_relaxed);
    }
    cv.notify_all();
    for (std::thread &w : workers)
        w.join();
    workers.clear();
}

void
ThreadPool::resize(int threads)
{
    const int n = threads > 0 ? threads : configuredThreadCount();
    if (n == nThreads)
        return;
    joinWorkers();
    nThreads = n;
    spawnWorkers();
}

void
ThreadPool::helpWith(Job &job)
{
    for (;;) {
        const std::size_t c =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= job.nchunks)
            return;
        (*job.fn)(c);
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.nchunks) {
            // Last chunk: wake the submitter (it may already be
            // waiting on the job's condition variable).
            std::lock_guard<std::mutex> lock(job.m);
            job.cv.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    static obs::Counter parks("pool.parks_total");
    const auto work_or_shutdown = [this] {
        return queued.load(std::memory_order_acquire) > 0 ||
               shutdown.load(std::memory_order_relaxed);
    };
    for (;;) {
        const bool saw_work = spinUntil(work_or_shutdown);
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mtx);
            if (pending.empty() &&
                !shutdown.load(std::memory_order_relaxed)) {
                // Lost race: another helper drained the queue
                // between our spin and the lock. Work is flowing,
                // so spin again rather than park.
                if (saw_work)
                    continue;
                ++sleepers;
                parks.add();
                const std::uint64_t parked_at = wakeups;
                cv.wait(lock);
                // A notifier already took us off the sleeper count;
                // a spurious wake-up must do it itself.
                if (wakeups == parked_at)
                    --sleepers;
                // Woken for a job that is already gone (the caller
                // or a spinner ran it first): the same lost race, so
                // back to spinning. A predicate wait would silently
                // re-park here, and every later submit would pay a
                // wake for this worker again.
                if (pending.empty() &&
                    !shutdown.load(std::memory_order_relaxed))
                    continue;
            }
            if (shutdown.load(std::memory_order_relaxed))
                return;
            job = pending.front();
        }
        helpWith(*job);
        // The job's cursor is spent; drop it from the queue.
        unlink(job);
    }
}

void
ThreadPool::unlink(const std::shared_ptr<Job> &job)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (auto it = pending.begin(); it != pending.end(); ++it) {
        if (it->get() == job.get()) {
            pending.erase(it);
            queued.fetch_sub(1, std::memory_order_relaxed);
            return;
        }
    }
}

void
ThreadPool::enqueue(const std::shared_ptr<Job> &job)
{
    static obs::Counter wakes("pool.wakes_total");
    bool wake;
    {
        std::lock_guard<std::mutex> lock(mtx);
        pending.push_back(job);
        // Claim every parked worker for this notify, so that further
        // submits before they run do not pay for waking them again.
        wake = sleepers > 0;
        if (wake) {
            sleepers = 0;
            ++wakeups;
        }
    }
    // Published after the unlock: a spinner that sees the count
    // takes the mutex uncontended.
    queued.fetch_add(1, std::memory_order_release);
    if (wake) {
        wakes.add();
        cv.notify_all();
    }
}

void
ThreadPool::awaitJob(const std::shared_ptr<Job> &job)
{
    // Participate: the waiter claims chunks like any worker, so the
    // job completes even if every worker is busy elsewhere
    // (including the nested case where *this thread* is a worker).
    helpWith(*job);
    unlink(job);

    if (job->done.load(std::memory_order_acquire) != job->nchunks) {
        std::unique_lock<std::mutex> lock(job->m);
        job->cv.wait(lock, [&job] {
            return job->done.load(std::memory_order_acquire) ==
                   job->nchunks;
        });
    }
}

void
ThreadPool::runChunks(std::size_t nchunks,
                      const std::function<void(std::size_t)> &fn)
{
    if (nchunks == 0)
        return;
    if (nchunks == 1 || workers.empty()) {
        for (std::size_t c = 0; c < nchunks; ++c)
            fn(c);
        return;
    }

    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->nchunks = nchunks;
    enqueue(job);
    awaitJob(job);
}

ThreadPool::JobHandle
ThreadPool::submit(std::size_t nchunks,
                   std::function<void(std::size_t)> fn)
{
    auto job = std::make_shared<Job>();
    job->owned = std::move(fn);
    job->fn = &job->owned;
    job->nchunks = nchunks;
    if (nchunks == 0) {
        // Nothing to run: return an already-completed token so
        // finished()/wait() stay uniform for the caller.
        return job;
    }
    enqueue(job);
    return job;
}

bool
ThreadPool::finished(const JobHandle &job)
{
    return !job ||
           job->done.load(std::memory_order_acquire) == job->nchunks;
}

void
ThreadPool::wait(const JobHandle &job)
{
    if (!job || job->nchunks == 0)
        return;
    awaitJob(job);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

void
setGlobalThreadCount(int threads)
{
    ThreadPool::global().resize(threads);
}

int
globalThreadCount()
{
    return ThreadPool::global().threadCount();
}

} // namespace tdfe
