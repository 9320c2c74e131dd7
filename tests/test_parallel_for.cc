/**
 * @file
 * Tests of the parallel-compute backbone: determinism of
 * parallelReduce across thread counts, nested use from inside
 * ThreadComm rank bodies (no deadlock), empty/short ranges,
 * concurrent submissions from independent threads, strict
 * TDFE_NUM_THREADS parsing, and the spin-then-park wake protocol
 * (bounded in wall time, so a lost wakeup fails instead of hanging).
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;

/** Deterministic pseudo-random payload. */
std::vector<double>
payload(std::size_t n)
{
    std::vector<double> v(n);
    double x = 0.37;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 1.7 - static_cast<long>(x * 1.7) + 0.1;
        v[i] = x;
    }
    return v;
}

double
reduceSum(const std::vector<double> &v, std::size_t grain)
{
    return parallelReduce(
        v.size(), grain, 0.0,
        [&](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t i = b; i < e; ++i)
                acc += v[i];
            return acc;
        },
        [](double a, double b) { return a + b; });
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 10007; // prime: ragged last chunk
    std::vector<int> hits(n, 0);
    parallelFor(n, std::size_t{64}, [&](std::size_t i) {
        ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, EmptyAndShortRanges)
{
    int calls = 0;
    parallelFor(std::size_t{0}, std::size_t{8},
                [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    parallelForRange(std::size_t{0}, std::size_t{8},
                     [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    // A range smaller than one grain runs inline as a single chunk.
    std::vector<int> hits(3, 0);
    parallelFor(hits.size(), std::size_t{1024},
                [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);

    // Single-element reduction.
    const std::vector<double> one{42.0};
    EXPECT_DOUBLE_EQ(reduceSum(one, 16), 42.0);
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts)
{
    const std::vector<double> v = payload(65537);
    constexpr std::size_t grain = 512;

    const int original = globalThreadCount();
    setGlobalThreadCount(1);
    const double serial_sum = reduceSum(v, grain);
    const double serial_min = parallelReduce(
        v.size(), grain, 1e30,
        [&](std::size_t b, std::size_t e) {
            double m = 1e30;
            for (std::size_t i = b; i < e; ++i)
                m = std::min(m, v[i]);
            return m;
        },
        [](double a, double b) { return std::min(a, b); });

    for (const int threads : {2, 3, 4, 8}) {
        setGlobalThreadCount(threads);
        EXPECT_EQ(reduceSum(v, grain), serial_sum)
            << "sum drifted at " << threads << " threads";
        const double min_n = parallelReduce(
            v.size(), grain, 1e30,
            [&](std::size_t b, std::size_t e) {
                double m = 1e30;
                for (std::size_t i = b; i < e; ++i)
                    m = std::min(m, v[i]);
                return m;
            },
            [](double a, double b) { return std::min(a, b); });
        EXPECT_EQ(min_n, serial_min)
            << "min drifted at " << threads << " threads";
    }
    setGlobalThreadCount(original);
}

TEST(ParallelReduce, MatchesKnownClosedForm)
{
    // sum of 1..n with a grain that does not divide n.
    const std::size_t n = 12345;
    const double sum = parallelReduce(
        n, std::size_t{100}, 0.0,
        [](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t i = b; i < e; ++i)
                acc += static_cast<double>(i + 1);
            return acc;
        },
        [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(sum, 0.5 * 12345.0 * 12346.0);
}

TEST(ParallelFor, NestedInsideParallelForMakesProgress)
{
    const int original = globalThreadCount();
    setGlobalThreadCount(4);
    std::atomic<long> total{0};
    parallelFor(std::size_t{16}, std::size_t{1}, [&](std::size_t) {
        // Inner region submitted from a worker (or the caller):
        // the submitting thread participates, so this completes
        // even with every other thread busy.
        long local = 0;
        std::vector<long> partial(8, 0);
        parallelFor(std::size_t{8}, std::size_t{1},
                    [&](std::size_t j) {
                        partial[j] = static_cast<long>(j);
                    });
        for (const long p : partial)
            local += p;
        total += local;
    });
    EXPECT_EQ(total.load(), 16 * 28);
    setGlobalThreadCount(original);
}

TEST(ParallelFor, NestedInsideThreadCommRanksDoesNotDeadlock)
{
    const int original = globalThreadCount();
    setGlobalThreadCount(2); // fewer pool threads than ranks

    constexpr int nranks = 4;
    ThreadCommWorld world(nranks);
    std::vector<double> sums(nranks, 0.0);
    const std::vector<double> v = payload(4096);

    world.run([&](Communicator &comm) {
        // Every rank drives its own parallel region concurrently,
        // then synchronises — the pattern the solvers use when a
        // ThreadComm-decomposed run also fans out loops.
        const double s = reduceSum(v, 256);
        sums[static_cast<std::size_t>(comm.rank())] = s;
        comm.barrier();
        const double all = comm.allreduce(s, ReduceOp::Sum);
        EXPECT_NEAR(all, s * nranks, 1e-9);
    });

    for (int r = 1; r < nranks; ++r)
        EXPECT_EQ(sums[r], sums[0]);
    setGlobalThreadCount(original);
}

TEST(ThreadPool, ResizeAndEnvSizing)
{
    EXPECT_GE(configuredThreadCount(), 1);
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3);

    std::atomic<int> runs{0};
    const std::function<void(std::size_t)> fn =
        [&](std::size_t) { ++runs; };
    pool.runChunks(10, fn);
    EXPECT_EQ(runs.load(), 10);

    pool.resize(1);
    EXPECT_EQ(pool.threadCount(), 1);
    pool.runChunks(5, fn);
    EXPECT_EQ(runs.load(), 15);
}

TEST(ThreadPool, SubmitWaitFinished)
{
    // Null and empty handles count as finished; wait is a no-op.
    ThreadPool::JobHandle null_job;
    EXPECT_TRUE(ThreadPool::finished(null_job));

    ThreadPool pool(3);
    const ThreadPool::JobHandle empty =
        pool.submit(0, [](std::size_t) { FAIL(); });
    EXPECT_TRUE(ThreadPool::finished(empty));
    pool.wait(empty);

    // Deferred chunks complete exactly once each; wait() blocks
    // until the counter is spent, after which finished() is stable.
    std::atomic<int> runs{0};
    const ThreadPool::JobHandle job =
        pool.submit(64, [&](std::size_t) { ++runs; });
    pool.wait(job);
    EXPECT_TRUE(ThreadPool::finished(job));
    EXPECT_EQ(runs.load(), 64);

    // Zero workers: nothing runs until the waiter helps.
    ThreadPool solo(1);
    std::atomic<int> solo_runs{0};
    const ThreadPool::JobHandle deferred =
        solo.submit(8, [&](std::size_t) { ++solo_runs; });
    EXPECT_EQ(solo_runs.load(), 0);
    EXPECT_FALSE(ThreadPool::finished(deferred));
    solo.wait(deferred);
    EXPECT_TRUE(ThreadPool::finished(deferred));
    EXPECT_EQ(solo_runs.load(), 8);
}

TEST(ThreadPool, EnvThreadCountIsStrict)
{
    const char *saved = std::getenv("TDFE_NUM_THREADS");
    const std::string restore = saved ? saved : "";
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw > 0 ? static_cast<int>(hw) : 1;

    setLogQuiet(true);
    setenv("TDFE_NUM_THREADS", "3", 1);
    EXPECT_EQ(configuredThreadCount(), 3);
    // Anything but a whole positive number falls back to the
    // hardware count; "4abc" must not be read as 4.
    for (const char *bad : {"4abc", "4 ", "", "0", "-2", "abc", "2.5",
                            "99999999999999999999"}) {
        setenv("TDFE_NUM_THREADS", bad, 1);
        EXPECT_EQ(configuredThreadCount(), fallback)
            << "TDFE_NUM_THREADS='" << bad << "'";
    }
    setLogQuiet(false);

    if (saved)
        setenv("TDFE_NUM_THREADS", restore.c_str(), 1);
    else
        unsetenv("TDFE_NUM_THREADS");
}

// ---------------------------------------------------- wake protocol
//
// Idle workers spin for a few tens of microseconds, then park. The
// tests below drive jobs across both sides of that window. A job
// whose chunks only a worker can run (a polled submit, or the
// rendezvous below) never finishes if a wake-up is lost, so every
// wait is bounded: a lost wakeup fails the test instead of hanging.

/** Longest a single job may sit unclaimed before the test fails. */
constexpr auto wakeDeadline = std::chrono::seconds(10);
/** Longest a whole scenario may run before the binary aborts. */
constexpr auto wedgeDeadline = std::chrono::seconds(90);

/** @return whether @p job finished before the deadline, polling
 *  without helping (only a worker can complete it). */
bool
finishesUnaided(const ThreadPool::JobHandle &job)
{
    const auto until = std::chrono::steady_clock::now() + wakeDeadline;
    while (!ThreadPool::finished(job)) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** Run @p fn on a helper thread; if it wedges (a pool that cannot be
 *  joined or woken), abort the binary rather than hang the suite. */
void
withinDeadline(const char *what, const std::function<void()> &fn)
{
    std::packaged_task<void()> task(fn);
    std::future<void> done = task.get_future();
    std::thread runner(std::move(task));
    if (done.wait_for(wedgeDeadline) != std::future_status::ready) {
        std::fprintf(stderr, "%s: no progress within %lld s (lost "
                             "wakeup?)\n",
                     what,
                     static_cast<long long>(wedgeDeadline.count()));
        std::_Exit(1);
    }
    runner.join();
    done.get();
}

/** Poll until pool.parks_total reaches @p target (or the deadline). */
bool
awaitParks(std::uint64_t target)
{
    const auto until = std::chrono::steady_clock::now() + wakeDeadline;
    while (obs::snapshotMetrics().counter("pool.parks_total") < target) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
}

TEST(ThreadPoolWake, SubmittersOnBothSidesOfTheSpinWindow)
{
    // Several threads submit small jobs with gaps shorter than the
    // spin window (workers still spinning) and far longer (workers
    // parked); each job must be picked up by a worker on its own.
    ThreadPool pool(4);
    constexpr int submitters = 3;
    constexpr int jobs = 48;
    const std::chrono::microseconds gaps[] = {
        std::chrono::microseconds(0), std::chrono::microseconds(5),
        std::chrono::microseconds(200), std::chrono::microseconds(3000)};
    std::atomic<long> chunks{0};
    std::atomic<int> stranded{0};

    withinDeadline("concurrent submitters", [&] {
        std::vector<std::thread> threads;
        for (int t = 0; t < submitters; ++t) {
            threads.emplace_back([&, t] {
                for (int j = 0; j < jobs; ++j) {
                    std::this_thread::sleep_for(gaps[(j + t) % 4]);
                    const ThreadPool::JobHandle job = pool.submit(
                        4, [&](std::size_t) { ++chunks; });
                    if (!finishesUnaided(job))
                        ++stranded;
                    pool.wait(job);
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
    });
    EXPECT_EQ(stranded.load(), 0) << "jobs no worker picked up";
    EXPECT_EQ(chunks.load(), long{submitters} * jobs * 4);
}

TEST(ThreadPoolWake, RunChunksIntoParkedPoolThenDestroy)
{
    // A fresh pool's workers each park once after their first spin
    // window; wait for all three, so the pool is known to be fully
    // parked. Chunk 0 and chunk 1 then rendezvous: whichever runs
    // first waits for the other, which a parked worker must be woken
    // to run (the caller is busy in the first). Finally the pool is
    // destroyed while parked again.
    obs::setMetricsEnabled(true);
    for (int round = 0; round < 3; ++round) {
        const obs::MetricsSnapshot before = obs::snapshotMetrics();
        std::atomic<int> arrived{0};
        std::atomic<int> missed{0};
        withinDeadline("parked pool", [&] {
            ThreadPool pool(4);
            ASSERT_TRUE(awaitParks(before.counter("pool.parks_total") + 3))
                << "workers never parked";
            const std::function<void(std::size_t)> meet =
                [&](std::size_t) {
                    ++arrived;
                    const auto until =
                        std::chrono::steady_clock::now() + wakeDeadline;
                    while (arrived.load() < 2) {
                        if (std::chrono::steady_clock::now() > until) {
                            ++missed;
                            return;
                        }
                        std::this_thread::yield();
                    }
                };
            pool.runChunks(2, meet);
            const obs::MetricsSnapshot after = obs::snapshotMetrics();
            EXPECT_GE(after.counter("pool.wakes_total"),
                      before.counter("pool.wakes_total") + 1);
            // The worker that ran a chunk parks again (a fourth park
            // in all); then the destructor must wake and join.
            ASSERT_TRUE(awaitParks(before.counter("pool.parks_total") + 4));
        });
        EXPECT_EQ(arrived.load(), 2);
        EXPECT_EQ(missed.load(), 0) << "no worker woke for chunk 1";
    }
    obs::setMetricsEnabled(false);
}

TEST(ThreadPoolWake, ResizeAndDestroyWhileWorkersSpin)
{
    // Each resize/destruction lands right after a job, while the
    // workers are still inside their spin window: shutdown must be
    // seen by spinners as well as by parked workers.
    std::atomic<long> chunks{0};
    const std::function<void(std::size_t)> count =
        [&](std::size_t) { ++chunks; };
    withinDeadline("resize while spinning", [&] {
        ThreadPool pool(4);
        for (int i = 0; i < 40; ++i) {
            pool.runChunks(8, count);
            pool.resize(i % 2 ? 4 : 2);
        }
        pool.runChunks(8, count);
    });
    EXPECT_EQ(chunks.load(), 41 * 8);

    withinDeadline("destroy while spinning", [&] {
        for (int i = 0; i < 20; ++i) {
            ThreadPool pool(3);
            pool.runChunks(6, count);
        }
    });
    EXPECT_EQ(chunks.load(), 41 * 8 + 20 * 6);
}

} // namespace
