/**
 * @file
 * Parallel per-function phases: a worker count and a loop that hands
 * independent items (usually function indices) to workers. Callers
 * write one result slot per item and join the slots in index order,
 * so output, and the error reported, do not depend on the worker
 * count.
 */

#ifndef WASABI_SUPPORT_PARALLEL_H
#define WASABI_SUPPORT_PARALLEL_H

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace wasabi::support {

/** The requested worker count that means one worker per CPU. */
inline constexpr unsigned kAllCpus = 0;

/**
 * Workers for a loop over @p items items: @p requested, where 0 means
 * one per CPU this process may run on (sched_getaffinity, else
 * hardware_concurrency), never more than @p items and at least 1.
 */
inline unsigned
workerCount(unsigned requested, size_t items)
{
    size_t n = requested;
    if (n == 0) {
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            n = static_cast<size_t>(CPU_COUNT(&set));
        if (n == 0)
            n = std::thread::hardware_concurrency();
    }
    if (n > items)
        n = items;
    return n == 0 ? 1 : static_cast<unsigned>(n);
}

/**
 * Run body(i, worker) for every i in [0, @p n) on @p threads workers.
 * The calling thread is worker 0; the others get 1 .. threads-1, so a
 * body may use per-worker state indexed by its worker. Workers pull
 * indices from a shared counter: a body must write only its item's
 * and its worker's state. With one worker (or at most one item) the
 * loop runs inline, in index order, and starts no thread.
 *
 * If bodies throw, every worker is joined and the exception of the
 * lowest throwing index is rethrown: the one a serial loop would have
 * stopped at. Items above that index may not run.
 */
template <class Body>
void
parallelFor(size_t n, unsigned threads, Body &&body)
{
    if (threads <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i, 0u);
        return;
    }
    std::atomic<size_t> next{0};
    std::atomic<size_t> first_failed{n};
    std::mutex error_mu;
    std::exception_ptr error; // thrown by item first_failed
    auto work = [&](unsigned worker) {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
            // Indices are handed out in order: once an item failed,
            // no later one can change the outcome.
            if (i > first_failed.load())
                return;
            try {
                body(i, worker);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (i < first_failed.load()) {
                    first_failed.store(i);
                    error = std::current_exception();
                }
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    try {
        for (unsigned w = 1; w < threads; ++w)
            pool.emplace_back(work, w);
    } catch (const std::system_error &) {
        // No more threads: the workers already started and this one
        // still cover every item.
    }
    work(0);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace wasabi::support

#endif // WASABI_SUPPORT_PARALLEL_H
