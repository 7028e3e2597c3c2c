// Shared-memory parallelism primitives: a lazily started thread pool and a
// deterministic `parallel_for` over index ranges.
//
// Determinism contract: `parallel_for(count, grain, fn)` always splits
// [0, count) into the same contiguous chunks for a given (count, grain,
// thread count), and each chunk writes only its own slice of the output.
// Kernels built on it therefore produce bit-identical results run-to-run,
// and — because per-index arithmetic never depends on the chunking — across
// thread counts as well.
//
// The pool size is `hardware_threads()`: std::thread::hardware_concurrency
// unless overridden by the KINET_NUM_THREADS environment variable (read
// once, at first use).  A pool of size <= 1 executes everything inline on
// the calling thread, so single-core machines pay no synchronisation cost.
// A parallel_for issued from inside a chunk body (a nested call) also runs
// inline, so an outer split — say, one generation batch per lane — keeps
// its inner GEMMs on the lane that owns the batch.
#ifndef KINETGAN_COMMON_PARALLEL_H
#define KINETGAN_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>
#include <memory>

namespace kinet {

/// Worker count for the global pool: KINET_NUM_THREADS if set (clamped to
/// [1, 256]), otherwise std::thread::hardware_concurrency(), at least 1.
[[nodiscard]] std::size_t hardware_threads();

/// Fixed-size pool of worker threads executing queued tasks.  The calling
/// thread of `parallel_for` participates in the work, so a pool is never
/// idle-blocked on its own submission.  Workers take queued chunks in FIFO
/// order; a caller runs only chunks of its own call, never another's.
class ThreadPool {
public:
    /// Starts `threads - 1` workers (the submitting thread is the last
    /// lane); `threads <= 1` starts none and runs everything inline.
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total parallel lanes (workers + the submitting thread).
    [[nodiscard]] std::size_t size() const noexcept;

    /// Splits [0, count) into at most `max_chunks` contiguous, equal-as-
    /// possible chunks (never more than size(), never fewer than 1) and
    /// runs fn(begin, end) on each; blocks until all chunks finish.  The
    /// caller runs the first chunk, then every chunk of this call that no
    /// worker has taken yet, so with no idle lane it runs them all
    /// serially; it never runs a chunk queued by another call.
    /// Exceptions thrown by `fn` are rethrown on the calling thread (the
    /// first one observed).  Called from inside any pool's chunk body it
    /// runs fn(0, count) inline on that thread: nested calls never queue
    /// work, so two chunks can never wait on each other's drain.
    void parallel_for(std::size_t count, std::size_t max_chunks,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    /// Enqueues an independent task for asynchronous execution and returns
    /// immediately; on a single-lane pool (no workers) the task runs inline
    /// before returning.  Submitted tasks run on a separate queue from
    /// parallel_for chunks (so they may take locks and call parallel_for
    /// themselves), but must not wait for *other submitted tasks* to
    /// complete — every worker could be occupied by such a waiter.
    /// Exceptions escaping the task terminate the process — catch inside.
    void submit(std::function<void()> task);

    /// Process-wide pool of hardware_threads() lanes, started on first use.
    static ThreadPool& global();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Runs fn(begin, end) over [0, count) on the global pool.  `grain` is the
/// minimum number of indices per chunk: ranges smaller than 2*grain, a
/// single-lane pool, or a call from inside a chunk body run inline as one
/// serial call fn(0, count) (by the determinism contract, the same bits).
void parallel_for(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// How many parallel_for calls in this process have run as more than one
/// chunk on the global pool.  Lets a test check that a workload really
/// splits at a given thread count instead of running inline.
[[nodiscard]] std::size_t parallel_for_split_count() noexcept;

}  // namespace kinet

#endif  // KINETGAN_COMMON_PARALLEL_H
