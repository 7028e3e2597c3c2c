#include "src/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/thread_annotations.hpp"

namespace kinet {

std::size_t hardware_threads() {
    static const std::size_t cached = [] {
        if (const char* env = std::getenv("KINET_NUM_THREADS")) {
            const long parsed = std::strtol(env, nullptr, 10);
            if (parsed > 0) {
                return static_cast<std::size_t>(std::min(parsed, 256L));
            }
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return static_cast<std::size_t>(hw > 0 ? hw : 1);
    }();
    return cached;
}

namespace {
/// Global-pool parallel_for calls that ran as more than one chunk.
std::atomic<std::size_t> g_split_calls{0};

/// True while this thread runs a parallel_for chunk body (on a worker or on
/// the submitting thread); a parallel_for issued there runs inline.
thread_local bool t_in_chunk = false;

/// Marks the current thread as inside a chunk body for its lifetime.
class ChunkScope {
public:
    ChunkScope() : outer_(t_in_chunk) { t_in_chunk = true; }
    ~ChunkScope() { t_in_chunk = outer_; }
    ChunkScope(const ChunkScope&) = delete;
    ChunkScope& operator=(const ChunkScope&) = delete;

private:
    bool outer_;
};
}  // namespace

struct ThreadPool::Impl {
    /// A queued parallel_for chunk, tagged with the call that queued it.
    struct Chunk {
        const void* call;
        std::function<void()> run;
    };

    std::vector<std::thread> workers;
    // Two queues, one invariant: `chunks` holds parallel_for chunk bodies,
    // which are pure compute and never block; `tasks` holds submit()ted
    // tasks, which MAY block on locks.  parallel_for's caller-drain loop
    // (below) only ever pops `chunks` — if it executed a blocking task while
    // the caller holds a lock, a second task waiting on that same lock would
    // deadlock the lane.  Workers serve both, chunks first, each in FIFO
    // order.
    Mutex mu;
    CondVar cv;
    std::deque<Chunk> chunks KINET_GUARDED_BY(mu);
    std::deque<std::function<void()>> tasks KINET_GUARDED_BY(mu);
    bool stop KINET_GUARDED_BY(mu) = false;

    void worker_loop() {
        for (;;) {
            std::function<void()> task;
            {
                UniqueLock lock(mu);
                while (!stop && chunks.empty() && tasks.empty()) {
                    cv.wait(lock);
                }
                if (stop && chunks.empty() && tasks.empty()) {
                    return;
                }
                if (!chunks.empty()) {
                    task = std::move(chunks.front().run);
                    chunks.pop_front();
                } else {
                    task = std::move(tasks.front());
                    tasks.pop_front();
                }
            }
            task();
        }
    }

    /// Removes and returns the oldest queued chunk of `call`, or an empty
    /// function when workers have taken them all.
    std::function<void()> take_own_chunk(const void* call) {
        const MutexLock lock(mu);
        const auto it = std::find_if(chunks.begin(), chunks.end(),
                                     [call](const Chunk& c) { return c.call == call; });
        if (it == chunks.end()) {
            return {};
        }
        std::function<void()> run = std::move(it->run);
        chunks.erase(it);
        return run;
    }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
    const std::size_t workers = threads > 1 ? threads - 1 : 0;
    impl_->workers.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        impl_->workers.emplace_back([this] { impl_->worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const MutexLock lock(impl_->mu);
        impl_->stop = true;
    }
    impl_->cv.notify_all();
    for (auto& w : impl_->workers) {
        w.join();
    }
}

std::size_t ThreadPool::size() const noexcept { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(std::size_t count, std::size_t max_chunks,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
    KINET_CHECK(static_cast<bool>(fn), "parallel_for: empty function");
    if (count == 0) {
        return;
    }
    const std::size_t chunks = std::clamp<std::size_t>(max_chunks, 1, std::min(size(), count));
    if (chunks == 1 || t_in_chunk) {
        fn(0, count);
        return;
    }

    // Per-call completion state lives on the stack; workers only touch it
    // through the shared_ptr captured in each task.
    struct Batch {
        std::atomic<std::size_t> remaining;
        Mutex mu;
        CondVar done;
        std::exception_ptr error KINET_GUARDED_BY(mu);
    };
    auto batch = std::make_shared<Batch>();
    batch->remaining.store(chunks, std::memory_order_relaxed);

    auto run_chunk = [batch, &fn](std::size_t begin, std::size_t end) {
        try {
            const ChunkScope scope;
            fn(begin, end);
        } catch (...) {
            const MutexLock lock(batch->mu);
            if (!batch->error) {
                batch->error = std::current_exception();
            }
        }
        if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            const MutexLock lock(batch->mu);
            batch->done.notify_all();
        }
    };

    // Deterministic partition: chunk c covers [c*count/chunks, (c+1)*count/chunks).
    auto chunk_begin = [count, chunks](std::size_t c) { return c * count / chunks; };
    {
        const MutexLock lock(impl_->mu);
        for (std::size_t c = 1; c < chunks; ++c) {
            impl_->chunks.push_back(
                {batch.get(),
                 [run_chunk, b = chunk_begin(c), e = chunk_begin(c + 1)] { run_chunk(b, e); }});
        }
    }
    impl_->cv.notify_all();

    // The submitting thread takes chunk 0, then runs those of its own chunks
    // that no worker has taken yet.  Only its own: another call's chunk
    // (say, a whole generation batch of another request) would delay this
    // caller's return by that chunk's cost.  Workers still take any queued
    // chunk in FIFO order, and a chunk body never waits (nested calls run
    // inline), so the wait below cannot form a cycle.
    run_chunk(chunk_begin(0), chunk_begin(1));
    while (const std::function<void()> task = impl_->take_own_chunk(batch.get())) {
        task();
    }

    UniqueLock lock(batch->mu);
    while (batch->remaining.load(std::memory_order_acquire) != 0) {
        batch->done.wait(lock);
    }
    if (batch->error) {
        std::rethrow_exception(batch->error);
    }
}

void ThreadPool::submit(std::function<void()> task) {
    KINET_CHECK(static_cast<bool>(task), "submit: empty task");
    if (impl_->workers.empty()) {
        task();
        return;
    }
    {
        const MutexLock lock(impl_->mu);
        impl_->tasks.push_back(std::move(task));
    }
    impl_->cv.notify_one();
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(hardware_threads());
    return pool;
}

void parallel_for(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
    const std::size_t g = std::max<std::size_t>(grain, 1);
    if (count < 2 * g || hardware_threads() <= 1 || t_in_chunk) {
        if (count > 0) {
            fn(0, count);
        }
        return;
    }
    g_split_calls.fetch_add(1, std::memory_order_relaxed);
    ThreadPool::global().parallel_for(count, count / g, fn);
}

std::size_t parallel_for_split_count() noexcept {
    return g_split_calls.load(std::memory_order_relaxed);
}

}  // namespace kinet
