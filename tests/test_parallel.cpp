// Unit tests for the thread pool and the threaded matmul family: agreement
// with a naive serial reference on edge shapes, and determinism of the
// row-partitioned kernels with threading enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/matrix.hpp"
#include "src/tensor/ops.hpp"
#include "tests/run_self.hpp"

namespace {

using kinet::Rng;
using kinet::ThreadPool;
using kinet::tensor::Matrix;
namespace ops = kinet::tensor;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return m;
}

// Naive dot-product references; accumulation order differs from the blocked
// kernels, so comparisons allow float rounding slack scaled by depth.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < a.cols(); ++p) {
                acc += static_cast<double>(a(i, p)) * static_cast<double>(b(p, j));
            }
            c(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

Matrix naive_matmul_tn(const Matrix& a, const Matrix& b) {
    Matrix c(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.cols(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < a.rows(); ++p) {
                acc += static_cast<double>(a(p, i)) * static_cast<double>(b(p, j));
            }
            c(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

Matrix naive_matmul_nt(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < a.cols(); ++p) {
                acc += static_cast<double>(a(i, p)) * static_cast<double>(b(j, p));
            }
            c(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

void expect_near(const Matrix& got, const Matrix& want, std::size_t depth) {
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    const float tol = 1e-5F * static_cast<float>(depth + 1);
    for (std::size_t r = 0; r < got.rows(); ++r) {
        for (std::size_t c = 0; c < got.cols(); ++c) {
            EXPECT_NEAR(got(r, c), want(r, c), tol) << "at (" << r << ", " << c << ")";
        }
    }
}

TEST(ThreadPool, SizeCountsSubmittingThread) {
    EXPECT_EQ(ThreadPool(1).size(), 1U);
    EXPECT_EQ(ThreadPool(4).size(), 4U);
    EXPECT_GE(kinet::hardware_threads(), 1U);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), pool.size(), [&](std::size_t b, std::size_t e) {
        ASSERT_LE(b, e);
        for (std::size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1);
        }
    });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, EmptyRangeNeverInvokes) {
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallel_for(0, 4, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    kinet::parallel_for(0, 1, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ChunkPartitionIsDeterministic) {
    ThreadPool pool(3);
    const auto collect = [&] {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        std::mutex mu;
        pool.parallel_for(101, 3, [&](std::size_t b, std::size_t e) {
            const std::lock_guard<std::mutex> lock(mu);
            chunks.emplace_back(b, e);
        });
        std::sort(chunks.begin(), chunks.end());
        return chunks;
    };
    const auto first = collect();
    EXPECT_EQ(first.size(), 3U);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(collect(), first);
    }
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100, 4,
                                   [](std::size_t b, std::size_t) {
                                       if (b == 0) {
                                           throw kinet::Error("boom");
                                       }
                                   }),
                 kinet::Error);
    // The pool survives the failed batch.
    std::atomic<int> calls{0};
    pool.parallel_for(8, 4, [&](std::size_t b, std::size_t e) {
        calls.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, SubmitRunsTasksAsynchronously) {
    ThreadPool pool(4);
    constexpr int kTasks = 32;
    std::atomic<int> done{0};
    std::mutex mu;
    std::condition_variable cv;
    for (int t = 0; t < kTasks; ++t) {
        pool.submit([&] {
            if (done.fetch_add(1) + 1 == kTasks) {
                const std::lock_guard<std::mutex> lock(mu);
                cv.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.load() == kTasks; });
    EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, SubmitRunsInlineOnSingleLanePool) {
    ThreadPool pool(1);
    bool ran = false;
    pool.submit([&] { ran = true; });
    EXPECT_TRUE(ran);  // no workers: executed before submit returned
}

TEST(ThreadPool, SubmittedTasksMayHoldLocksAroundParallelFor) {
    // Regression test for the service deadlock: a submitted task that takes
    // a mutex and then runs parallel_for used to execute *other submitted
    // tasks* in its helper-drain loop — including one that blocks on the
    // very mutex the drainer holds.  With the chunk/task queues separated,
    // this pattern must complete for any pool size.
    ThreadPool pool(4);
    constexpr int kTasks = 12;
    std::mutex shared;
    std::atomic<int> done{0};
    std::mutex wait_mu;
    std::condition_variable cv;
    for (int t = 0; t < kTasks; ++t) {
        pool.submit([&] {
            const std::lock_guard<std::mutex> model_lock(shared);
            std::atomic<std::size_t> covered{0};
            pool.parallel_for(256, pool.size(), [&](std::size_t b, std::size_t e) {
                covered.fetch_add(e - b);
            });
            ASSERT_EQ(covered.load(), 256U);
            if (done.fetch_add(1) + 1 == kTasks) {
                const std::lock_guard<std::mutex> lock(wait_mu);
                cv.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(wait_mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return done.load() == kTasks; }))
        << "pool wedged: " << done.load() << "/" << kTasks << " tasks finished";
}

TEST(ThreadPool, CallerDrainsOnlyItsOwnChunks) {
    // Two concurrent calls on a pool whose one worker is held busy: each
    // caller must run its own queued chunk itself and never the other's,
    // even when the other's chunk sits at the head of the queue.
    ThreadPool pool(2);
    std::latch worker_busy(1);
    std::latch release_worker(1);
    pool.submit([&] {
        worker_busy.count_down();
        release_worker.wait();
    });
    worker_busy.wait();

    std::latch a_started(1);
    std::latch b_returned(1);
    std::vector<std::thread::id> a_ran(2);
    std::vector<std::thread::id> b_ran(2);
    std::thread::id a_id;
    std::thread::id b_id;
    // A queues its chunk 1 first, then holds its chunk 0 until B has
    // returned, so B drains while A's chunk 1 heads the queue.
    std::thread a([&] {
        a_id = std::this_thread::get_id();
        pool.parallel_for(2, 2, [&](std::size_t begin, std::size_t) {
            a_ran[begin] = std::this_thread::get_id();
            if (begin == 0) {
                a_started.count_down();
                b_returned.wait();
            }
        });
    });
    a_started.wait();
    std::thread b([&] {
        b_id = std::this_thread::get_id();
        pool.parallel_for(2, 2, [&](std::size_t begin, std::size_t) {
            b_ran[begin] = std::this_thread::get_id();
        });
        b_returned.count_down();
    });
    b.join();
    a.join();
    release_worker.count_down();
    EXPECT_EQ(a_ran, std::vector<std::thread::id>(2, a_id));
    EXPECT_EQ(b_ran, std::vector<std::thread::id>(2, b_id));
}

/// Child side of NestedParallelForRunsInline: an outer global parallel_for
/// whose every index issues an inner one.  Prints "ok" when the result is
/// the serial one and only the outer call split, else what went wrong.
std::string nested_parallel_for() {
    constexpr std::size_t kOuter = 8;
    constexpr std::size_t kInner = 4096;
    const auto value = [](std::size_t i, std::size_t j) {
        return static_cast<std::uint64_t>(i) * 1000003U + static_cast<std::uint64_t>(j) * j;
    };
    std::vector<std::uint64_t> want(kOuter * kInner);
    for (std::size_t i = 0; i < kOuter; ++i) {
        for (std::size_t j = 0; j < kInner; ++j) {
            want[i * kInner + j] = value(i, j);
        }
    }
    std::vector<std::uint64_t> got(want.size(), 0);
    const std::size_t before = kinet::parallel_for_split_count();
    kinet::parallel_for(kOuter, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
            kinet::parallel_for(kInner, 64, [&, i](std::size_t jb, std::size_t je) {
                for (std::size_t j = jb; j < je; ++j) {
                    got[i * kInner + j] = value(i, j);
                }
            });
        }
    });
    const std::size_t splits = kinet::parallel_for_split_count() - before;
    std::string out;
    if (got != want) {
        out += "result differs from the serial reference\n";
    }
    if (splits != 1) {
        out += "split count rose by " + std::to_string(splits) + "\n";
    }
    return out.empty() ? "ok\n" : out;
}

TEST(ThreadPool, NestedParallelForRunsInline) {
    // A parallel_for inside a chunk body (a wave item's GEMM, say) must run
    // inline instead of queueing behind the chunk that issued it.
    if (kinet::testing::self_exe().empty()) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    EXPECT_EQ(kinet::testing::run_self("KINET_NUM_THREADS=4", "--nested-parallel-for"), "ok\n");
}

TEST(ParallelMatmul, MatchesNaiveReferenceOnEdgeShapes) {
    Rng rng(7);
    // {m, k, n} covering: empty output, empty inner dim, single row/col,
    // k not a multiple of any block size, and a shape big enough to cross
    // the parallel dispatch threshold.
    const std::size_t shapes[][3] = {{0, 0, 0}, {0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1},
                                     {1, 7, 129}, {129, 7, 1}, {5, 13, 11}, {64, 31, 47},
                                     {97, 257, 65}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s[0], s[1], rng);
        const Matrix b = random_matrix(s[1], s[2], rng);
        expect_near(ops::matmul(a, b), naive_matmul(a, b), s[1]);

        const Matrix at = random_matrix(s[1], s[0], rng);  // a stored transposed
        expect_near(ops::matmul_tn(at, b), naive_matmul_tn(at, b), s[1]);

        const Matrix bt = random_matrix(s[2], s[1], rng);  // b stored transposed
        expect_near(ops::matmul_nt(a, bt), naive_matmul_nt(a, bt), s[1]);
    }
}

TEST(ParallelMatmul, ZeroEntriesNoLongerShortCircuit) {
    // The seed kernel skipped zero multipliers, making FLOP cost (and thus
    // timing) data-dependent; the blocked kernel must not.  Numerically a
    // zero row still contributes exactly zero.
    Matrix a(3, 4, 0.0F);
    a(1, 2) = 2.5F;
    Rng rng(11);
    const Matrix b = random_matrix(4, 5, rng);
    const Matrix c = ops::matmul(a, b);
    for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(c(0, j), 0.0F);
        EXPECT_FLOAT_EQ(c(1, j), 2.5F * b(2, j));
        EXPECT_EQ(c(2, j), 0.0F);
    }
}

TEST(ParallelMatmul, BitIdenticalAcrossRepeatedRuns) {
    Rng rng(42);
    const Matrix a = random_matrix(130, 257, rng);
    const Matrix b = random_matrix(257, 70, rng);
    const Matrix at = ops::transpose(a);
    const Matrix bt = ops::transpose(b);
    const Matrix first = ops::matmul(a, b);
    const Matrix first_tn = ops::matmul_tn(at, b);
    const Matrix first_nt = ops::matmul_nt(a, bt);
    for (int run = 0; run < 5; ++run) {
        EXPECT_EQ(ops::matmul(a, b), first);
        EXPECT_EQ(ops::matmul_tn(at, b), first_tn);
        EXPECT_EQ(ops::matmul_nt(a, bt), first_nt);
    }
}

TEST(ParallelMatmul, RowPartitionDoesNotChangePerRowMath) {
    // Each output row's accumulation order is independent of the chunking,
    // so a row computed inside a large (parallel-dispatched) product must
    // be bit-identical to the same row computed alone (serial path).
    Rng rng(3);
    const Matrix a = random_matrix(96, 131, rng);
    const Matrix b = random_matrix(131, 64, rng);
    const Matrix big = ops::matmul(a, b);
    for (const std::size_t r : {std::size_t{0}, std::size_t{41}, std::size_t{95}}) {
        const std::size_t idx[] = {r};
        const Matrix lone = ops::matmul(a.gather_rows(idx), b);
        for (std::size_t j = 0; j < big.cols(); ++j) {
            EXPECT_EQ(big(r, j), lone(0, j)) << "row " << r << " col " << j;
        }
    }
}

TEST(ParallelMatmul, TransposedVariantsAgreeWithExplicitTranspose) {
    Rng rng(19);
    const Matrix a = random_matrix(33, 17, rng);
    const Matrix b = random_matrix(33, 21, rng);
    expect_near(ops::matmul_tn(a, b), naive_matmul(ops::transpose(a), b), a.rows());
    const Matrix d = random_matrix(21, 17, rng);
    const Matrix e = random_matrix(33, 17, rng);
    expect_near(ops::matmul_nt(e, d), naive_matmul(e, ops::transpose(d)), d.cols());
}

}  // namespace

// Custom main: `--nested-parallel-for` turns the binary into the child side
// of NestedParallelForRunsInline (print and exit).
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--nested-parallel-for") {
            std::fputs(nested_parallel_for().c_str(), stdout);
            return 0;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
