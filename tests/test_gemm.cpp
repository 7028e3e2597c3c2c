// Identity suite for the packed GEMM engine (src/tensor/gemm.hpp).
//
// The contract under test: (1) agreement with a naive reference on odd
// shapes that exercise every edge-tile path; (2) bit-identical results
// across repeated runs, row partitions, and thread counts (the 1-vs-4
// check re-executes this binary with KINET_NUM_THREADS pinned, since the
// pool size is latched at first use); (3) the fused epilogues
// (matmul_bias) and transposed variants are bit-identical to their
// composed counterparts; (4) gradients still check out through a fused
// Linear+activation stack.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>

#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/nn/grad_check.hpp"
#include "src/nn/nn.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/ops.hpp"
#include "tests/run_self.hpp"

namespace {

using kinet::Rng;
using kinet::tensor::Matrix;
using kinet::testing::run_self;
using kinet::testing::self_exe;
namespace ops = kinet::tensor;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return m;
}

/// Naive double-precision reference; the packed kernel may fuse multiply
/// and add (FMA), so comparisons allow rounding slack scaled by depth.
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

void expect_near(const Matrix& got, const Matrix& want, std::size_t depth) {
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    const float tol = 1e-5F * static_cast<float>(depth + 1);
    for (std::size_t r = 0; r < got.rows(); ++r) {
        for (std::size_t c = 0; c < got.cols(); ++c) {
            ASSERT_NEAR(got(r, c), want(r, c), tol) << "at (" << r << ", " << c << ")";
        }
    }
}

TEST(Gemm, ReportsADispatchedKernel) {
    const std::string name = ops::gemm_kernel_name();
    EXPECT_TRUE(name == "avx2-fma-6x16" || name == "generic-4x8") << name;
}

TEST(Gemm, OddShapesMatchNaiveReference) {
    Rng rng(101);
    // Shapes straddling every blocking edge: below one register tile, one
    // element past MR/NR/KC multiples, exact multiples, and long-k strips.
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {2, 3, 5},    {4, 8, 8},    {5, 9, 17},    {6, 16, 16},  {7, 17, 15},
        {12, 32, 8}, {13, 257, 31}, {24, 300, 48}, {65, 129, 33}, {96, 256, 16}, {97, 511, 130}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s[0], s[1], rng);
        const Matrix b = random_matrix(s[1], s[2], rng);
        expect_near(ops::matmul(a, b), naive_matmul(a, b), s[1]);
    }
}

TEST(Gemm, TransposedVariantsAreBitIdenticalToMaterializedTranspose) {
    // Same engine, same packing order, same per-element accumulation —
    // reading Aᵀ/Bᵀ through strides must not change a single bit relative
    // to materialising the transpose first.
    Rng rng(102);
    const std::size_t shapes[][3] = {{5, 7, 3}, {6, 16, 16}, {64, 31, 47}, {97, 257, 65}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s[0], s[1], rng);
        const Matrix b = random_matrix(s[1], s[2], rng);
        const Matrix at = ops::transpose(a);
        const Matrix bt = ops::transpose(b);
        EXPECT_EQ(ops::matmul_tn(at, b), ops::matmul(a, b));
        EXPECT_EQ(ops::matmul_nt(a, bt), ops::matmul(a, b));
    }
}

TEST(Gemm, FusedBiasIsBitIdenticalToBroadcastAdd) {
    Rng rng(103);
    for (const auto& s : {std::array<std::size_t, 3>{3, 5, 7},
                          std::array<std::size_t, 3>{128, 96, 128},
                          std::array<std::size_t, 3>{65, 257, 33}}) {
        const Matrix a = random_matrix(s[0], s[1], rng);
        const Matrix b = random_matrix(s[1], s[2], rng);
        const Matrix bias = random_matrix(1, s[2], rng);
        EXPECT_EQ(ops::matmul_bias(a, b, bias),
                  ops::add_row_broadcast(ops::matmul(a, b), bias));
    }
}

TEST(Gemm, RowPartitionDoesNotChangePerRowMath) {
    // A row computed inside a large product must be bit-identical to the
    // same row computed alone — the engine packs it into a different
    // strip slot, but its accumulation chain is unchanged.
    Rng rng(104);
    const Matrix a = random_matrix(131, 300, rng);
    const Matrix b = random_matrix(300, 70, rng);
    const Matrix big = ops::matmul(a, b);
    for (const std::size_t r : {std::size_t{0}, std::size_t{64}, std::size_t{130}}) {
        const std::size_t idx[] = {r};
        const Matrix lone = ops::matmul(a.gather_rows(idx), b);
        for (std::size_t j = 0; j < big.cols(); ++j) {
            ASSERT_EQ(big(r, j), lone(0, j)) << "row " << r << " col " << j;
        }
    }
}

TEST(Gemm, RepeatedRunsAreBitIdentical) {
    Rng rng(105);
    const Matrix a = random_matrix(130, 257, rng);
    const Matrix b = random_matrix(257, 70, rng);
    const Matrix bias = random_matrix(1, 70, rng);
    const Matrix first = ops::matmul_bias(a, b, bias);
    for (int run = 0; run < 5; ++run) {
        EXPECT_EQ(ops::matmul_bias(a, b, bias), first);
    }
}

TEST(Gemm, BlockedTransposeMatchesElementwise) {
    Rng rng(106);
    for (const auto& s : {std::pair<std::size_t, std::size_t>{1, 1},
                          std::pair<std::size_t, std::size_t>{63, 65},
                          std::pair<std::size_t, std::size_t>{64, 64},
                          std::pair<std::size_t, std::size_t>{130, 257}}) {
        const Matrix a = random_matrix(s.first, s.second, rng);
        const Matrix t = ops::transpose(a);
        ASSERT_EQ(t.rows(), a.cols());
        ASSERT_EQ(t.cols(), a.rows());
        for (std::size_t r = 0; r < a.rows(); ++r) {
            for (std::size_t c = 0; c < a.cols(); ++c) {
                ASSERT_EQ(t(c, r), a(r, c));
            }
        }
        EXPECT_EQ(ops::transpose(t), a);  // involution, bitwise
    }
}

TEST(Gemm, FusedColMeanVarIsBitIdenticalToUnfusedPair) {
    Rng rng(107);
    const Matrix a = random_matrix(113, 37, rng);
    Matrix mean;
    Matrix var;
    ops::col_mean_var(a, mean, var);
    EXPECT_EQ(mean, ops::col_mean(a));
    EXPECT_EQ(var, ops::col_var(a));
}

TEST(Gemm, ElementwiseOpsCheckShapeBeforeCopying) {
    const Matrix a(2, 3, 1.0F);
    const Matrix b(3, 2, 1.0F);
    EXPECT_THROW((void)ops::add(a, b), kinet::Error);
    EXPECT_THROW((void)ops::sub(a, b), kinet::Error);
    EXPECT_THROW((void)ops::mul(a, b), kinet::Error);
    Matrix c = a;
    EXPECT_THROW(ops::mul_inplace(c, b), kinet::Error);
    EXPECT_EQ(c, a);  // untouched on failure
}

TEST(Gemm, InplaceVariantsMatchAllocatingOnes) {
    Rng rng(108);
    const Matrix a = random_matrix(9, 11, rng);
    const Matrix b = random_matrix(9, 11, rng);
    Matrix x = a;
    ops::mul_inplace(x, b);
    EXPECT_EQ(x, ops::mul(a, b));
    Matrix y = a;
    ops::map_inplace(y, [](float v) { return v * 0.5F + 1.0F; });
    EXPECT_EQ(y, ops::map(a, [](float v) { return v * 0.5F + 1.0F; }));
    Matrix z = a;
    const Matrix row = random_matrix(1, 11, rng);
    ops::add_row_broadcast_inplace(z, row);
    EXPECT_EQ(z, ops::add_row_broadcast(a, row));
}

TEST(Gemm, GradCheckThroughFusedLinearActivationStack) {
    // The fused-bias Linear must still produce correct gradients as a
    // composed network.  Smooth activations only: ReLU/LeakyReLU kinks
    // make finite differences unreliable in composition (their backward
    // masks are covered by the single-layer checks in test_nn_layers);
    // this stack exercises the fused GEMM epilogue through three layers.
    Rng rng(109);
    kinet::nn::Sequential net;
    net.emplace<kinet::nn::Linear>(7, 12, rng, "gc.fc0");
    net.emplace<kinet::nn::Tanh>();
    net.emplace<kinet::nn::Linear>(12, 9, rng, "gc.fc1");
    net.emplace<kinet::nn::Sigmoid>();
    net.emplace<kinet::nn::Linear>(9, 5, rng, "gc.out");
    const Matrix x = random_matrix(11, 7, rng);
    // Larger step than the default: through saturating layers the default
    // 1e-3 probe sits within float32 rounding noise.
    const auto result = kinet::nn::check_gradients(net, x, rng, true, 5e-3F);
    EXPECT_LT(result.max_input_error, 5e-2);
    EXPECT_LT(result.max_param_error, 5e-2);
}

struct Shape {
    std::size_t m, k, n;
};

// Shapes large enough to split at 4 threads under the engine's grain, one
// per parallel drive; ThreadIdentityShapesSplitOnEveryDrive pins that.
constexpr Shape kRowStripShape{192, 256, 512};
constexpr Shape kJcShape{12, 1024, 512};
constexpr Shape kSmallNShape{640, 1024, 7};

/// Runs the fixed workload whose byte-level hash the thread-identity test
/// compares across KINET_NUM_THREADS settings: the unpacked (plain, tn, nt)
/// and pre-packed entry points over small shapes that run inline and the
/// three splitting shapes above.
std::uint64_t workload_hash() {
    Rng rng(4242);
    kinet::bytes::Writer w;
    const Shape shapes[] = {{97, 257, 65}, {6, 16, 16},      {130, 300, 70},
                            {13, 31, 7},   kRowStripShape, kJcShape, kSmallNShape};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s.m, s.k, rng);
        const Matrix b = random_matrix(s.k, s.n, rng);
        const Matrix bias = random_matrix(1, s.n, rng);
        const Matrix c = ops::matmul_bias(a, b, bias);
        const Matrix tn = ops::matmul_tn(ops::transpose(a), b);
        const Matrix nt = ops::matmul_nt(a, ops::transpose(b));
        const Matrix packed = ops::matmul_packed_bias(a, ops::pack_gemm_b(b), bias);
        for (const Matrix* m : {&c, &tn, &nt, &packed}) {
            w.f32_array(m->data());
        }
    }
    return kinet::bytes::fnv1a(w.buffer());
}

/// Runs each splitting shape through every entry point and lists, one per
/// line, those that never reached the pool ("ok" when all did).
std::string unsplit_drives() {
    Rng rng(4243);
    std::string missed;
    const std::pair<const char*, Shape> shapes[] = {
        {"row-strip", kRowStripShape}, {"jc", kJcShape}, {"small-n", kSmallNShape}};
    for (const auto& [drive, s] : shapes) {
        const Matrix a = random_matrix(s.m, s.k, rng);
        const Matrix b = random_matrix(s.k, s.n, rng);
        const Matrix at = ops::transpose(a);
        const Matrix bt = ops::transpose(b);
        const ops::PackedGemmB packed = ops::pack_gemm_b(b);
        const std::pair<const char*, std::function<Matrix()>> entries[] = {
            {"matmul", [&] { return ops::matmul(a, b); }},
            {"matmul_tn", [&] { return ops::matmul_tn(at, b); }},
            {"matmul_nt", [&] { return ops::matmul_nt(a, bt); }},
            {"matmul_packed", [&] { return ops::matmul_packed(a, packed); }}};
        for (const auto& [entry, run] : entries) {
            const std::size_t before = kinet::parallel_for_split_count();
            (void)run();
            if (kinet::parallel_for_split_count() == before) {
                missed += std::string(drive) + " " + entry + "\n";
            }
        }
    }
    return missed.empty() ? "ok\n" : missed;
}

TEST(Gemm, ThreadIdentityShapesSplitOnEveryDrive) {
    // The splitting shapes must reach the pool at 4 threads on both
    // kernels, or a larger kGemmMinFlopsPerChunk (or a new tile) would
    // quietly turn the 1-vs-4-thread check below into a serial one.
    if (self_exe().empty()) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    for (const std::string kernel : {"", "KINET_GEMM_KERNEL=generic "}) {
        EXPECT_EQ(run_self(kernel + "KINET_NUM_THREADS=4", "--gemm-unsplit-drives"), "ok\n")
            << "with '" << kernel << "'";
    }
}

TEST(Gemm, BitIdenticalAcrossThreadCounts) {
    if (self_exe().empty()) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    const std::string one = run_self("KINET_NUM_THREADS=1", "--gemm-workload-hash");
    const std::string four = run_self("KINET_NUM_THREADS=4", "--gemm-workload-hash");
    EXPECT_EQ(one.size(), 17U) << "no hash from the 1-thread child: " << one;
    EXPECT_EQ(one, four) << "results differ between 1 and 4 threads";
}

}  // namespace

// Custom main: `--gemm-workload-hash` and `--gemm-unsplit-drives` turn the
// binary into the child side of the thread-identity tests (print and exit).
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--gemm-workload-hash") {
            std::printf("%016llx\n", static_cast<unsigned long long>(workload_hash()));
            return 0;
        }
        if (std::string(argv[i]) == "--gemm-unsplit-drives") {
            std::fputs(unsplit_drives().c_str(), stdout);
            return 0;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
