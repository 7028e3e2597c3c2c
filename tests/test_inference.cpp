// Inference fast-path identity suite.
//
// The contract under test: (1) forward_inference is bitwise-equal to the
// train-shaped forward under eval semantics through every serving-path
// layer; (2) the pre-packed GEMM entry points are bitwise-equal to their
// packing counterparts, including odd/strided shapes and the n < NR no-pad
// path; (3) streaming/batched seeded sampling re-frames the row stream
// without changing a bit, for any chunk size; (4) one const model serves
// many concurrent seeded samplers, each matching its serial per-seed
// reference (the TSan target for the serving path); (5) a request's first
// m rows do not depend on how many rows it asked for; (6) a streamed chunk
// whose batches are generated in parallel on pool lanes serves the same
// bytes as the framed sample, at 1 and 4 threads (child processes, since
// the pool size is latched at first use).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/core/kinetgan.hpp"
#include "src/kg/network_kg.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/nn/nn.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/ops.hpp"
#include "tests/run_self.hpp"

namespace {

using kinet::Rng;
using kinet::tensor::Matrix;
using kinet::tensor::PackedGemmB;
namespace ops = kinet::tensor;
namespace nn = kinet::nn;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return m;
}

// ------------------------------------------------------- packed GEMM

TEST(PackedGemm, BitwiseIdenticalToUnpackedAcrossShapes) {
    Rng rng(301);
    // Shapes straddling MR/NR/KC edges plus n < NR (both kernels' widths).
    const std::size_t shapes[][3] = {{1, 1, 1},    {2, 5, 3},     {4, 8, 8},    {7, 17, 15},
                                     {6, 16, 16},  {13, 257, 31}, {65, 129, 33}, {97, 511, 130},
                                     {128, 96, 1}, {96, 300, 4},  {33, 40, 7},  {256, 64, 12}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s[0], s[1], rng);
        const Matrix b = random_matrix(s[1], s[2], rng);
        const PackedGemmB packed = ops::pack_gemm_b(b);
        EXPECT_EQ(packed.k(), b.rows());
        EXPECT_EQ(packed.n(), b.cols());
        EXPECT_EQ(ops::matmul_packed(a, packed), ops::matmul(a, b))
            << s[0] << "x" << s[1] << "x" << s[2];
        const Matrix bias = random_matrix(1, s[2], rng);
        EXPECT_EQ(ops::matmul_packed_bias(a, packed, bias), ops::matmul_bias(a, b, bias))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(PackedGemm, StridedOperandPacksIdentically) {
    // Packing Bᵀ through a strided view must equal packing the
    // materialised transpose — the engine reads operands through (rs, cs).
    Rng rng(302);
    const Matrix b = random_matrix(37, 113, rng);
    const Matrix bt = ops::transpose(b);  // 113 x 37
    const PackedGemmB from_view =
        PackedGemmB::pack(b.cols(), b.rows(), {b.data().data(), 1, b.cols()});
    const PackedGemmB from_copy = ops::pack_gemm_b(bt);
    ASSERT_EQ(from_view.size(), from_copy.size());
    for (std::size_t i = 0; i < from_view.size(); ++i) {
        ASSERT_EQ(from_view.data()[i], from_copy.data()[i]) << "at " << i;
    }
    const Matrix a = random_matrix(21, b.cols(), rng);
    EXPECT_EQ(ops::matmul_packed(a, from_view), ops::matmul(a, bt));
}

TEST(PackedGemm, ReuseAcrossCallsIsStable) {
    Rng rng(303);
    const Matrix b = random_matrix(96, 160, rng);
    const PackedGemmB packed = ops::pack_gemm_b(b);
    const Matrix a0 = random_matrix(64, 96, rng);
    const Matrix first = ops::matmul_packed(a0, packed);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(ops::matmul_packed(a0, packed), first);
        const Matrix ai = random_matrix(8, 96, rng);
        EXPECT_EQ(ops::matmul_packed(ai, packed), ops::matmul(ai, b));
    }
}

TEST(PackedGemm, DegenerateShapes) {
    Rng rng(304);
    // k == 0: zeros (or broadcast bias).
    const Matrix a(3, 0);
    const Matrix b(0, 5);
    const PackedGemmB packed = ops::pack_gemm_b(b);
    EXPECT_EQ(ops::matmul_packed(a, packed), ops::matmul(a, b));
    const Matrix bias = random_matrix(1, 5, rng);
    EXPECT_EQ(ops::matmul_packed_bias(a, packed, bias), ops::matmul_bias(a, b, bias));
    // Mismatched inner dimension throws before any work.
    const Matrix wrong = random_matrix(3, 4, rng);
    EXPECT_THROW((void)ops::matmul_packed(wrong, packed), kinet::Error);
}

TEST(SmallNGemm, NoPadPathMatchesPaddedEngineBitwise) {
    // A small-n product must equal the corresponding columns of the same
    // product against B padded with zero columns past every kernel's NR —
    // exactly the arithmetic the old zero-padding path performed.
    Rng rng(305);
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
        const Matrix a = random_matrix(130, 96, rng);
        const Matrix b_small = random_matrix(96, n, rng);
        Matrix b_wide(96, n + 16);  // >= NR for both kernels
        for (std::size_t r = 0; r < b_small.rows(); ++r) {
            for (std::size_t c = 0; c < n; ++c) {
                b_wide(r, c) = b_small(r, c);
            }
        }
        const Matrix got = ops::matmul(a, b_small);
        const Matrix wide = ops::matmul(a, b_wide);
        for (std::size_t r = 0; r < got.rows(); ++r) {
            for (std::size_t c = 0; c < n; ++c) {
                ASSERT_EQ(got(r, c), wide(r, c)) << "n=" << n << " at (" << r << "," << c << ")";
            }
        }
    }
}

TEST(JcParallelGemm, ColumnPartitionDoesNotChangePerRowMath) {
    // m tiny + n wide selects the jc-parallel drive; every row must still
    // be bitwise-identical to the same row inside a tall product that
    // takes the row-partition path.  The first shape spans two kGemmNC
    // column panels on the row-path side (its jc > 0 loop); the second has
    // k deep enough that the jc drive itself splits at 4 threads.
    struct Shape {
        std::size_t m, k, n, tall_m;
    };
    Rng rng(306);
    for (const Shape s : {Shape{4, 64, 2048, 396}, Shape{12, 1024, 512, 132}}) {
        SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                     " n=" + std::to_string(s.n));
        const Matrix a_small = random_matrix(s.m, s.k, rng);
        const Matrix b = random_matrix(s.k, s.n, rng);
        const Matrix c_jc = ops::matmul(a_small, b);
        Matrix a_big = random_matrix(s.tall_m, s.k, rng);
        for (std::size_t c = 0; c < a_small.cols(); ++c) {
            for (std::size_t r = 0; r < a_small.rows(); ++r) {
                a_big(r, c) = a_small(r, c);
            }
        }
        const Matrix c_big = ops::matmul(a_big, b);
        for (std::size_t r = 0; r < a_small.rows(); ++r) {
            for (std::size_t c = 0; c < b.cols(); ++c) {
                ASSERT_EQ(c_jc(r, c), c_big(r, c)) << "at (" << r << "," << c << ")";
            }
        }
        // And the packed drive agrees on the same shape.
        EXPECT_EQ(ops::matmul_packed(a_small, ops::pack_gemm_b(b)), c_jc);
    }
}

// ------------------------------------------------- nn forward_inference

TEST(ForwardInference, BitwiseEqualsEvalForwardThroughServingLayers) {
    Rng rng(310);
    nn::Sequential net;
    net.emplace<nn::Linear>(24, 48, rng, "fi.fc0");
    net.emplace<nn::BatchNorm1d>(48);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Dropout>(0.3F, rng);
    net.emplace<nn::Linear>(48, 32, rng, "fi.fc1");
    net.emplace<nn::LeakyReLU>(0.2F);
    net.emplace<nn::Linear>(32, 9, rng, "fi.out");
    net.emplace<nn::Tanh>();

    // Move the BatchNorm running statistics off their initial values so the
    // eval path actually exercises them.
    for (int step = 0; step < 3; ++step) {
        (void)net.forward(random_matrix(32, 24, rng), true);
    }

    nn::InferenceContext ctx;
    Matrix out;
    for (const std::size_t rows : {std::size_t{1}, std::size_t{17}, std::size_t{128}}) {
        const Matrix x = random_matrix(rows, 24, rng);
        const Matrix want = net.forward(x, false);
        net.forward_inference(x, out, ctx);
        EXPECT_EQ(out, want) << "rows=" << rows;
        // Warm-context reuse must not change anything either.
        net.forward_inference(x, out, ctx);
        EXPECT_EQ(out, want) << "rows=" << rows << " (reused context)";
    }
}

TEST(ForwardInference, SigmoidAndDirectDropoutMatchToo) {
    Rng rng(311);
    nn::Sigmoid sigmoid;
    nn::Dropout dropout(0.5F, rng);
    nn::InferenceContext ctx;
    const Matrix x = random_matrix(9, 13, rng);
    Matrix out;
    sigmoid.forward_inference(x, out, ctx);
    EXPECT_EQ(out, sigmoid.forward(x, false));
    EXPECT_TRUE(dropout.inference_identity());
    dropout.forward_inference(x, out, ctx);
    EXPECT_EQ(out, x);
}

TEST(ForwardInference, ConcurrentCallersOnOneConstNetAgree) {
    Rng rng(312);
    nn::Sequential net;
    net.emplace<nn::Linear>(16, 64, rng, "cc.fc0");
    net.emplace<nn::BatchNorm1d>(64);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Linear>(64, 8, rng, "cc.out");
    (void)net.forward(random_matrix(16, 16, rng), true);

    constexpr int kThreads = 6;
    std::vector<Matrix> inputs;
    std::vector<Matrix> expected;
    inputs.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        inputs.push_back(random_matrix(33, 16, rng));
        expected.push_back(net.forward(inputs.back(), false));
    }
    // The packed-weight build races benignly behind its mutex; results must
    // be the serial ones regardless of interleaving.
    std::vector<Matrix> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    const nn::Sequential& cnet = net;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            nn::InferenceContext ctx;
            for (int round = 0; round < 5; ++round) {
                cnet.forward_inference(inputs[static_cast<std::size_t>(t)],
                                       got[static_cast<std::size_t>(t)], ctx);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got[static_cast<std::size_t>(t)], expected[static_cast<std::size_t>(t)])
            << "thread " << t;
    }
}

// ------------------------------------------------- streaming sampling

kinet::core::KiNetGanOptions tiny_options(std::uint64_t seed) {
    kinet::core::KiNetGanOptions opts;
    opts.gan.epochs = 2;
    opts.gan.batch_size = 64;
    opts.gan.hidden_dim = 32;
    opts.gan.noise_dim = 16;
    opts.gan.seed = seed;
    opts.transformer.max_modes = 3;
    return opts;
}

std::unique_ptr<kinet::core::KiNetGan> tiny_model(std::uint64_t seed = 1) {
    kinet::netsim::LabSimOptions sim;
    sim.records = 400;
    sim.seed = 11;
    const auto table = kinet::netsim::LabTrafficSimulator(sim).generate();
    const auto kg = kinet::kg::NetworkKg::build_lab();
    auto model = std::make_unique<kinet::core::KiNetGan>(
        kg.make_oracle(), kinet::netsim::lab_conditional_columns(), tiny_options(seed));
    model->fit(table);
    return model;
}

class SampleStreamTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() { model_ = tiny_model().release(); }
    static void TearDownTestSuite() {
        delete model_;
        model_ = nullptr;
    }
    static kinet::core::KiNetGan* model_;
};

kinet::core::KiNetGan* SampleStreamTest::model_ = nullptr;

TEST_F(SampleStreamTest, BatchedStreamIsIdenticalToUnbatchedForAnyChunkSize) {
    constexpr std::size_t kRows = 337;  // not a multiple of batch or chunk
    const kinet::data::Table whole = model_->sample_seeded(kRows, 99);
    ASSERT_EQ(whole.rows(), kRows);
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{50}, std::size_t{64}, std::size_t{1000}}) {
        kinet::data::Table streamed(model_->schema());
        std::vector<std::size_t> sizes;
        model_->sample_seeded_stream(kRows, 99, chunk, [&](const kinet::data::Table& part) {
            sizes.push_back(part.rows());
            streamed.append_rows(part);
        });
        ASSERT_EQ(streamed.rows(), kRows) << "chunk=" << chunk;
        EXPECT_EQ(streamed.matrix(), whole.matrix()) << "chunk=" << chunk;
        // Exact partition: every chunk full except possibly the last.
        for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
            EXPECT_EQ(sizes[i], chunk);
        }
        if (!sizes.empty()) {
            EXPECT_EQ(sizes.back(), kRows - (sizes.size() - 1) * chunk);
        }
    }
}

TEST_F(SampleStreamTest, ConditionalStreamMatchesConditionalSample) {
    const kinet::data::Table whole = model_->sample_conditional_seeded(150, "protocol", "TCP", 5);
    kinet::data::Table streamed(model_->schema());
    model_->sample_conditional_seeded_stream(
        150, "protocol", "TCP", 5, 47,
        [&](const kinet::data::Table& part) { streamed.append_rows(part); });
    // (Adherence to the pinned value is a training-quality property, not a
    // plumbing one — identity of the two paths is what is under test.)
    EXPECT_EQ(streamed.matrix(), whole.matrix());
}

TEST_F(SampleStreamTest, ConcurrentSeededSamplersMatchTheirSerialReference) {
    constexpr int kClients = 6;
    constexpr std::size_t kRows = 120;
    std::vector<kinet::data::Table> expected;
    expected.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        expected.push_back(model_->sample_seeded(kRows, 1000 + static_cast<std::uint64_t>(c)));
    }
    // All clients share the one const model — no clones, no locks.
    std::vector<kinet::data::Table> got(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    const kinet::core::KiNetGan& cmodel = *model_;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            got[static_cast<std::size_t>(c)] =
                cmodel.sample_seeded(kRows, 1000 + static_cast<std::uint64_t>(c));
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(got[static_cast<std::size_t>(c)].matrix(),
                  expected[static_cast<std::size_t>(c)].matrix())
            << "client " << c;
    }
}

kinet::data::Table first_rows(const kinet::data::Table& t, std::size_t rows) {
    kinet::data::Table out(t.schema());
    out.append_row_range(t, 0, rows);
    return out;
}

TEST_F(SampleStreamTest, RowsDoNotDependOnTheRequestedCount) {
    // Row i is a function of (seed, i) alone (docs/protocol.md, "Sampling
    // stream"), so a longer request extends a shorter one.
    const auto longer = model_->sample_seeded(300, 21);
    const auto shorter = model_->sample_seeded(200, 21);
    ASSERT_EQ(longer.rows(), 300U);
    EXPECT_EQ(first_rows(longer, 200).matrix(), shorter.matrix());
}

TEST_F(SampleStreamTest, ConditionalRowsDoNotDependOnTheRequestedCount) {
    const auto longer = model_->sample_conditional_seeded(300, "protocol", "UDP", 22);
    const auto shorter = model_->sample_conditional_seeded(200, "protocol", "UDP", 22);
    ASSERT_EQ(longer.rows(), 300U);
    EXPECT_EQ(first_rows(longer, 200).matrix(), shorter.matrix());
}

TEST_F(SampleStreamTest, ZeroRowsAndNullSink) {
    std::size_t calls = 0;
    model_->sample_seeded_stream(0, 1, 10,
                                 [&](const kinet::data::Table&) { ++calls; });
    EXPECT_EQ(calls, 0U);
    EXPECT_THROW(model_->sample_seeded_stream(10, 1, 10, nullptr), kinet::Error);
}

// ------------------------------------------ parallel stream generation

/// CSV bytes of a whole table, as a framed SAMPLE serves them.
std::string csv_of(const kinet::data::Table& table) {
    std::string out;
    table.append_csv(out, /*include_header=*/true);
    return out;
}

/// Child side of ParallelStream.ChunksServeTheFramedBytes: prints one line
/// per (n, pin) case with the FNV-1a digest of the framed sample's CSV (the
/// parent compares these across lane counts), then, for every chunk size,
/// checks that the cursor's chunks concatenate to those bytes and partition
/// n exactly.  Ends with "ok" or one line per failing case.
std::string stream_identity() {
    const auto model = tiny_model();
    constexpr std::uint64_t kSeed = 7;
    std::string digests;
    std::string failures;
    for (const std::size_t n : {std::size_t{1}, std::size_t{337}, std::size_t{8193}}) {
        for (const bool pinned : {false, true}) {
            const std::string column = pinned ? "protocol" : "";
            const std::string value = pinned ? "TCP" : "";
            const kinet::data::Table whole =
                pinned ? model->sample_conditional_seeded(n, column, value, kSeed)
                       : model->sample_seeded(n, kSeed);
            const std::string want = csv_of(whole);
            digests += "framed n=" + std::to_string(n) + (pinned ? " pinned" : "") + " " +
                       std::to_string(kinet::bytes::fnv1a(want)) + "\n";
            for (const std::size_t chunk : {1, 127, 128, 300, 512, 1024, 4096}) {
                const std::string label = "n=" + std::to_string(n) +
                                          " chunk=" + std::to_string(chunk) +
                                          (pinned ? " pinned" : "") + ": ";
                auto cursor = model->open_sample_cursor(n, kSeed, chunk, column, value);
                kinet::data::Table streamed(model->schema());
                std::size_t chunks = 0;
                bool exact = true;
                while (const kinet::data::Table* part = cursor->next()) {
                    ++chunks;
                    // Every chunk is full except a final short one.
                    exact = exact && part->rows() > 0 && part->rows() <= chunk &&
                            (part->rows() == chunk || streamed.rows() + part->rows() == n);
                    streamed.append_rows(*part);
                }
                if (!exact || chunks != (n + chunk - 1) / chunk || streamed.rows() != n) {
                    failures += label + "chunks do not partition the rows\n";
                } else if (csv_of(streamed) != want) {
                    failures += label + "bytes differ from the framed sample\n";
                }
            }
        }
    }
    return digests + (failures.empty() ? "ok\n" : failures);
}

/// Child side of ParallelStream.MultiBatchChunksSplitAcrossLanes: prints
/// "ok" when a streamed multi-batch chunk and a framed multi-batch sample
/// reach the pool, and a framed one-batch sample does not.
std::string stream_split() {
    const auto model = tiny_model();
    const std::size_t batch = model->options().gan.batch_size;
    std::string failures;
    std::size_t before = kinet::parallel_for_split_count();
    auto cursor = model->open_sample_cursor(8192, 3, 512);
    while (cursor->next() != nullptr) {
    }
    if (kinet::parallel_for_split_count() == before) {
        failures += "streamed n=8192 chunk=512 never split\n";
    }
    before = kinet::parallel_for_split_count();
    (void)model->sample_seeded(8192, 3);
    if (kinet::parallel_for_split_count() == before) {
        failures += "framed n=8192 never split\n";
    }
    before = kinet::parallel_for_split_count();
    (void)model->sample_seeded(batch, 3);
    if (kinet::parallel_for_split_count() != before) {
        failures += "a framed one-batch sample split\n";
    }
    return failures.empty() ? "ok\n" : failures;
}

TEST(ParallelStream, ChunksServeTheFramedBytes) {
    // Framed samples split across lanes too, so each child checks streamed
    // against framed bytes and the children's framed digests must agree: 4
    // lanes, 3 (waves that do not divide the batches evenly) and 1 (the
    // serial loop).
    if (kinet::testing::self_exe().empty()) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    const std::string serial = kinet::testing::run_self("KINET_NUM_THREADS=1", "--stream-identity");
    EXPECT_TRUE(serial.ends_with("\nok\n")) << serial;
    for (const std::string env : {"KINET_NUM_THREADS=4", "KINET_NUM_THREADS=3"}) {
        EXPECT_EQ(kinet::testing::run_self(env, "--stream-identity"), serial) << "with " << env;
    }
}

TEST(ParallelStream, MultiBatchChunksSplitAcrossLanes) {
    // Guards the identity test above: at 4 lanes its multi-batch passes
    // must really fan out, or it would only re-check the serial loop.
    if (kinet::testing::self_exe().empty()) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    EXPECT_EQ(kinet::testing::run_self("KINET_NUM_THREADS=4", "--stream-split"), "ok\n");
}

}  // namespace

// Custom main: `--stream-identity` and `--stream-split` turn the binary into
// the child side of the ParallelStream tests (print and exit).
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--stream-identity") {
            std::fputs(stream_identity().c_str(), stdout);
            return 0;
        }
        if (std::string(argv[i]) == "--stream-split") {
            std::fputs(stream_split().c_str(), stdout);
            return 0;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
