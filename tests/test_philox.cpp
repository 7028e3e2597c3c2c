// Counter-based sampling stream suite.
//
// (1) Philox4x32-10 reproduces the Random123 known-answer vectors; (2) one
// literal hash pins a lab-shaped fill and its float transforms, so the
// stream's bits are checked on every compiler, build type and ISA that
// runs this suite; (3) the in-tree transforms are finite and accurate over
// every value the uniform can take; (4) normal and Gumbel draws have the
// right moments; (5) the training draws built on the stream (noise, Gumbel
// and dropout matrices) are pinned by one hash, and dropout keeps the
// right share.  That served rows do not depend on the requested count is
// checked in test_inference.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/philox.hpp"
#include "src/common/rng.hpp"
#include "src/gan/gan_common.hpp"
#include "src/nn/dropout.hpp"
#include "src/nn/gumbel.hpp"

namespace {

namespace philox = kinet::philox;

constexpr std::uint32_t kUniformValues = 1U << 23;  // distinct u of uniform()

std::uint32_t word_of(std::uint32_t j) { return j << 9; }

TEST(Philox, RandomOneTwoThreeKnownAnswers) {
    using C = philox::Counter;
    EXPECT_EQ(philox::philox4x32_10(C{0, 0, 0, 0}, {0, 0}),
              (C{0x6627e8d5U, 0xe169c58dU, 0xbc57ac4cU, 0x9b00dbd8U}));
    EXPECT_EQ(philox::philox4x32_10(C{~0U, ~0U, ~0U, ~0U}, {~0U, ~0U}),
              (C{0x408f276dU, 0x41c83b0eU, 0xa20bc7c6U, 0x6d5451fdU}));
    EXPECT_EQ(philox::philox4x32_10(C{0x243f6a88U, 0x85a308d3U, 0x13198a2eU, 0x03707344U},
                                    {0xa4093822U, 0x299f31d0U}),
              (C{0xd16cfe09U, 0x94fdccebU, 0x5001e420U, 0x24126ea1U}));
}

TEST(Philox, FillRowsIsTheCounterMap) {
    constexpr std::uint64_t kKey = 0x0123456789abcdefULL;
    constexpr std::size_t kBlocks = 5;
    const std::uint64_t row0 = (std::uint64_t{1} << 32) - 2;  // crosses the high word
    std::vector<std::uint32_t> words(4 * kBlocks * philox::kBlockWords);
    philox::fill_rows(kKey, row0, 4, kBlocks, words.data());
    for (std::size_t r = 0; r < 4; ++r) {
        const std::uint64_t row = row0 + r;
        for (std::size_t b = 0; b < kBlocks; ++b) {
            const auto c = philox::philox4x32_10(
                {static_cast<std::uint32_t>(b), 0U, static_cast<std::uint32_t>(row),
                 static_cast<std::uint32_t>(row >> 32)},
                {static_cast<std::uint32_t>(kKey), static_cast<std::uint32_t>(kKey >> 32)});
            for (std::size_t i = 0; i < philox::kBlockWords; ++i) {
                EXPECT_EQ(words[(r * kBlocks + b) * philox::kBlockWords + i], c[i])
                    << "row " << row << " block " << b;
            }
        }
    }
}

// The lab model's stream shape: block 0 for the condition, 16 noise blocks
// (noise_dim 64) and 19 Gumbel blocks (75 softmax columns).  The hash
// covers the words, the normals and the Gumbel draws (host byte order); a
// toolchain, build type or ISA that rounds one operation differently
// changes it.
TEST(Philox, LabShapedFillHashIsPinned) {
    constexpr std::size_t kRows = 256;
    constexpr std::size_t kNoise = 64;
    constexpr std::size_t kSoftmax = 75;
    constexpr std::size_t kBlocks = 1 + kNoise / 4 + (kSoftmax + 3) / 4;
    constexpr std::size_t kRowWords = kBlocks * philox::kBlockWords;
    constexpr std::uint64_t kKey = 42ULL ^ 0x9e3779b97f4a7c15ULL;
    std::vector<std::uint32_t> words(kRows * kRowWords);
    philox::fill_rows(kKey, 0, kRows, kBlocks, words.data());
    std::vector<float> noise(kRows * kNoise);
    std::vector<float> gumbel(kRows * kSoftmax);
    for (std::size_t r = 0; r < kRows; ++r) {
        const std::uint32_t* w = words.data() + r * kRowWords;
        philox::normals(w + philox::kBlockWords, kNoise, noise.data() + r * kNoise);
        philox::gumbels(w + (1 + kNoise / 4) * philox::kBlockWords, kSoftmax,
                        gumbel.data() + r * kSoftmax);
    }
    std::string bytes(words.size() * 4 + noise.size() * 4 + gumbel.size() * 4, '\0');
    std::memcpy(bytes.data(), words.data(), words.size() * 4);
    std::memcpy(bytes.data() + words.size() * 4, noise.data(), noise.size() * 4);
    std::memcpy(bytes.data() + (words.size() + noise.size()) * 4, gumbel.data(),
                gumbel.size() * 4);
    EXPECT_EQ(kinet::bytes::fnv1a(bytes), 0xd060ae95c8639b84ULL);
}

TEST(Philox, UniformIsOpenAndExact) {
    EXPECT_EQ(philox::uniform(0U), 0x1p-24F);
    EXPECT_EQ(philox::uniform(~0U), 1.0F - 0x1p-24F);
    EXPECT_EQ(philox::uniform(word_of(kUniformValues / 2)), 0.5F + 0x1p-24F);
}

// Every u the stream can produce: the log is finite and within 2^-23
// relative error of std::log (measured maximum 1.34 * 2^-24), and every
// Gumbel draw and Box–Muller radius is finite.
TEST(Philox, TransformsAreFiniteAndAccurateOverEveryUniform) {
    double worst = 0.0;
    std::vector<std::uint32_t> words(2 * 4096);
    std::vector<float> out(2 * 4096);
    for (std::uint32_t base = 0; base < kUniformValues; base += 4096) {
        for (std::uint32_t j = 0; j < 4096; ++j) {
            const float u = philox::uniform(word_of(base + j));
            const float l = philox::ln(u);
            ASSERT_TRUE(std::isfinite(l) && l < 0.0F) << "u=" << u;
            const double exact = std::log(static_cast<double>(u));
            worst = std::max(worst, std::abs(static_cast<double>(l) - exact) / -exact);
            words[j] = word_of(base + j);
            words[4096 + j] = 0U;  // u2 = 2^-24: cos(2 pi u2) ~ 1, so out[j] ~ radius
        }
        philox::normals(words.data(), 2 * 4096, out.data());
        for (std::uint32_t j = 0; j < 4096; ++j) {
            const double u = philox::uniform(word_of(base + j));
            const double radius = std::sqrt(-2.0 * std::log(u));
            ASSERT_TRUE(std::isfinite(out[j]) && out[j] > 0.0F) << "u=" << u;
            ASSERT_NEAR(out[j], radius, 1e-6 * radius + 1e-6) << "u=" << u;
        }
        philox::gumbels(words.data(), 4096, out.data());
        for (std::uint32_t j = 0; j < 4096; ++j) {
            ASSERT_TRUE(std::isfinite(out[j])) << "word " << words[j];
        }
    }
    EXPECT_LE(worst, 0x1p-23);
}

// The polynomial sin/cos over every u2: (r cos, r sin) with r fixed lies
// on the circle and matches std::sin/std::cos of 2 pi u2.
TEST(Philox, BoxMullerAngleIsAccurateOverEveryUniform) {
    constexpr std::uint32_t kChunk = 4096;
    const std::uint32_t u1_word = word_of(kUniformValues / 3);
    const double r = std::sqrt(-2.0 * std::log(static_cast<double>(philox::uniform(u1_word))));
    std::vector<std::uint32_t> words(2 * kChunk, u1_word);
    std::vector<float> out(2 * kChunk);
    double worst = 0.0;
    for (std::uint32_t base = 0; base < kUniformValues; base += kChunk) {
        for (std::uint32_t j = 0; j < kChunk; ++j) {
            words[kChunk + j] = word_of(base + j);
        }
        philox::normals(words.data(), 2 * kChunk, out.data());
        for (std::uint32_t j = 0; j < kChunk; ++j) {
            const double angle = 2.0 * std::numbers::pi *
                                 static_cast<double>(philox::uniform(word_of(base + j)));
            worst = std::max(worst, std::abs(out[j] - r * std::cos(angle)) / r);
            worst = std::max(worst, std::abs(out[kChunk + j] - r * std::sin(angle)) / r);
        }
    }
    EXPECT_LE(worst, 1e-6);
}

struct Moments {
    double mean = 0.0;
    double var = 0.0;
};

Moments moments_of(const std::vector<float>& x) {
    Moments m;
    for (const float v : x) {
        m.mean += v;
    }
    m.mean /= static_cast<double>(x.size());
    for (const float v : x) {
        m.var += (v - m.mean) * (v - m.mean);
    }
    m.var /= static_cast<double>(x.size() - 1);
    return m;
}

constexpr std::size_t kDraws = std::size_t{1} << 20;

std::vector<std::uint32_t> stream_words(std::uint64_t key) {
    std::vector<std::uint32_t> words(kDraws);
    philox::fill_rows(key, 0, kDraws / 64, 16, words.data());
    return words;
}

TEST(Philox, NormalMomentsWithinFourSigma) {
    const auto words = stream_words(7);
    std::vector<float> z(kDraws);
    philox::normals(words.data(), kDraws, z.data());
    const Moments m = moments_of(z);
    const double n = static_cast<double>(kDraws);
    EXPECT_NEAR(m.mean, 0.0, 4.0 * std::sqrt(1.0 / n));
    EXPECT_NEAR(m.var, 1.0, 4.0 * std::sqrt(2.0 / n));  // kurtosis 3
}

TEST(Philox, GumbelMomentsWithinFourSigma) {
    const auto words = stream_words(8);
    std::vector<float> g(kDraws);
    philox::gumbels(words.data(), kDraws, g.data());
    const Moments m = moments_of(g);
    const double n = static_cast<double>(kDraws);
    const double var = std::numbers::pi * std::numbers::pi / 6.0;
    EXPECT_NEAR(m.mean, std::numbers::egamma, 4.0 * std::sqrt(var / n));
    // Var of the sample variance is (mu4 - sigma^4) / n; Gumbel kurtosis is 5.4.
    EXPECT_NEAR(m.var, var, 4.0 * std::sqrt(4.4 * var * var / n));
}

// Training's draws from a fixed Rng, each keyed by one word of it: the
// generator noise of a lab batch, the Gumbel matrix of its output width
// and a p = 0.25 dropout mask over a hidden layer.  Values and mask
// entries are hashed in host byte order.
TEST(Philox, TrainingDrawsHashIsPinned) {
    kinet::Rng rng(2405);
    const auto noise = kinet::gan::sample_noise(128, 64, rng);
    const auto gumbel = kinet::nn::gumbel_noise(128, 79, rng);
    kinet::nn::Dropout dropout(0.25F, rng);
    const auto mask = dropout.forward(kinet::tensor::Matrix(128, 128, 1.0F), true);
    std::string bytes;
    for (const auto* m : {&noise, &gumbel, &mask}) {
        const auto d = m->data();
        bytes.append(reinterpret_cast<const char*>(d.data()), d.size() * sizeof(float));
    }
    EXPECT_EQ(kinet::bytes::fnv1a(bytes), 0xe660999390b8a8d0ULL);
}

TEST(Philox, DropoutKeepRateWithinFourSigma) {
    kinet::Rng rng(2406);
    kinet::nn::Dropout dropout(0.25F, rng);
    const auto out = dropout.forward(kinet::tensor::Matrix(1024, 1024, 1.0F), true);
    std::size_t kept = 0;
    for (const float v : out.data()) {
        ASSERT_TRUE(v == 0.0F || v == 1.0F / 0.75F) << v;
        kept += v != 0.0F ? 1 : 0;
    }
    const double n = static_cast<double>(kDraws);
    EXPECT_NEAR(static_cast<double>(kept) / n, 0.75, 4.0 * std::sqrt(0.75 * 0.25 / n));
}

}  // namespace
