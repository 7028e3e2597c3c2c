// Unit tests for the common utilities: Rng, check, text, csv, stopwatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/csv.hpp"
#include "src/common/rng.hpp"
#include "src/common/stopwatch.hpp"
#include "src/common/text.hpp"

namespace {

using kinet::Error;
using kinet::Rng;

TEST(Check, ThrowsWithMessageAndLocation) {
    try {
        KINET_CHECK(1 == 2, "custom context");
        FAIL() << "expected throw";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("custom context"), std::string::npos);
        EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    }
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    }
}

TEST(Rng, UniformBounds) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, RandintInclusiveBounds) {
    Rng rng(2);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.randint(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= (v == 0);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
    Rng rng(3);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(2.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Rng, LaplaceIsSymmetricWithCorrectScale) {
    Rng rng(4);
    double sum = 0.0;
    double abs_sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.laplace(0.0, 2.0);
        sum += v;
        abs_sum += std::abs(v);
    }
    EXPECT_NEAR(sum / n, 0.0, 0.15);
    EXPECT_NEAR(abs_sum / n, 2.0, 0.15);  // E|X| = b for Laplace(0, b)
}

TEST(Rng, CategoricalRespectsWeights) {
    Rng rng(5);
    const std::vector<double> w = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 8000; ++i) {
        ++counts[rng.categorical(w)];
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, CategoricalRejectsAllZeroWeights) {
    Rng rng(6);
    const std::vector<double> w = {0.0, 0.0};
    EXPECT_THROW((void)rng.categorical(w), Error);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
    Rng rng(7);
    const auto idx = rng.sample_without_replacement(50, 20);
    EXPECT_EQ(idx.size(), 20U);
    std::vector<bool> seen(50, false);
    for (auto i : idx) {
        EXPECT_LT(i, 50U);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
    Rng rng(8);
    EXPECT_THROW((void)rng.sample_without_replacement(5, 6), Error);
}

TEST(Rng, PermutationCoversAllIndices) {
    Rng rng(9);
    auto perm = rng.permutation(64);
    std::sort(perm.begin(), perm.end());
    for (std::size_t i = 0; i < perm.size(); ++i) {
        EXPECT_EQ(perm[i], i);
    }
}

TEST(Rng, ForkProducesIndependentStream) {
    Rng parent(10);
    Rng child = parent.fork();
    // The child's values differ from the parent's next draws.
    EXPECT_NE(parent.uniform(), child.uniform());
}

TEST(Text, SplitKeepsEmptyFields) {
    const auto parts = kinet::text::split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4U);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Text, TrimRemovesSurroundingWhitespace) {
    EXPECT_EQ(kinet::text::trim("  x y \t\n"), "x y");
    EXPECT_EQ(kinet::text::trim(""), "");
    EXPECT_EQ(kinet::text::trim("   "), "");
}

TEST(Text, JoinAndPad) {
    EXPECT_EQ(kinet::text::join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(kinet::text::pad("ab", 5), "ab   ");
    EXPECT_EQ(kinet::text::pad("abcdef", 3), "abc");
}

TEST(Text, FormatDoubleFixedPrecision) {
    EXPECT_EQ(kinet::text::format_double(0.126, 2), "0.13");
    EXPECT_EQ(kinet::text::format_double(3.0, 3), "3.000");
}

namespace {

std::string printf_fixed(double v, int precision) {
    std::vector<char> buf(512);
    const int len = std::snprintf(buf.data(), buf.size(), "%.*f", precision, v);
    return std::string(buf.data(), static_cast<std::size_t>(len));
}

}  // namespace

TEST(Text, FormatDoubleMatchesPrintfOverValueSweep) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values = {
        0.0, -0.0, 1e-7, -1e-7, 4e-7, 5e-7, -5e-7, 1e20, -1e20, 1e300,
        // Exact decimal ties at precision 0..3 (printf rounds them to even),
        // and 2.675, whose binary value sits just below its tie.
        0.5, 1.5, 2.5, -2.5, 0.125, 0.375, 1.0625, 2.675,
        std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(), kInf, -kInf, kNan, -kNan};
    // Served cells are floats widened to double; sweep those too.
    Rng rng(161);
    for (int i = 0; i < 2000; ++i) {
        const double magnitude = std::pow(10.0, rng.uniform(-9.0, 9.0));
        values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0) * magnitude));
    }
    for (const double v : values) {
        for (const int precision : {0, 1, 3, 6, 9}) {
            ASSERT_EQ(kinet::text::format_double(v, precision), printf_fixed(v, precision))
                << "value " << v << " precision " << precision;
        }
    }
    std::string out = "x=";
    kinet::text::append_double(out, -0.0, 6);
    EXPECT_EQ(out, "x=-0.000000");
    // Fixed notation of 1e300 with 200 fraction digits overflows the buffer.
    EXPECT_THROW((void)kinet::text::format_double(1e300, 200), Error);
}

TEST(Csv, AppendCellQuotesOnlyWhenNeeded) {
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"plain", "plain"},       {"", ""},
        {"a,b", "\"a,b\""},       {"say \"hi\"", "\"say \"\"hi\"\"\""},
        {"l1\nl2", "\"l1\nl2\""}, {"cr\r", "\"cr\r\""},
        {"sp ace", "sp ace"}};
    for (const auto& [cell, want] : cases) {
        std::string out = "<";
        kinet::csv::append_cell(out, cell);
        EXPECT_EQ(out, "<" + want) << cell;
    }
}

TEST(Csv, RoundTripWithQuoting) {
    kinet::csv::Document doc;
    doc.header = {"name", "note"};
    doc.rows.push_back({"alice", "plain"});
    doc.rows.push_back({"bob", "has,comma"});
    doc.rows.push_back({"carol", "has\"quote"});
    const auto text = kinet::csv::serialize(doc);
    const auto parsed = kinet::csv::parse(text);
    EXPECT_EQ(parsed.header, doc.header);
    ASSERT_EQ(parsed.rows.size(), doc.rows.size());
    for (std::size_t i = 0; i < doc.rows.size(); ++i) {
        EXPECT_EQ(parsed.rows[i], doc.rows[i]);
    }
}

TEST(Csv, RejectsRaggedRows) {
    EXPECT_THROW((void)kinet::csv::parse("a,b\n1,2,3\n"), Error);
}

TEST(Csv, RejectsUnterminatedQuote) {
    EXPECT_THROW((void)kinet::csv::parse("a\n\"unclosed\n"), Error);
}

TEST(Csv, HandlesCrLfLineEndings) {
    const auto doc = kinet::csv::parse("a,b\r\n1,2\r\n");
    ASSERT_EQ(doc.rows.size(), 1U);
    EXPECT_EQ(doc.rows[0][1], "2");
}

TEST(Stopwatch, MeasuresElapsedTime) {
    kinet::Stopwatch watch;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
        sink = sink + 1.0;
    }
    const double first = watch.seconds();
    EXPECT_GE(first, 0.0);
    EXPECT_GE(watch.seconds(), first);  // monotone
    watch.reset();
    EXPECT_LT(watch.seconds(), 1.0);
}

}  // namespace
