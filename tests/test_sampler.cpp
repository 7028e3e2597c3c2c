// Tests for training-by-sampling (conditional sampler).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "src/common/check.hpp"
#include "src/data/sampler.hpp"

namespace {

using kinet::Rng;
using namespace kinet::data;  // NOLINT

/// One block of stream words for draw_empirical_values.
std::array<std::uint32_t, 4> words_from(Rng& rng) {
    std::array<std::uint32_t, 4> w{};
    for (auto& x : w) {
        x = static_cast<std::uint32_t>(rng.engine()());
    }
    return w;
}

// 90/9/1 imbalanced table.
Table imbalanced_table(std::size_t rows, Rng& rng) {
    Table t({
        ColumnMeta::categorical_column("cls", {"common", "minor", "rare"}),
        ColumnMeta::continuous_column("x"),
        ColumnMeta::categorical_column("aux", {"a", "b"}),
    });
    for (std::size_t r = 0; r < rows; ++r) {
        const double u = rng.uniform();
        const float cls = (u < 0.90) ? 0.0F : (u < 0.99 ? 1.0F : 2.0F);
        t.append_row({cls, static_cast<float>(rng.normal()), rng.bernoulli(0.5) ? 1.0F : 0.0F});
    }
    return t;
}

TEST(Sampler, DrawReturnsConsistentRowAndValues) {
    Rng rng(600);
    const Table t = imbalanced_table(500, rng);
    const ConditionalSampler sampler(t, {0, 2});
    for (int i = 0; i < 200; ++i) {
        const auto draw = sampler.draw(rng);
        ASSERT_EQ(draw.values.size(), 2U);
        // The anchored value must be the anchored column's value of the row.
        EXPECT_EQ(draw.values[draw.anchor_column], draw.anchor_value);
        // And every reported value matches the real row.
        EXPECT_EQ(draw.values[0], t.category_at(draw.row, 0));
        EXPECT_EQ(draw.values[1], t.category_at(draw.row, 2));
    }
}

TEST(Sampler, MinorityBoostOversamplesRareValues) {
    Rng rng(601);
    const Table t = imbalanced_table(2000, rng);

    SamplerOptions boosted;
    boosted.uniform_minority_prob = 0.8;
    const ConditionalSampler with_boost(t, {0}, boosted);

    SamplerOptions plain;
    plain.uniform_minority_prob = 0.0;
    const ConditionalSampler no_boost(t, {0}, plain);

    auto rare_fraction = [&rng](const ConditionalSampler& s) {
        std::size_t rare = 0;
        const int n = 3000;
        for (int i = 0; i < n; ++i) {
            rare += (s.draw(rng).values[0] == 2) ? 1 : 0;
        }
        return static_cast<double>(rare) / n;
    };

    const double boosted_rate = rare_fraction(with_boost);
    const double plain_rate = rare_fraction(no_boost);
    // Log-frequency sampling already flattens the 90/9/1 imbalance to
    // roughly proportional-to-log counts; the uniform boost must lift the
    // rare class clearly further, towards the uniform 1/3.
    EXPECT_GT(boosted_rate, 0.25);
    EXPECT_GT(boosted_rate, plain_rate + 0.05);
}

TEST(Sampler, EmpiricalDrawMatchesDataDistribution) {
    Rng rng(602);
    const Table t = imbalanced_table(3000, rng);
    const ConditionalSampler sampler(t, {0});
    std::vector<std::size_t> counts(3, 0);
    std::vector<std::size_t> word_counts(3, 0);
    const int n = 6000;
    for (int i = 0; i < n; ++i) {
        ++counts[sampler.draw_empirical(rng).values[0]];
        ++word_counts[sampler.draw_empirical_values(words_from(rng))[0]];
    }
    const auto data_counts = t.category_counts(0);
    for (std::size_t k = 0; k < 3; ++k) {
        const double data_p = static_cast<double>(data_counts[k]) / t.rows();
        EXPECT_NEAR(static_cast<double>(counts[k]) / n, data_p, 0.03);
        EXPECT_NEAR(static_cast<double>(word_counts[k]) / n, data_p, 0.03);
    }
}

TEST(Sampler, RejectsContinuousConditionalColumn) {
    Rng rng(603);
    const Table t = imbalanced_table(100, rng);
    EXPECT_THROW(ConditionalSampler(t, {1}), kinet::Error);
}

TEST(Sampler, RejectsEmptyConfiguration) {
    Rng rng(604);
    const Table t = imbalanced_table(100, rng);
    EXPECT_THROW(ConditionalSampler(t, {}), kinet::Error);
}

TEST(Sampler, NeverReturnsValueAbsentFromData) {
    Rng rng(605);
    // Schema declares 3 classes but the data only contains two.
    Table t({ColumnMeta::categorical_column("cls", {"a", "b", "never"}),
             ColumnMeta::continuous_column("x")});
    for (int i = 0; i < 200; ++i) {
        t.append_row({rng.bernoulli(0.3) ? 1.0F : 0.0F, 0.0F});
    }
    const ConditionalSampler sampler(t, {0});
    for (int i = 0; i < 500; ++i) {
        EXPECT_NE(sampler.draw(rng).values[0], 2U);
        EXPECT_NE(sampler.draw_empirical_values(words_from(rng))[0], 2U);
    }
    // The largest uniform the words can give still lands on a value the
    // data carries (the walk's fallback skips zero-frequency values).
    EXPECT_EQ(sampler.draw_empirical_values(std::array<std::uint32_t, 4>{0, ~0U, ~0U, 0})[0], 1U);
}

}  // namespace
