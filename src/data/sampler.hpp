// Training-by-sampling (Sec. III-A of the paper, after Xu et al. 2019).
//
// A condition is drawn by (1) picking a conditional column, (2) picking one
// of its values — either by log-frequency (fidelity-preserving) or uniformly
// (the paper's minority-value boost, Sec. III-A-3), then (3) picking a real
// row that carries that value.  The returned row's full conditional-attribute
// assignment becomes the condition vector C, so real sample and condition are
// always consistent.
#ifndef KINETGAN_DATA_SAMPLER_H
#define KINETGAN_DATA_SAMPLER_H

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/rng.hpp"
#include "src/data/table.hpp"

namespace kinet::data {

/// One draw from the conditional sampler.
struct CondDraw {
    std::size_t row = 0;                  // index of a consistent real row
    std::vector<std::size_t> values;      // value id per conditional column
    std::size_t anchor_column = 0;        // position within cond_columns()
    std::size_t anchor_value = 0;         // chosen value id of the anchor
};

struct SamplerOptions {
    /// Probability of drawing the anchor value uniformly over the category
    /// range instead of by log-frequency — forces minority representation.
    double uniform_minority_prob = 0.25;
};

class ConditionalSampler {
public:
    /// cond_columns must be categorical columns of `table`.
    ConditionalSampler(const Table& table, std::vector<std::size_t> cond_columns,
                       SamplerOptions options = {});

    [[nodiscard]] CondDraw draw(Rng& rng) const;

    /// Draws a condition purely from the empirical distribution (no minority
    /// boost) — used when sampling from a trained generator so the output
    /// matches the original data distribution (Sec. III-A).
    [[nodiscard]] CondDraw draw_empirical(Rng& rng) const;

    /// draw_empirical on one block of the counter-based sampling stream:
    /// words[0] picks the column (multiply-shift), the 53-bit uniform of
    /// words[1..2] walks that column's cumulative empirical frequencies,
    /// and words[3] picks a carrying row (multiply-shift).  Returns the
    /// picked row's value id per conditional column, without copying.
    [[nodiscard]] std::span<const std::size_t> draw_empirical_values(
        std::span<const std::uint32_t, 4> words) const;

    [[nodiscard]] const std::vector<std::size_t>& cond_columns() const noexcept {
        return cond_columns_;
    }
    [[nodiscard]] std::size_t table_rows() const noexcept { return row_values_.size(); }

    /// Serializes the derived sampling state (frequencies and row/value
    /// indexes — not the source table) for model snapshots.
    void save(bytes::Writer& out) const;
    [[nodiscard]] static ConditionalSampler load(bytes::Reader& in);

private:
    ConditionalSampler() = default;

    [[nodiscard]] CondDraw make_draw(std::size_t col_pos, std::size_t value_id, Rng& rng) const;

    std::vector<std::size_t> cond_columns_;
    SamplerOptions options_;
    // rows_by_value_[col_pos][value] -> indices of rows carrying that value.
    std::vector<std::vector<std::vector<std::size_t>>> rows_by_value_;
    // log-frequency weights per column (CTGAN's log-frequency sampling).
    std::vector<std::vector<double>> log_freq_;
    // empirical frequencies per column.
    std::vector<std::vector<double>> freq_;
    // conditional-attribute values per row (row-major).
    std::vector<std::vector<std::size_t>> row_values_;
};

}  // namespace kinet::data

#endif  // KINETGAN_DATA_SAMPLER_H
