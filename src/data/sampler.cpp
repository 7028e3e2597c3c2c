#include "src/data/sampler.hpp"

#include <cmath>

#include "src/common/check.hpp"
#include "src/common/philox.hpp"

namespace kinet::data {

ConditionalSampler::ConditionalSampler(const Table& table, std::vector<std::size_t> cond_columns,
                                       SamplerOptions options)
    : cond_columns_(std::move(cond_columns)), options_(options) {
    KINET_CHECK(!cond_columns_.empty(), "ConditionalSampler: need at least one column");
    KINET_CHECK(table.rows() > 0, "ConditionalSampler: empty table");

    rows_by_value_.resize(cond_columns_.size());
    log_freq_.resize(cond_columns_.size());
    freq_.resize(cond_columns_.size());

    for (std::size_t p = 0; p < cond_columns_.size(); ++p) {
        const std::size_t col = cond_columns_[p];
        KINET_CHECK(table.meta(col).is_categorical(),
                    "ConditionalSampler: column " + table.meta(col).name + " is not categorical");
        const std::size_t k = table.meta(col).categories.size();
        rows_by_value_[p].assign(k, {});
        log_freq_[p].assign(k, 0.0);
        freq_[p].assign(k, 0.0);
    }

    row_values_.resize(table.rows());
    for (std::size_t r = 0; r < table.rows(); ++r) {
        row_values_[r].resize(cond_columns_.size());
        for (std::size_t p = 0; p < cond_columns_.size(); ++p) {
            const std::size_t v = table.category_at(r, cond_columns_[p]);
            row_values_[r][p] = v;
            rows_by_value_[p][v].push_back(r);
        }
    }

    for (std::size_t p = 0; p < cond_columns_.size(); ++p) {
        for (std::size_t v = 0; v < rows_by_value_[p].size(); ++v) {
            const auto count = static_cast<double>(rows_by_value_[p][v].size());
            freq_[p][v] = count / static_cast<double>(table.rows());
            log_freq_[p][v] = (count > 0.0) ? std::log1p(count) : 0.0;
        }
    }
}

void ConditionalSampler::save(bytes::Writer& out) const {
    out.index_array(cond_columns_);
    out.f64(options_.uniform_minority_prob);
    out.u64(rows_by_value_.size());
    for (const auto& by_value : rows_by_value_) {
        out.u64(by_value.size());
        for (const auto& rows : by_value) {
            out.index_array(rows);
        }
    }
    for (const auto& weights : log_freq_) {
        out.f64_array(weights);
    }
    for (const auto& weights : freq_) {
        out.f64_array(weights);
    }
    out.u64(row_values_.size());
    for (const auto& values : row_values_) {
        out.index_array(values);
    }
}

ConditionalSampler ConditionalSampler::load(bytes::Reader& in) {
    ConditionalSampler s;
    s.cond_columns_ = in.index_array();
    KINET_CHECK(!s.cond_columns_.empty(), "ConditionalSampler::load: no conditional columns");
    s.options_.uniform_minority_prob = in.f64();
    const auto cols = static_cast<std::size_t>(in.u64());
    KINET_CHECK(cols == s.cond_columns_.size(),
                "ConditionalSampler::load: per-column state count mismatch");
    s.rows_by_value_.resize(cols);
    for (auto& by_value : s.rows_by_value_) {
        // Buffer-bounded: each value's row list costs at least its own
        // 8-byte length prefix.
        const std::size_t k = in.element_count(8, "sampler rows-by-value");
        by_value.resize(k);
        for (auto& rows : by_value) {
            rows = in.index_array();
        }
    }
    s.log_freq_.resize(cols);
    for (auto& weights : s.log_freq_) {
        weights = in.f64_array();
    }
    s.freq_.resize(cols);
    for (auto& weights : s.freq_) {
        weights = in.f64_array();
    }
    const std::size_t rows = in.element_count(8, "sampler row values");
    s.row_values_.resize(rows);
    for (auto& values : s.row_values_) {
        values = in.index_array();
        KINET_CHECK(values.size() == cols,
                    "ConditionalSampler::load: row value width mismatch");
    }
    // Cross-structure invariants the draw paths index by without checking
    // (the stream passed its checksum but is still untrusted): frequency
    // tables must line up with the value tables, and every stored index
    // must land inside the structure it points into.
    for (std::size_t c = 0; c < cols; ++c) {
        KINET_CHECK(s.log_freq_[c].size() == s.rows_by_value_[c].size() &&
                        s.freq_[c].size() == s.rows_by_value_[c].size(),
                    "ConditionalSampler::load: frequency table width mismatch");
        for (const auto& row_list : s.rows_by_value_[c]) {
            for (const std::size_t r : row_list) {
                KINET_CHECK(r < rows, "ConditionalSampler::load: row index out of range");
            }
        }
    }
    for (const auto& values : s.row_values_) {
        for (std::size_t c = 0; c < cols; ++c) {
            KINET_CHECK(values[c] < s.rows_by_value_[c].size(),
                        "ConditionalSampler::load: value id out of range");
        }
    }
    return s;
}

CondDraw ConditionalSampler::make_draw(std::size_t col_pos, std::size_t value_id, Rng& rng) const {
    const auto& rows = rows_by_value_[col_pos][value_id];
    KINET_CHECK(!rows.empty(), "ConditionalSampler: no rows carry the requested value");
    const std::size_t row =
        rows[static_cast<std::size_t>(rng.randint(0, static_cast<std::int64_t>(rows.size()) - 1))];
    CondDraw draw;
    draw.row = row;
    draw.values = row_values_[row];
    draw.anchor_column = col_pos;
    draw.anchor_value = value_id;
    return draw;
}

CondDraw ConditionalSampler::draw(Rng& rng) const {
    const auto col_pos = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(cond_columns_.size()) - 1));
    std::size_t value_id = 0;
    if (rng.bernoulli(options_.uniform_minority_prob)) {
        // Uniform over values that occur at least once — the minority boost.
        std::vector<double> present(rows_by_value_[col_pos].size(), 0.0);
        for (std::size_t v = 0; v < present.size(); ++v) {
            present[v] = rows_by_value_[col_pos][v].empty() ? 0.0 : 1.0;
        }
        value_id = rng.categorical(present);
    } else {
        value_id = rng.categorical(log_freq_[col_pos]);
    }
    return make_draw(col_pos, value_id, rng);
}

CondDraw ConditionalSampler::draw_empirical(Rng& rng) const {
    const auto col_pos = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(cond_columns_.size()) - 1));
    const std::size_t value_id = rng.categorical(freq_[col_pos]);
    return make_draw(col_pos, value_id, rng);
}

std::span<const std::size_t> ConditionalSampler::draw_empirical_values(
    std::span<const std::uint32_t, 4> words) const {
    const std::size_t col_pos = philox::pick(words[0], cond_columns_.size());
    const auto& freq = freq_[col_pos];
    KINET_CHECK(!freq.empty(), "ConditionalSampler: conditional column has no values");
    // Additions and comparisons only, so no multiply-add contraction can
    // move the walk.  A value of zero frequency never raises the running
    // sum and so is never picked; the fallback covers a sum that rounds
    // below u.
    const double u = philox::uniform53(words[1], words[2]);
    std::size_t value_id = freq.size();
    double cumulative = 0.0;
    for (std::size_t v = 0; v < freq.size(); ++v) {
        cumulative += freq[v];
        if (u < cumulative) {
            value_id = v;
            break;
        }
    }
    if (value_id == freq.size()) {
        do {
            --value_id;
        } while (value_id > 0 && freq[value_id] <= 0.0);
    }
    const auto& rows = rows_by_value_[col_pos][value_id];
    KINET_CHECK(!rows.empty(), "ConditionalSampler: no rows carry the requested value");
    return row_values_[rows[philox::pick(words[3], rows.size())]];
}

}  // namespace kinet::data
