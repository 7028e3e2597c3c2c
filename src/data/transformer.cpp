#include "src/data/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace kinet::data {

void TableTransformer::fit(const Table& table, const TransformerOptions& options, Rng& rng) {
    KINET_CHECK(table.rows() > 0, "TableTransformer::fit: empty table");
    schema_ = table.schema();
    options_ = options;
    gmms_.assign(schema_.size(), Gmm1D{});
    for (std::size_t c = 0; c < schema_.size(); ++c) {
        if (!schema_[c].is_categorical()) {
            gmms_[c] = Gmm1D::fit(table.column_values(c), options.max_modes, rng,
                                  options.gmm_iterations);
        }
    }
    lay_out_spans();
}

void TableTransformer::lay_out_spans() {
    spans_.clear();
    output_width_ = 0;
    for (std::size_t c = 0; c < schema_.size(); ++c) {
        const auto add = [&](SpanKind kind, std::size_t width) {
            spans_.push_back({c, kind, output_width_, width});
            output_width_ += width;
        };
        if (schema_[c].is_categorical()) {
            add(SpanKind::category_onehot, schema_[c].categories.size());
        } else {
            add(SpanKind::continuous_alpha, 1);
            add(SpanKind::mode_onehot, gmms_[c].component_count());
        }
    }
}

tensor::Matrix TableTransformer::transform(const Table& table, Rng& rng) const {
    KINET_CHECK(is_fitted(), "TableTransformer::transform before fit");
    KINET_CHECK(table.cols() == schema_.size(), "TableTransformer::transform: schema mismatch");
    const std::size_t rows = table.rows();
    tensor::Matrix out(rows, output_width_);
    std::vector<double> resp;  // per-row posteriors of the current column
    // Spans were built in order: for continuous columns the alpha span is
    // immediately followed by its mode span, so iterate with an index.
    for (std::size_t si = 0; si < spans_.size(); ++si) {
        const OutputSpan& span = spans_[si];
        if (span.kind == SpanKind::category_onehot) {
            parallel_for(rows, 2048, [&](std::size_t begin, std::size_t end) {
                for (std::size_t r = begin; r < end; ++r) {
                    const auto id =
                        static_cast<std::size_t>(std::lround(table.value(r, span.column)));
                    KINET_CHECK(id < span.width, "transform: category out of range");
                    out(r, span.offset + id) = 1.0F;
                }
            });
        } else if (span.kind == SpanKind::continuous_alpha) {
            const OutputSpan& mode_span = spans_[si + 1];
            const Gmm1D& gmm = gmms_[span.column];
            const std::size_t k_count = gmm.component_count();

            // The per-row posterior computation (log/exp per component) is the
            // hot part and is embarrassingly parallel; the mode draws below
            // then consume the RNG strictly in row order, so the encoding is
            // bit-identical to a serial pass at any thread count.
            resp.assign(rows * k_count, 0.0);
            parallel_for(rows, 512, [&](std::size_t begin, std::size_t end) {
                for (std::size_t r = begin; r < end; ++r) {
                    const auto row_resp = gmm.responsibilities(table.value(r, span.column));
                    std::copy(row_resp.begin(), row_resp.end(), resp.begin() +
                              static_cast<std::ptrdiff_t>(r * k_count));
                }
            });

            for (std::size_t r = 0; r < rows; ++r) {
                const std::span<const double> row_resp(resp.data() + r * k_count, k_count);
                std::size_t k = 0;
                if (options_.sample_mode_assignment) {
                    k = rng.categorical(row_resp);
                } else {
                    for (std::size_t j = 1; j < k_count; ++j) {
                        if (row_resp[j] > row_resp[k]) {
                            k = j;
                        }
                    }
                }
                const float v = table.value(r, span.column);
                const auto& comp = gmm.component(k);
                const double alpha = std::clamp(
                    (static_cast<double>(v) - comp.mean) / (4.0 * comp.stddev), -1.0, 1.0);
                out(r, span.offset) = static_cast<float>(alpha);
                out(r, mode_span.offset + k) = 1.0F;
            }
        }
    }
    return out;
}

Table TableTransformer::inverse(const tensor::Matrix& encoded) const {
    Table out{schema_};
    tensor::Matrix raw;
    inverse_into(encoded, raw, out);
    return out;
}

void TableTransformer::inverse_into(const tensor::Matrix& encoded, tensor::Matrix& raw_scratch,
                                    Table& out) const {
    KINET_CHECK(is_fitted(), "TableTransformer::inverse before fit");
    KINET_CHECK(encoded.cols() == output_width_, "TableTransformer::inverse: width mismatch");
    KINET_CHECK(out.cols() == schema_.size(), "TableTransformer::inverse: table schema mismatch");
    raw_scratch.resize_for_overwrite(encoded.rows(), schema_.size());
    for (std::size_t r = 0; r < encoded.rows(); ++r) {
        const auto row = encoded.row(r);
        auto raw = raw_scratch.row(r);
        for (const auto& span : spans_) {
            switch (span.kind) {
            case SpanKind::category_onehot: {
                std::size_t best = 0;
                for (std::size_t j = 1; j < span.width; ++j) {
                    if (row[span.offset + j] > row[span.offset + best]) {
                        best = j;
                    }
                }
                raw[span.column] = static_cast<float>(best);
                break;
            }
            case SpanKind::continuous_alpha: {
                // Value reconstructed when we hit the paired mode span.
                break;
            }
            case SpanKind::mode_onehot: {
                std::size_t best = 0;
                for (std::size_t j = 1; j < span.width; ++j) {
                    if (row[span.offset + j] > row[span.offset + best]) {
                        best = j;
                    }
                }
                // lay_out_spans puts the column's alpha just before it.
                const double alpha =
                    std::clamp(static_cast<double>(row[span.offset - 1]), -1.0, 1.0);
                const auto& comp = gmms_[span.column].component(best);
                raw[span.column] = static_cast<float>(alpha * 4.0 * comp.stddev + comp.mean);
                break;
            }
            }
        }
    }
    out.overwrite_rows(raw_scratch);
}

const OutputSpan& TableTransformer::category_span(std::size_t column) const {
    for (const auto& s : spans_) {
        if (s.column == column && s.kind == SpanKind::category_onehot) {
            return s;
        }
    }
    throw Error("category_span: column " + std::to_string(column) + " is not categorical");
}

void TableTransformer::save(bytes::Writer& out) const {
    KINET_CHECK(is_fitted(), "TableTransformer::save before fit");
    save_schema(out, schema_);
    out.u64(spans_.size());
    for (const auto& span : spans_) {
        out.u64(span.column);
        out.u8(static_cast<std::uint8_t>(span.kind));
        out.u64(span.offset);
        out.u64(span.width);
    }
    out.u64(gmms_.size());
    for (const auto& gmm : gmms_) {
        gmm.save(out);
    }
    out.u64(output_width_);
    out.u64(options_.max_modes);
    out.u64(options_.gmm_iterations);
    out.boolean(options_.sample_mode_assignment);
}

TableTransformer TableTransformer::load(bytes::Reader& in) {
    TableTransformer tf;
    tf.schema_ = load_schema(in);
    // Each span record is 8 + 1 + 8 + 8 bytes; each GMM at least a count.
    const std::size_t span_count = in.element_count(25, "transformer spans");
    std::vector<OutputSpan> stored(span_count);
    for (auto& span : stored) {
        span.column = static_cast<std::size_t>(in.u64());
        const auto kind = in.u8();
        KINET_CHECK(kind <= static_cast<std::uint8_t>(SpanKind::category_onehot),
                    "TableTransformer::load: unknown span kind");
        span.kind = static_cast<SpanKind>(kind);
        span.offset = static_cast<std::size_t>(in.u64());
        span.width = static_cast<std::size_t>(in.u64());
    }
    const std::size_t gmm_count = in.element_count(8, "transformer gmms");
    KINET_CHECK(gmm_count == tf.schema_.size(),
                "TableTransformer::load: GMM count does not match schema");
    tf.gmms_.reserve(gmm_count);
    for (std::size_t g = 0; g < gmm_count; ++g) {
        tf.gmms_.push_back(Gmm1D::load(in));
    }
    const auto stored_width = static_cast<std::size_t>(in.u64());
    tf.options_.max_modes = static_cast<std::size_t>(in.u64());
    tf.options_.gmm_iterations = static_cast<std::size_t>(in.u64());
    tf.options_.sample_mode_assignment = in.boolean();
    // The stored spans repeat what the schema and GMMs determine.  Compare
    // them with that layout instead of range-checking each span: a span
    // whose offset + width wraps, or that overlaps, skips or leaves part
    // of the output, is rejected without any arithmetic on stored values.
    // Widths come from loaded containers, so their sum cannot overflow.
    tf.lay_out_spans();
    KINET_CHECK(stored == tf.spans_ && stored_width == tf.output_width_,
                "TableTransformer::load: spans do not tile the schema's encoding");
    for (const auto& span : tf.spans_) {
        KINET_CHECK(span.width > 0, "TableTransformer::load: empty span");
    }
    return tf;
}

const Gmm1D& TableTransformer::column_gmm(std::size_t column) const {
    KINET_CHECK(column < schema_.size() && !schema_[column].is_categorical(),
                "column_gmm: not a fitted continuous column");
    return gmms_[column];
}

void MinMaxTransformer::fit(const Table& table) {
    KINET_CHECK(table.rows() > 0, "MinMaxTransformer::fit: empty table");
    schema_ = table.schema();
    lo_.assign(schema_.size(), 0.0F);
    hi_.assign(schema_.size(), 1.0F);
    for (std::size_t c = 0; c < schema_.size(); ++c) {
        if (schema_[c].is_categorical()) {
            lo_[c] = 0.0F;
            hi_[c] = static_cast<float>(schema_[c].categories.size() - 1);
        } else {
            const auto values = table.column_values(c);
            const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
            lo_[c] = *mn;
            hi_[c] = *mx;
        }
        if (hi_[c] - lo_[c] < 1e-9F) {
            hi_[c] = lo_[c] + 1.0F;  // constant column: avoid divide-by-zero
        }
    }
}

tensor::Matrix MinMaxTransformer::transform(const Table& table) const {
    KINET_CHECK(is_fitted(), "MinMaxTransformer::transform before fit");
    KINET_CHECK(table.cols() == schema_.size(), "MinMaxTransformer: schema mismatch");
    tensor::Matrix out(table.rows(), schema_.size());
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t c = 0; c < schema_.size(); ++c) {
            const float v = table.value(r, c);
            out(r, c) = 2.0F * (v - lo_[c]) / (hi_[c] - lo_[c]) - 1.0F;
        }
    }
    return out;
}

Table MinMaxTransformer::inverse(const tensor::Matrix& encoded) const {
    KINET_CHECK(is_fitted(), "MinMaxTransformer::inverse before fit");
    KINET_CHECK(encoded.cols() == schema_.size(), "MinMaxTransformer::inverse: width mismatch");
    Table out{schema_};
    std::vector<float> raw(schema_.size());
    for (std::size_t r = 0; r < encoded.rows(); ++r) {
        for (std::size_t c = 0; c < schema_.size(); ++c) {
            const float clamped = std::clamp(encoded(r, c), -1.0F, 1.0F);
            float v = (clamped + 1.0F) * 0.5F * (hi_[c] - lo_[c]) + lo_[c];
            if (schema_[c].is_categorical()) {
                v = std::clamp(std::round(v), 0.0F,
                               static_cast<float>(schema_[c].categories.size() - 1));
            }
            raw[c] = v;
        }
        out.append_row(raw);
    }
    return out;
}

}  // namespace kinet::data
