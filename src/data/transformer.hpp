// Table <-> model-space encodings.
//
// TableTransformer implements the CTGAN representation: each continuous
// column becomes [alpha, mode one-hot] via mode-specific normalization
// (Gmm1D), each categorical column becomes a one-hot block.  MinMaxTransformer
// implements the simpler TableGAN representation (everything scaled to
// [-1, 1], categoricals as ordinal codes).
#ifndef KINETGAN_DATA_TRANSFORMER_H
#define KINETGAN_DATA_TRANSFORMER_H

#include <vector>

#include "src/data/gmm.hpp"
#include "src/data/table.hpp"

namespace kinet::data {

enum class SpanKind {
    continuous_alpha,  // 1 column: normalised scalar in [-1, 1]
    mode_onehot,       // one-hot over GMM modes of a continuous column
    category_onehot,   // one-hot over categories of a categorical column
};

/// Describes one contiguous block of the encoded representation.
struct OutputSpan {
    std::size_t column = 0;  // source column in the table
    SpanKind kind = SpanKind::continuous_alpha;
    std::size_t offset = 0;  // first encoded dimension
    std::size_t width = 0;   // number of encoded dimensions

    bool operator==(const OutputSpan&) const = default;
};

struct TransformerOptions {
    std::size_t max_modes = 5;       // GMM components per continuous column
    std::size_t gmm_iterations = 40;
    bool sample_mode_assignment = true;  // sample vs argmax posterior mode
};

/// CTGAN-style encoder/decoder with mode-specific normalization.
class TableTransformer {
public:
    TableTransformer() = default;

    /// Learns the encoding (GMMs per continuous column) from data.
    void fit(const Table& table, const TransformerOptions& options, Rng& rng);

    /// Encodes rows to model space.  Mode assignment may be stochastic
    /// (options.sample_mode_assignment), hence the Rng.
    [[nodiscard]] tensor::Matrix transform(const Table& table, Rng& rng) const;

    /// Decodes model-space rows back to a Table (argmax over one-hot spans,
    /// alpha clamped to [-1, 1]).
    [[nodiscard]] Table inverse(const tensor::Matrix& encoded) const;

    /// inverse() into caller-owned buffers: `raw_scratch` holds the decoded
    /// numeric rows, `out` (which must carry this transformer's schema) is
    /// overwritten with them.  Both are reused across calls, so a warm
    /// streaming decode loop allocates nothing.  Decoded values are
    /// bitwise-identical to inverse().
    void inverse_into(const tensor::Matrix& encoded, tensor::Matrix& raw_scratch,
                      Table& out) const;

    [[nodiscard]] std::size_t output_width() const noexcept { return output_width_; }
    [[nodiscard]] const std::vector<OutputSpan>& spans() const noexcept { return spans_; }
    [[nodiscard]] const std::vector<ColumnMeta>& schema() const noexcept { return schema_; }
    [[nodiscard]] bool is_fitted() const noexcept { return !schema_.empty(); }

    /// The one-hot span of a categorical column; throws if not categorical.
    [[nodiscard]] const OutputSpan& category_span(std::size_t column) const;

    /// The fitted mixture of a continuous column (for likelihood fitness).
    [[nodiscard]] const Gmm1D& column_gmm(std::size_t column) const;

    /// Fitted-state serialization for model snapshots.
    void save(bytes::Writer& out) const;
    [[nodiscard]] static TableTransformer load(bytes::Reader& in);

private:
    /// Builds spans_ and output_width_ from schema_ and gmms_: column by
    /// column, a categorical column's one-hot block, or a continuous
    /// column's alpha dimension followed by its mode one-hot block.  The
    /// spans therefore tile [0, output_width_) in order, and each mode
    /// span's alpha is the dimension just before it.
    void lay_out_spans();

    std::vector<ColumnMeta> schema_;
    std::vector<OutputSpan> spans_;
    std::vector<Gmm1D> gmms_;  // indexed by column; empty Gmm1D for categorical
    std::size_t output_width_ = 0;
    TransformerOptions options_;
};

/// TableGAN-style min-max encoder: every column mapped linearly to [-1, 1];
/// categorical columns use their ordinal index.  Decoding rounds ordinals.
class MinMaxTransformer {
public:
    void fit(const Table& table);
    [[nodiscard]] tensor::Matrix transform(const Table& table) const;
    [[nodiscard]] Table inverse(const tensor::Matrix& encoded) const;
    [[nodiscard]] std::size_t output_width() const noexcept { return schema_.size(); }
    [[nodiscard]] bool is_fitted() const noexcept { return !schema_.empty(); }

private:
    std::vector<ColumnMeta> schema_;
    std::vector<float> lo_;
    std::vector<float> hi_;
};

}  // namespace kinet::data

#endif  // KINETGAN_DATA_TRANSFORMER_H
