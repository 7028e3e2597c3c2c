#include "src/nn/gumbel.hpp"

#include <cmath>

#include "src/common/check.hpp"
#include "src/common/philox.hpp"
#include "src/tensor/ops.hpp"

namespace kinet::nn {

Matrix gumbel_noise(std::size_t rows, std::size_t cols, Rng& rng) {
    const std::vector<std::uint32_t> words = philox::matrix_words(rng.engine()(), rows, cols);
    const std::size_t stride = philox::blocks_for(cols) * philox::kBlockWords;
    Matrix out;
    out.resize_for_overwrite(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        philox::gumbels(words.data() + r * stride, cols, out.row(r).data());
    }
    return out;
}

void gumbel_softmax_forward_span(Matrix& logits, const Matrix& noise, std::size_t begin,
                                 std::size_t end, float tau) {
    KINET_CHECK(tau > 0.0F, "gumbel softmax: tau must be positive");
    KINET_CHECK(noise.rows() == logits.rows() && noise.cols() == logits.cols(),
                "gumbel softmax: noise shape mismatch");
    KINET_CHECK(begin < end && end <= logits.cols(), "gumbel softmax: bad span");
    const float inv_tau = 1.0F / tau;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        auto row = logits.row(r);
        const auto nrow = noise.row(r);
        for (std::size_t c = begin; c < end; ++c) {
            row[c] = (row[c] + nrow[c]) * inv_tau;
        }
    }
    tensor::softmax_rows_inplace(logits, begin, end);
}

void gumbel_softmax_backward_span(const Matrix& y, const Matrix& grad_y, Matrix& grad_logits,
                                  std::size_t begin, std::size_t end, float tau) {
    KINET_CHECK(begin < end && end <= y.cols(), "gumbel softmax backward: bad span");
    KINET_CHECK(grad_y.rows() == y.rows() && grad_y.cols() == y.cols(),
                "gumbel softmax backward: grad shape mismatch");
    KINET_CHECK(grad_logits.rows() == y.rows() && grad_logits.cols() == y.cols(),
                "gumbel softmax backward: output shape mismatch");
    const float inv_tau = 1.0F / tau;
    for (std::size_t r = 0; r < y.rows(); ++r) {
        const auto yrow = y.row(r);
        const auto grow = grad_y.row(r);
        auto out = grad_logits.row(r);
        float dot = 0.0F;
        for (std::size_t c = begin; c < end; ++c) {
            dot += grow[c] * yrow[c];
        }
        for (std::size_t c = begin; c < end; ++c) {
            out[c] = yrow[c] * (grow[c] - dot) * inv_tau;
        }
    }
}

}  // namespace kinet::nn
