// Gumbel-softmax primitives for differentiable categorical sampling
// (Jang et al., 2017) — the output activation CTGAN-style generators use for
// one-hot spans.
#ifndef KINETGAN_NN_GUMBEL_H
#define KINETGAN_NN_GUMBEL_H

#include "src/common/rng.hpp"
#include "src/tensor/matrix.hpp"

namespace kinet::nn {

using tensor::Matrix;

/// A rows x cols matrix of iid Gumbel(0,1) noise: one word of `rng` keys
/// a Philox draw (philox::matrix_words) and row r is philox::gumbels of
/// its own words, so the values do not depend on libm or <random>.
[[nodiscard]] Matrix gumbel_noise(std::size_t rows, std::size_t cols, Rng& rng);

/// In-place forward over columns [begin, end):
///   y = softmax((logits + noise) / tau)  per row.
/// `noise` must have the same shape as `logits` (only the span is read).
void gumbel_softmax_forward_span(Matrix& logits, const Matrix& noise, std::size_t begin,
                                 std::size_t end, float tau);

/// Backward for the same span: given the forward output y and dL/dy,
/// accumulates dL/dlogits into grad_logits (same shapes).
void gumbel_softmax_backward_span(const Matrix& y, const Matrix& grad_y, Matrix& grad_logits,
                                  std::size_t begin, std::size_t end, float tau);

}  // namespace kinet::nn

#endif  // KINETGAN_NN_GUMBEL_H
