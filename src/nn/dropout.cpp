#include "src/nn/dropout.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/philox.hpp"
#include "src/tensor/ops.hpp"

namespace kinet::nn {

Dropout::Dropout(float p, Rng& rng) : p_(p), rng_(&rng) {
    KINET_CHECK(p >= 0.0F && p < 1.0F, "Dropout: p must be in [0, 1)");
}

Matrix Dropout::forward(const Matrix& input, bool training) {
    if (!training || p_ == 0.0F) {
        used_mask_ = false;
        return input;
    }
    used_mask_ = true;
    // One word of the model's stream keys the mask; element (r, c) is
    // dropped iff its Philox word is below round(p * 2^32), so each word
    // decides one element with an integer compare.
    const std::size_t rows = input.rows();
    const std::size_t cols = input.cols();
    const std::vector<std::uint32_t> words = philox::matrix_words(rng_->engine()(), rows, cols);
    const std::size_t stride = philox::blocks_for(cols) * philox::kBlockWords;
    const auto threshold =
        static_cast<std::uint64_t>(std::llround(static_cast<double>(p_) * 0x1p32));
    const float keep_scale = 1.0F / (1.0F - p_);
    mask_.resize_for_overwrite(rows, cols);
    Matrix out = input;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint32_t* w = words.data() + r * stride;
        auto m = mask_.row(r);
        auto o = out.row(r);
        for (std::size_t c = 0; c < cols; ++c) {
            m[c] = w[c] >= threshold ? keep_scale : 0.0F;
            o[c] *= m[c];
        }
    }
    return out;
}

void Dropout::forward_inference(const Matrix& input, Matrix& out,
                                InferenceContext& /*ctx*/) const {
    out.resize_for_overwrite(input.rows(), input.cols());
    const auto x = input.data();
    auto y = out.data();
    std::copy(x.begin(), x.end(), y.begin());
}

Matrix Dropout::backward(const Matrix& grad_out) {
    if (!used_mask_) {
        return grad_out;
    }
    Matrix grad_in = grad_out;
    tensor::mul_inplace(grad_in, mask_);  // shape-checked inside
    return grad_in;
}

}  // namespace kinet::nn
