// Inverted dropout: active only in training mode.
#ifndef KINETGAN_NN_DROPOUT_H
#define KINETGAN_NN_DROPOUT_H

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"

namespace kinet::nn {

class Dropout : public Module {
public:
    /// Drops activations with probability `p`; scales survivors by 1/(1-p).
    /// Each training forward keys its mask with one word of `rng`.
    Dropout(float p, Rng& rng);

    Matrix forward(const Matrix& input, bool training) override;
    Matrix backward(const Matrix& grad_out) override;
    /// Identity in eval mode; containers skip it entirely via
    /// inference_identity(), this copy only serves direct calls.
    void forward_inference(const Matrix& input, Matrix& out, InferenceContext& ctx) const override;
    [[nodiscard]] bool inference_identity() const override { return true; }

private:
    float p_;
    Rng* rng_;  // non-owning; the owning model outlives its layers
    Matrix mask_;
    bool used_mask_ = false;
};

}  // namespace kinet::nn

#endif  // KINETGAN_NN_DROPOUT_H
