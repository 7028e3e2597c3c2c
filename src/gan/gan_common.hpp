// Shared GAN building blocks: network factories, the span-aware output
// activation (tanh for alpha spans, Gumbel-softmax for one-hot spans), the
// conditional BCE penalty BCE(C, Ĉ) from Sec. III-A-2, and adversarial loss
// helpers.
#ifndef KINETGAN_GAN_GAN_COMMON_H
#define KINETGAN_GAN_GAN_COMMON_H

#include <memory>
#include <vector>

#include "src/data/transformer.hpp"
#include "src/gan/cond_vector.hpp"
#include "src/nn/nn.hpp"

namespace kinet::gan {

/// Hyperparameters shared by the GAN-family models.
struct GanOptions {
    std::size_t epochs = 60;
    std::size_t batch_size = 128;
    std::size_t noise_dim = 64;
    std::size_t hidden_dim = 128;
    std::size_t hidden_layers = 2;
    // Higher than the CTGAN-paper 2e-4: this codebase trains for tens of
    // epochs on ~10^4-row tables, and at 2e-4 Adam cannot grow the logit
    // gaps the Gumbel-softmax spans need (verified by the conditional-copy
    // adherence metric).
    float lr_generator = 1e-3F;
    float lr_discriminator = 1e-3F;
    float adam_beta1 = 0.5F;
    float adam_beta2 = 0.9F;
    float gumbel_tau = 0.2F;
    float dropout = 0.25F;
    float grad_clip = 5.0F;
    std::uint64_t seed = 42;
};

/// Final generator layer: applies tanh to continuous-alpha dimensions and
/// Gumbel-softmax to every one-hot span.  Differentiable; fresh Gumbel noise
/// is drawn per forward pass.
class OutputActivation : public nn::Module {
public:
    OutputActivation(std::vector<data::OutputSpan> spans, float tau, Rng& rng);

    nn::Matrix forward(const nn::Matrix& input, bool training) override;
    nn::Matrix backward(const nn::Matrix& grad_out) override;

    /// Fills `noise` with the Gumbel matrix forward would draw for an
    /// x.rows() x x.cols() batch, from the caller's stream.
    void draw_noise(std::size_t rows, std::size_t cols, Rng& rng, nn::Matrix& noise) const;

    /// In-place inference twin of forward() over pre-drawn noise: applies
    /// the span activations to `x`, reading `noise` only in the softmax
    /// spans.  Const and cache-free, so one activation serves any number
    /// of concurrent samplers.
    void apply_spans(nn::Matrix& x, const nn::Matrix& noise) const;

private:
    std::vector<data::OutputSpan> spans_;
    float tau_;
    Rng* rng_;
    nn::Matrix cached_output_;
};

/// Generator trunk: [Linear -> BatchNorm -> ReLU] x layers -> Linear(out).
[[nodiscard]] std::unique_ptr<nn::Sequential> make_generator_trunk(std::size_t in_dim,
                                                                   std::size_t hidden_dim,
                                                                   std::size_t layers,
                                                                   std::size_t out_dim, Rng& rng);

/// Discriminator: [Linear -> LeakyReLU -> Dropout] x layers -> Linear(1).
[[nodiscard]] std::unique_ptr<nn::Sequential> make_discriminator(std::size_t in_dim,
                                                                 std::size_t hidden_dim,
                                                                 std::size_t layers, float dropout,
                                                                 Rng& rng);

/// BCE(C, Ĉ) (Sec. III-A-2): Ĉ is read from the generator output's category
/// spans for the conditional columns.  Returns the loss and a full-width
/// gradient (zero outside the conditional spans).  `span_for_block[p]` maps
/// the p-th conditional block to the matching category span of the output.
struct CondPenaltyResult {
    double value = 0.0;
    nn::Matrix grad;  // w.r.t. generator output
};
[[nodiscard]] CondPenaltyResult cond_bce_penalty(
    const nn::Matrix& gen_output, const nn::Matrix& cond, const CondVectorBuilder& builder,
    const std::vector<data::OutputSpan>& span_for_block);

/// The training-stable realisation of the conditional copy penalty: softmax
/// cross-entropy between each conditional block of C and the matching span of
/// the generator's *pre-activation logits* (this is how CTGAN implements the
/// term; the post-Gumbel output saturates and starves the gradient).
/// Returns the loss and gradient w.r.t. the logits (zero outside the spans).
[[nodiscard]] CondPenaltyResult cond_ce_on_logits(
    const nn::Matrix& gen_logits, const nn::Matrix& cond, const CondVectorBuilder& builder,
    const std::vector<data::OutputSpan>& span_for_block);

/// Fraction of rows whose generated conditional attributes (argmax per span)
/// equal the requested condition — a training-health metric.
[[nodiscard]] double cond_adherence_rate(const nn::Matrix& gen_output, const nn::Matrix& cond,
                                         const CondVectorBuilder& builder,
                                         const std::vector<data::OutputSpan>& span_for_block);

/// A rows x cols matrix of N(0,1) noise: one word of `rng` keys a Philox
/// draw (philox::matrix_words) and row r is philox::normals of its words.
[[nodiscard]] nn::Matrix sample_noise(std::size_t rows, std::size_t cols, Rng& rng);

/// Binary targets helper (constant matrix).
[[nodiscard]] nn::Matrix constant_targets(std::size_t rows, float value);

/// Resolves, for each conditional block, the generator-output category span
/// of the same table column.  Throws if a conditional column is continuous.
[[nodiscard]] std::vector<data::OutputSpan> category_spans_for_blocks(
    const data::TableTransformer& transformer, const CondVectorBuilder& builder);

}  // namespace kinet::gan

#endif  // KINETGAN_GAN_GAN_COMMON_H
