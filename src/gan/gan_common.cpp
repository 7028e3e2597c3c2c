#include "src/gan/gan_common.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/philox.hpp"

namespace kinet::gan {

OutputActivation::OutputActivation(std::vector<data::OutputSpan> spans, float tau, Rng& rng)
    : spans_(std::move(spans)), tau_(tau), rng_(&rng) {
    KINET_CHECK(!spans_.empty(), "OutputActivation: no spans");
}

nn::Matrix OutputActivation::forward(const nn::Matrix& input, bool /*training*/) {
    nn::Matrix out = input;
    // Categorical spans: Gumbel-softmax with fresh noise (sampling is part of
    // generation, so noise is drawn in both training and inference).
    nn::Matrix noise = nn::gumbel_noise(input.rows(), input.cols(), *rng_);
    for (const auto& span : spans_) {
        switch (span.kind) {
        case data::SpanKind::continuous_alpha:
            for (std::size_t r = 0; r < out.rows(); ++r) {
                out(r, span.offset) = std::tanh(out(r, span.offset));
            }
            break;
        case data::SpanKind::mode_onehot:
        case data::SpanKind::category_onehot:
            nn::gumbel_softmax_forward_span(out, noise, span.offset, span.offset + span.width,
                                            tau_);
            break;
        }
    }
    cached_output_ = out;
    return out;
}

void OutputActivation::draw_noise(std::size_t rows, std::size_t cols, Rng& rng,
                                  nn::Matrix& noise) const {
    // Same stream consumption as forward(): one key word, the full matrix.
    noise = nn::gumbel_noise(rows, cols, rng);
}

void OutputActivation::apply_spans(nn::Matrix& x, const nn::Matrix& noise) const {
    KINET_CHECK(noise.rows() == x.rows() && noise.cols() == x.cols(),
                "OutputActivation: noise shape mismatch");
    for (const auto& span : spans_) {
        switch (span.kind) {
        case data::SpanKind::continuous_alpha:
            for (std::size_t r = 0; r < x.rows(); ++r) {
                x(r, span.offset) = std::tanh(x(r, span.offset));
            }
            break;
        case data::SpanKind::mode_onehot:
        case data::SpanKind::category_onehot:
            nn::gumbel_softmax_forward_span(x, noise, span.offset, span.offset + span.width,
                                            tau_);
            break;
        }
    }
}

nn::Matrix OutputActivation::backward(const nn::Matrix& grad_out) {
    KINET_CHECK(grad_out.rows() == cached_output_.rows() &&
                    grad_out.cols() == cached_output_.cols(),
                "OutputActivation: grad shape mismatch");
    nn::Matrix grad_in(grad_out.rows(), grad_out.cols());
    for (const auto& span : spans_) {
        switch (span.kind) {
        case data::SpanKind::continuous_alpha:
            for (std::size_t r = 0; r < grad_in.rows(); ++r) {
                const float y = cached_output_(r, span.offset);
                grad_in(r, span.offset) = grad_out(r, span.offset) * (1.0F - y * y);
            }
            break;
        case data::SpanKind::mode_onehot:
        case data::SpanKind::category_onehot:
            nn::gumbel_softmax_backward_span(cached_output_, grad_out, grad_in, span.offset,
                                             span.offset + span.width, tau_);
            break;
        }
    }
    return grad_in;
}

std::unique_ptr<nn::Sequential> make_generator_trunk(std::size_t in_dim, std::size_t hidden_dim,
                                                     std::size_t layers, std::size_t out_dim,
                                                     Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    std::size_t cur = in_dim;
    for (std::size_t i = 0; i < layers; ++i) {
        net->emplace<nn::Linear>(cur, hidden_dim, rng, "g.fc" + std::to_string(i));
        net->emplace<nn::BatchNorm1d>(hidden_dim);
        net->emplace<nn::ReLU>();
        cur = hidden_dim;
    }
    net->emplace<nn::Linear>(cur, out_dim, rng, "g.out");
    return net;
}

std::unique_ptr<nn::Sequential> make_discriminator(std::size_t in_dim, std::size_t hidden_dim,
                                                   std::size_t layers, float dropout, Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    std::size_t cur = in_dim;
    for (std::size_t i = 0; i < layers; ++i) {
        net->emplace<nn::Linear>(cur, hidden_dim, rng, "d.fc" + std::to_string(i));
        net->emplace<nn::LeakyReLU>(0.2F);
        if (dropout > 0.0F) {
            net->emplace<nn::Dropout>(dropout, rng);
        }
        cur = hidden_dim;
    }
    net->emplace<nn::Linear>(cur, 1, rng, "d.out");
    return net;
}

CondPenaltyResult cond_bce_penalty(const nn::Matrix& gen_output, const nn::Matrix& cond,
                                   const CondVectorBuilder& builder,
                                   const std::vector<data::OutputSpan>& span_for_block) {
    KINET_CHECK(span_for_block.size() == builder.block_count(),
                "cond_bce_penalty: block/span count mismatch");
    KINET_CHECK(cond.rows() == gen_output.rows(), "cond_bce_penalty: batch mismatch");

    CondPenaltyResult res;
    res.grad.resize(gen_output.rows(), gen_output.cols());
    double total = 0.0;
    std::size_t count = 0;
    constexpr double kEps = 1e-7;

    for (std::size_t p = 0; p < builder.block_count(); ++p) {
        const auto& span = span_for_block[p];
        const std::size_t c_off = builder.block_offset(p);
        KINET_CHECK(span.width == builder.block_width(p),
                    "cond_bce_penalty: block width mismatch");
        for (std::size_t r = 0; r < gen_output.rows(); ++r) {
            for (std::size_t j = 0; j < span.width; ++j) {
                const double c = cond(r, c_off + j);
                const double y =
                    std::min(std::max(static_cast<double>(gen_output(r, span.offset + j)), kEps),
                             1.0 - kEps);
                total += -(c * std::log(y) + (1.0 - c) * std::log(1.0 - y));
                res.grad(r, span.offset + j) = static_cast<float>((-c / y + (1.0 - c) / (1.0 - y)));
                ++count;
            }
        }
    }
    KINET_CHECK(count > 0, "cond_bce_penalty: no conditional dimensions");
    const double inv = 1.0 / static_cast<double>(count);
    res.value = total * inv;
    res.grad *= static_cast<float>(inv);
    return res;
}

CondPenaltyResult cond_ce_on_logits(const nn::Matrix& gen_logits, const nn::Matrix& cond,
                                    const CondVectorBuilder& builder,
                                    const std::vector<data::OutputSpan>& span_for_block) {
    KINET_CHECK(span_for_block.size() == builder.block_count(),
                "cond_ce_on_logits: block/span count mismatch");
    KINET_CHECK(cond.rows() == gen_logits.rows(), "cond_ce_on_logits: batch mismatch");

    CondPenaltyResult res;
    res.grad.resize(gen_logits.rows(), gen_logits.cols());
    double total = 0.0;
    std::size_t terms = 0;

    for (std::size_t p = 0; p < builder.block_count(); ++p) {
        const auto& span = span_for_block[p];
        const std::size_t c_off = builder.block_offset(p);
        KINET_CHECK(span.width == builder.block_width(p), "cond_ce_on_logits: width mismatch");
        for (std::size_t r = 0; r < gen_logits.rows(); ++r) {
            // Target = the hot entry of this block (skip unconditioned blocks).
            std::size_t target = span.width;
            for (std::size_t j = 0; j < span.width; ++j) {
                if (cond(r, c_off + j) > 0.5F) {
                    target = j;
                    break;
                }
            }
            if (target == span.width) {
                continue;
            }
            // Stable softmax CE over the logits span.
            double mx = gen_logits(r, span.offset);
            for (std::size_t j = 1; j < span.width; ++j) {
                mx = std::max(mx, static_cast<double>(gen_logits(r, span.offset + j)));
            }
            double denom = 0.0;
            for (std::size_t j = 0; j < span.width; ++j) {
                denom += std::exp(static_cast<double>(gen_logits(r, span.offset + j)) - mx);
            }
            const double log_denom = std::log(denom) + mx;
            total += log_denom - static_cast<double>(gen_logits(r, span.offset + target));
            for (std::size_t j = 0; j < span.width; ++j) {
                const double prob =
                    std::exp(static_cast<double>(gen_logits(r, span.offset + j)) - log_denom);
                res.grad(r, span.offset + j) =
                    static_cast<float>(prob - ((j == target) ? 1.0 : 0.0));
            }
            ++terms;
        }
    }
    KINET_CHECK(terms > 0, "cond_ce_on_logits: no conditioned blocks");
    const double inv = 1.0 / static_cast<double>(terms);
    res.value = total * inv;
    res.grad *= static_cast<float>(inv);
    return res;
}

double cond_adherence_rate(const nn::Matrix& gen_output, const nn::Matrix& cond,
                           const CondVectorBuilder& builder,
                           const std::vector<data::OutputSpan>& span_for_block) {
    KINET_CHECK(span_for_block.size() == builder.block_count(),
                "cond_adherence_rate: block/span count mismatch");
    std::size_t hits = 0;
    std::size_t total = 0;
    for (std::size_t r = 0; r < gen_output.rows(); ++r) {
        for (std::size_t p = 0; p < builder.block_count(); ++p) {
            const auto& span = span_for_block[p];
            const std::size_t c_off = builder.block_offset(p);
            // Requested value (if this block is conditioned at all).
            std::size_t requested = span.width;
            for (std::size_t j = 0; j < span.width; ++j) {
                if (cond(r, c_off + j) > 0.5F) {
                    requested = j;
                    break;
                }
            }
            if (requested == span.width) {
                continue;  // unconditioned block (anchor-only encoding)
            }
            std::size_t got = 0;
            for (std::size_t j = 1; j < span.width; ++j) {
                if (gen_output(r, span.offset + j) > gen_output(r, span.offset + got)) {
                    got = j;
                }
            }
            hits += (got == requested) ? 1 : 0;
            ++total;
        }
    }
    return (total == 0) ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

nn::Matrix sample_noise(std::size_t rows, std::size_t cols, Rng& rng) {
    const std::vector<std::uint32_t> words = philox::matrix_words(rng.engine()(), rows, cols);
    const std::size_t stride = philox::blocks_for(cols) * philox::kBlockWords;
    nn::Matrix z;
    z.resize_for_overwrite(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        philox::normals(words.data() + r * stride, cols, z.row(r).data());
    }
    return z;
}

nn::Matrix constant_targets(std::size_t rows, float value) {
    return nn::Matrix(rows, 1, value);
}

std::vector<data::OutputSpan> category_spans_for_blocks(const data::TableTransformer& transformer,
                                                        const CondVectorBuilder& builder) {
    std::vector<data::OutputSpan> out;
    out.reserve(builder.block_count());
    for (std::size_t p = 0; p < builder.block_count(); ++p) {
        out.push_back(transformer.category_span(builder.cond_columns()[p]));
    }
    return out;
}

}  // namespace kinet::gan
