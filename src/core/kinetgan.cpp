#include "src/core/kinetgan.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/philox.hpp"
#include "src/common/stopwatch.hpp"
#include "src/tensor/ops.hpp"

namespace kinet::core {

using nn::Matrix;

KiNetGan::KiNetGan(kg::ValidityOracle oracle, std::vector<std::size_t> cond_columns,
                   KiNetGanOptions options)
    : oracle_(std::move(oracle)),
      cond_columns_(std::move(cond_columns)),
      options_(options),
      rng_(options.gan.seed) {
    KINET_CHECK(!cond_columns_.empty(), "KiNetGan: need conditional columns");
}

void KiNetGan::fit(const data::Table& table) { fit(table, FitObserver{}); }

void KiNetGan::fit(const data::Table& table, const FitObserver& observer) {
    Stopwatch watch;
    // A re-fit overwrites all trained state below; drop the fitted flag
    // first so an aborted (cancelled/thrown) fit leaves the model unfitted
    // rather than half-overwritten-but-sampleable.
    fitted_ = false;
    schema_ = table.schema();

    // --- encodings -----------------------------------------------------
    transformer_.fit(table, options_.transformer, rng_);
    const Matrix encoded = transformer_.transform(table, rng_);

    sampler_ = std::make_unique<data::ConditionalSampler>(table, cond_columns_, options_.sampler);
    cond_builder_ = std::make_unique<gan::CondVectorBuilder>(schema_, cond_columns_);
    cond_spans_ = gan::category_spans_for_blocks(transformer_, *cond_builder_);

    // --- knowledge-guided discriminator inputs --------------------------
    init_kg_state();

    // --- networks --------------------------------------------------------
    build_networks();

    const auto& g = options_.gan;
    nn::Adam g_opt(g_trunk_->parameters(), g.lr_generator, g.adam_beta1, g.adam_beta2);
    nn::Adam d_opt(d_main_->parameters(), g.lr_discriminator, g.adam_beta1, g.adam_beta2);
    std::unique_ptr<nn::Adam> dkg_opt;
    if (d_kg_ != nullptr) {
        dkg_opt = std::make_unique<nn::Adam>(d_kg_->parameters(), g.lr_discriminator, g.adam_beta1,
                                             g.adam_beta2);
    }

    const std::size_t batch = std::min<std::size_t>(g.batch_size, table.rows());
    const std::size_t steps = std::max<std::size_t>(1, table.rows() / batch);

    report_ = gan::FitReport{};

    for (std::size_t epoch = 0; epoch < g.epochs; ++epoch) {
        double g_loss_acc = 0.0;
        double d_loss_acc = 0.0;
        double adherence_acc = 0.0;

        for (std::size_t step = 0; step < steps; ++step) {
            // ---- draw conditions + matching real rows ----
            std::vector<data::CondDraw> draws;
            draws.reserve(batch);
            std::vector<std::size_t> real_rows;
            real_rows.reserve(batch);
            for (std::size_t b = 0; b < batch; ++b) {
                draws.push_back(options_.use_minority_resampling ? sampler_->draw(rng_)
                                                                 : sampler_->draw_empirical(rng_));
                real_rows.push_back(draws.back().row);
            }
            const Matrix cond = cond_builder_->encode(draws);
            const Matrix real = encoded.gather_rows(real_rows);

            // ---- D_M step ----
            d_main_->zero_grad();
            Matrix z = gan::sample_noise(batch, g.noise_dim, rng_);
            Matrix fake = g_act_->forward(g_trunk_->forward(Matrix::hcat(z, cond), true), true);

            Matrix d_real_logits = d_main_->forward(Matrix::hcat(real, cond), true);
            auto real_loss = nn::bce_with_logits(d_real_logits, gan::constant_targets(batch, 1.0F));
            (void)d_main_->backward(real_loss.grad);

            Matrix d_fake_logits = d_main_->forward(Matrix::hcat(fake, cond), true);
            auto fake_loss = nn::bce_with_logits(d_fake_logits, gan::constant_targets(batch, 0.0F));
            (void)d_main_->backward(fake_loss.grad);

            nn::clip_grad_norm(d_main_->parameters(), g.grad_clip);
            d_opt.step();
            d_loss_acc += real_loss.value + fake_loss.value;

            // ---- D_KG step ----
            // A *conditional* validity discriminator over [attrs ⊕ C]
            // (Sec. III-B: its positives are "all valid sets of attributes
            // for the conditional vector C queried from the knowledge
            // graph").  Negatives pair the same C with oracle-rejected
            // tuples and with valid-but-mismatched completions; generator
            // outputs are labelled by the oracle, not blanket-"fake".
            if (d_kg_ != nullptr) {
                d_kg_->zero_grad();
                Matrix kg_pos = Matrix::hcat(kg_positive_batch(draws), cond);
                Matrix pos_logits = d_kg_->forward(kg_pos, true);
                auto pos_loss =
                    nn::bce_with_logits(pos_logits, gan::constant_targets(batch, 1.0F));
                (void)d_kg_->backward(pos_loss.grad);

                Matrix kg_neg = Matrix::hcat(kg_negative_batch(draws), cond);
                Matrix neg_logits = d_kg_->forward(kg_neg, true);
                auto neg_loss =
                    nn::bce_with_logits(neg_logits, gan::constant_targets(batch, 0.0F));
                (void)d_kg_->backward(neg_loss.grad);

                Matrix fake_attrs = extract_kg_attrs(fake);
                Matrix fake_targets(batch, 1);
                for (std::size_t b = 0; b < batch; ++b) {
                    fake_targets(b, 0) = row_valid_and_consistent(fake, b, draws[b]) ? 1.0F : 0.0F;
                }
                Matrix fk_logits = d_kg_->forward(Matrix::hcat(fake_attrs, cond), true);
                auto fk_loss = nn::bce_with_logits(fk_logits, fake_targets);
                (void)d_kg_->backward(fk_loss.grad);

                nn::clip_grad_norm(d_kg_->parameters(), g.grad_clip);
                dkg_opt->step();
                d_loss_acc += pos_loss.value + neg_loss.value + fk_loss.value;
            }

            // ---- G step (Eq. 4 with non-saturating adversarial terms) ----
            g_trunk_->zero_grad();
            z = gan::sample_noise(batch, g.noise_dim, rng_);
            Matrix fake_logits = g_trunk_->forward(Matrix::hcat(z, cond), true);
            fake = g_act_->forward(fake_logits, true);

            Matrix grad_output(batch, fake.cols());  // w.r.t. activated output
            double g_loss = 0.0;

            // Combined discriminator D_C = D_KG + D_M (Eq. 3), realised as a
            // sum of per-discriminator losses: summing raw logits saturates
            // the joint sigmoid early in training (D_KG is strongly negative
            // on invalid fakes), which blows up the shared gradient and —
            // after clipping — drowns the conditional term.
            d_main_->zero_grad();
            Matrix dm_logits = d_main_->forward(Matrix::hcat(fake, cond), true);
            auto adv = nn::bce_with_logits(dm_logits, gan::constant_targets(batch, 1.0F));
            Matrix grad_dm_in = d_main_->backward(adv.grad);
            d_main_->zero_grad();  // discard generator-pass gradients
            grad_output += grad_dm_in.slice_cols(0, fake.cols());
            g_loss += adv.value;

            // D_KG contribution: (a) through the activation like any other
            // adversarial gradient, and (b) a straight-through corrective
            // term on the logits — the Gumbel-softmax Jacobian vanishes on
            // near-one-hot spans, so without (b) the validity signal never
            // reaches the trunk.  The correction is masked twice: only rows
            // whose decoded attributes are invalid, and only spans that are
            // NOT conditioned (the conditional copy already owns those), so
            // the validity pull can never fight the condition.
            Matrix kg_grad_logits(batch, fake.cols());
            if (d_kg_ != nullptr) {
                d_kg_->zero_grad();
                Matrix fake_attrs = extract_kg_attrs(fake);
                Matrix dkg_logits = d_kg_->forward(Matrix::hcat(fake_attrs, cond), true);
                auto kg_adv = nn::bce_with_logits(dkg_logits, gan::constant_targets(batch, 1.0F));
                g_loss += options_.kg_weight * kg_adv.value;
                Matrix kg_grad = kg_adv.grad;
                kg_grad *= options_.kg_weight;
                Matrix grad_in = d_kg_->backward(kg_grad);
                d_kg_->zero_grad();
                Matrix grad_attrs = grad_in.slice_cols(0, kg_input_width_);

                // Conditioned attribute spans belong to the conditional copy
                // penalty — zero them so the validity pull can never fight
                // the condition; D_KG adjusts only the free attributes.
                std::size_t off = 0;
                for (std::size_t a = 0; a < kg_columns_.size(); ++a) {
                    if (kg_attr_cond_pos_[a] != static_cast<std::size_t>(-1)) {
                        for (std::size_t b = 0; b < batch; ++b) {
                            for (std::size_t j = 0; j < kg_spans_[a].width; ++j) {
                                grad_attrs(b, off + j) = 0.0F;
                            }
                        }
                    }
                    off += kg_spans_[a].width;
                }
                scatter_kg_grad(grad_attrs, grad_output);

                // Straight-through correction for rows that decode to an
                // invalid or condition-inconsistent tuple — the
                // Gumbel-softmax Jacobian vanishes on crisp spans and would
                // otherwise swallow the signal.
                Matrix st_grad = grad_attrs;
                for (std::size_t b = 0; b < batch; ++b) {
                    if (row_valid_and_consistent(fake, b, draws[b])) {
                        for (std::size_t j = 0; j < st_grad.cols(); ++j) {
                            st_grad(b, j) = 0.0F;
                        }
                    }
                }
                scatter_kg_grad(st_grad, kg_grad_logits);
            }

            // Pull the adversarial gradients back through the activation,
            // then add the straight-through KG term and the conditional copy
            // penalty on the raw logits (BCE(C, Ĉ) in its training-stable
            // softmax-CE form).
            Matrix grad_logits = g_act_->backward(grad_output);
            grad_logits += kg_grad_logits;
            if (options_.use_cond_penalty) {
                auto pen = gan::cond_ce_on_logits(fake_logits, cond, *cond_builder_, cond_spans_);
                pen.grad *= options_.cond_penalty_weight;
                grad_logits += pen.grad;
                g_loss += options_.cond_penalty_weight * pen.value;
            }

            (void)g_trunk_->backward(grad_logits);
            nn::clip_grad_norm(g_trunk_->parameters(), g.grad_clip);
            g_opt.step();
            g_loss_acc += g_loss;

            adherence_acc += gan::cond_adherence_rate(fake, cond, *cond_builder_, cond_spans_);
        }

        report_.generator_loss.push_back(g_loss_acc / static_cast<double>(steps));
        report_.discriminator_loss.push_back(d_loss_acc / static_cast<double>(steps));
        last_adherence_ = adherence_acc / static_cast<double>(steps);

        if (observer && !observer(epoch + 1, g.epochs)) {
            throw Error("KiNetGan::fit: cancelled after epoch " + std::to_string(epoch + 1) +
                        "/" + std::to_string(g.epochs));
        }
    }

    report_.seconds = watch.seconds();
    fitted_ = true;
}

void KiNetGan::init_kg_state() {
    kg_columns_.clear();
    kg_spans_.clear();
    kg_input_width_ = 0;
    if (!options_.use_kg_discriminator) {
        return;
    }
    for (const auto& attr : oracle_.attribute_names()) {
        const std::size_t col = column_index_in_schema(attr);
        KINET_CHECK(schema_[col].is_categorical(),
                    "KiNetGan: oracle attribute " + attr + " must be categorical");
        kg_columns_.push_back(col);
        kg_spans_.push_back(transformer_.category_span(col));
        kg_input_width_ += kg_spans_.back().width;
    }
    const auto& tuples = oracle_.valid_tuples();
    KINET_CHECK(!tuples.empty(), "KiNetGan: oracle enumerates no valid tuples");

    kg_attr_cond_pos_.assign(kg_columns_.size(), static_cast<std::size_t>(-1));
    for (std::size_t a = 0; a < kg_columns_.size(); ++a) {
        for (std::size_t p = 0; p < cond_columns_.size(); ++p) {
            if (cond_columns_[p] == kg_columns_[a]) {
                kg_attr_cond_pos_[a] = p;
                break;
            }
        }
    }

    kg_positives_.resize(tuples.size(), kg_input_width_);
    kg_valid_keys_.clear();
    kg_completions_.clear();
    kg_tuple_ids_.assign(tuples.size(), {});
    for (std::size_t t = 0; t < tuples.size(); ++t) {
        std::size_t off = 0;
        std::vector<std::size_t> ids(kg_columns_.size());
        for (std::size_t a = 0; a < kg_columns_.size(); ++a) {
            const auto id = schema_[kg_columns_[a]].category_id(tuples[t][a]);
            ids[a] = id;
            kg_positives_(t, off + id) = 1.0F;
            off += kg_spans_[a].width;
        }
        kg_valid_keys_.insert(id_key(ids));
        // Index this tuple as a completion of its condition key.
        std::uint64_t ckey = 0;
        for (std::size_t a = 0; a < kg_columns_.size(); ++a) {
            if (kg_attr_cond_pos_[a] != static_cast<std::size_t>(-1)) {
                ckey = ckey * (kg_spans_[a].width + 1) + ids[a] + 1;
            }
        }
        kg_completions_[ckey].push_back(t);
        kg_tuple_ids_[t] = std::move(ids);
    }
}

void KiNetGan::build_networks() {
    const auto& g = options_.gan;
    const std::size_t data_width = transformer_.output_width();
    const std::size_t cond_width = cond_builder_->width();

    g_trunk_ = gan::make_generator_trunk(g.noise_dim + cond_width, g.hidden_dim,
                                         g.hidden_layers, data_width, rng_);
    g_act_ = std::make_unique<gan::OutputActivation>(transformer_.spans(), g.gumbel_tau, rng_);
    d_main_ = gan::make_discriminator(data_width + cond_width, g.hidden_dim, g.hidden_layers,
                                      g.dropout, rng_);
    if (options_.use_kg_discriminator) {
        // Conditional validity discriminator over [attrs ⊕ C].
        d_kg_ = gan::make_discriminator(kg_input_width_ + cond_width, g.hidden_dim / 2, 1, 0.0F,
                                        rng_);
    }
}

std::size_t KiNetGan::column_index_in_schema(const std::string& name) const {
    for (std::size_t c = 0; c < schema_.size(); ++c) {
        if (schema_[c].name == name) {
            return c;
        }
    }
    throw Error("KiNetGan: column " + name + " not in schema");
}

Matrix KiNetGan::extract_kg_attrs(const Matrix& encoded) const {
    Matrix out(encoded.rows(), kg_input_width_);
    for (std::size_t r = 0; r < encoded.rows(); ++r) {
        std::size_t off = 0;
        for (const auto& span : kg_spans_) {
            for (std::size_t j = 0; j < span.width; ++j) {
                out(r, off + j) = encoded(r, span.offset + j);
            }
            off += span.width;
        }
    }
    return out;
}

void KiNetGan::scatter_kg_grad(const Matrix& grad_attrs, Matrix& grad_full) const {
    for (std::size_t r = 0; r < grad_full.rows(); ++r) {
        std::size_t off = 0;
        for (const auto& span : kg_spans_) {
            for (std::size_t j = 0; j < span.width; ++j) {
                grad_full(r, span.offset + j) += grad_attrs(r, off + j);
            }
            off += span.width;
        }
    }
}

std::uint64_t KiNetGan::cond_key_of_draw(const data::CondDraw& draw) const {
    std::uint64_t ckey = 0;
    for (std::size_t a = 0; a < kg_columns_.size(); ++a) {
        if (kg_attr_cond_pos_[a] != static_cast<std::size_t>(-1)) {
            ckey = ckey * (kg_spans_[a].width + 1) + draw.values[kg_attr_cond_pos_[a]] + 1;
        }
    }
    return ckey;
}

Matrix KiNetGan::kg_positive_batch(const std::vector<data::CondDraw>& draws) {
    std::vector<std::size_t> pick(draws.size());
    for (std::size_t b = 0; b < draws.size(); ++b) {
        const auto it = kg_completions_.find(cond_key_of_draw(draws[b]));
        // Every draw comes from a real row; if that row is KG-valid its
        // condition has at least one completion.  Fall back to a random
        // tuple for KG-invalid conditions (noisy real data).
        if (it != kg_completions_.end()) {
            const auto& options = it->second;
            pick[b] = options[static_cast<std::size_t>(
                rng_.randint(0, static_cast<std::int64_t>(options.size()) - 1))];
        } else {
            pick[b] = static_cast<std::size_t>(
                rng_.randint(0, static_cast<std::int64_t>(kg_positives_.rows()) - 1));
        }
    }
    Matrix batch = kg_positives_.gather_rows(pick);
    smooth_spans(batch);
    return batch;
}

void KiNetGan::smooth_spans(Matrix& batch) {
    // Label-smooth the crisp one-hots so D_KG cannot take the degenerate
    // "crisp vs. soft" shortcut against the generator's Gumbel outputs —
    // it has to learn which *combinations* are valid.
    std::size_t off = 0;
    for (const auto& span : kg_spans_) {
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            const auto s = static_cast<float>(rng_.uniform(0.0, 0.15));
            const float uniform = s / static_cast<float>(span.width);
            for (std::size_t j = 0; j < span.width; ++j) {
                batch(r, off + j) = batch(r, off + j) * (1.0F - s) + uniform;
            }
        }
        off += span.width;
    }
}

std::uint64_t KiNetGan::id_key(const std::vector<std::size_t>& ids) const {
    // Mixed-radix packing over the attribute cardinalities.
    std::uint64_t key = 0;
    for (std::size_t a = 0; a < ids.size(); ++a) {
        key = key * (kg_spans_[a].width + 1) + ids[a] + 1;
    }
    return key;
}

Matrix KiNetGan::kg_negative_batch(const std::vector<data::CondDraw>& draws) {
    Matrix batch(draws.size(), kg_input_width_);
    std::vector<std::size_t> ids(kg_spans_.size());
    for (std::size_t r = 0; r < draws.size(); ++r) {
        const std::uint64_t ckey = cond_key_of_draw(draws[r]);
        if (rng_.bernoulli(0.5)) {
            // Oracle-rejected random tuple (rejection sampling: the valid set
            // is tiny relative to the cross product).
            for (int attempt = 0; attempt < 64; ++attempt) {
                for (std::size_t a = 0; a < kg_spans_.size(); ++a) {
                    ids[a] = static_cast<std::size_t>(
                        rng_.randint(0, static_cast<std::int64_t>(kg_spans_[a].width) - 1));
                }
                if (!kg_valid_keys_.contains(id_key(ids))) {
                    break;
                }
            }
        } else {
            // Valid tuple of a *different* condition — the hard negative
            // that forces D_KG to read C.
            for (int attempt = 0; attempt < 64; ++attempt) {
                const auto t = static_cast<std::size_t>(
                    rng_.randint(0, static_cast<std::int64_t>(kg_tuple_ids_.size()) - 1));
                ids = kg_tuple_ids_[t];
                std::uint64_t tkey = 0;
                for (std::size_t a = 0; a < kg_columns_.size(); ++a) {
                    if (kg_attr_cond_pos_[a] != static_cast<std::size_t>(-1)) {
                        tkey = tkey * (kg_spans_[a].width + 1) + ids[a] + 1;
                    }
                }
                if (tkey != ckey) {
                    break;
                }
            }
        }
        std::size_t off = 0;
        for (std::size_t a = 0; a < kg_spans_.size(); ++a) {
            batch(r, off + ids[a]) = 1.0F;
            off += kg_spans_[a].width;
        }
    }
    smooth_spans(batch);
    return batch;
}

std::vector<std::size_t> KiNetGan::decode_kg_ids(const Matrix& encoded, std::size_t row) const {
    std::vector<std::size_t> ids(kg_spans_.size());
    for (std::size_t a = 0; a < kg_spans_.size(); ++a) {
        const auto& span = kg_spans_[a];
        std::size_t best = 0;
        for (std::size_t j = 1; j < span.width; ++j) {
            if (encoded(row, span.offset + j) > encoded(row, span.offset + best)) {
                best = j;
            }
        }
        ids[a] = best;
    }
    return ids;
}

bool KiNetGan::encoded_row_is_valid(const Matrix& encoded, std::size_t row) const {
    return kg_valid_keys_.contains(id_key(decode_kg_ids(encoded, row)));
}

bool KiNetGan::row_valid_and_consistent(const Matrix& encoded, std::size_t row,
                                        const data::CondDraw& draw) const {
    const auto ids = decode_kg_ids(encoded, row);
    if (!kg_valid_keys_.contains(id_key(ids))) {
        return false;
    }
    for (std::size_t a = 0; a < kg_columns_.size(); ++a) {
        if (kg_attr_cond_pos_[a] != static_cast<std::size_t>(-1) &&
            ids[a] != draw.values[kg_attr_cond_pos_[a]]) {
            return false;
        }
    }
    return true;
}

namespace {

/// Decorrelates request-stream seeds from the training seed space.
constexpr std::uint64_t kStreamSeedSalt = 0x9e3779b97f4a7c15ULL;

/// Decoded-table slots of a cursor over n rows: one per generation batch
/// of the rows a wave serves (a chunk, or the whole request when framed),
/// at most one per pool lane.
std::size_t cursor_slots(std::size_t n, std::size_t chunk_rows, std::size_t batch_size) {
    const std::size_t rows = chunk_rows == 0 ? n : std::min(n, chunk_rows);
    return std::min(hardware_threads(), (rows + batch_size - 1) / batch_size);
}

/// `count` empty tables of `schema` whose storage already holds `rows`
/// rows.  The cursor's constructor builds them on the opening thread, so
/// the wave items that fill them on pool lanes allocate nothing.
std::vector<data::Table> sized_tables(const std::vector<data::ColumnMeta>& schema,
                                      std::size_t count, std::size_t rows) {
    // Zeros are a valid row of any schema: category 0, finite values.
    const nn::Matrix zeros(rows, schema.size());
    std::vector<data::Table> tables;
    tables.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        tables.emplace_back(schema);
        tables.back().overwrite_rows(zeros);
        tables.back().clear_rows();  // keeps the capacity
    }
    return tables;
}

/// A generation batch's workspace apart from its decoded table.  Only a
/// running wave item uses it, and a thread runs one at a time (a nested
/// parallel_for runs inline and a caller drains only its own chunks), so
/// one per thread serves every cursor; buffers grow on first use.
struct WaveScratch {
    KiNetGan::SampleBatchInputs batch;
    nn::InferenceContext ctx;
    nn::Matrix output;
    nn::Matrix raw;
};
thread_local WaveScratch t_wave_scratch;

}  // namespace

void KiNetGan::produce_sample_batch(
    std::uint64_t row0, std::size_t b, std::uint64_t key,
    const std::optional<std::pair<std::size_t, std::size_t>>& pin,
    SampleBatchInputs& out) const {
    const std::size_t noise_dim = options_.gan.noise_dim;
    const std::size_t cond_width = cond_builder_->width();
    const auto& spans = transformer_.spans();
    std::size_t softmax_width = 0;
    for (const auto& span : spans) {
        if (span.kind != data::SpanKind::continuous_alpha) {
            softmax_width += span.width;
        }
    }
    // Block 0 is the condition, then the noise blocks, then the Gumbel blocks.
    const std::size_t gumbel_block = 1 + philox::blocks_for(noise_dim);
    const std::size_t row_blocks = gumbel_block + philox::blocks_for(softmax_width);
    const std::size_t row_words = row_blocks * philox::kBlockWords;

    out.words.resize(b * row_words);
    philox::fill_rows(key, row0, b, row_blocks, out.words.data());
    out.input.resize_for_overwrite(b, noise_dim + cond_width);
    out.gumbel.resize_for_overwrite(b, transformer_.output_width());
    for (std::size_t r = 0; r < b; ++r) {
        const std::uint32_t* words = out.words.data() + r * row_words;
        auto row = out.input.row(r);
        // Empirical conditions restore the original data distribution; the
        // one-hot blocks are written straight from the drawn row's values.
        const auto values =
            sampler_->draw_empirical_values(std::span<const std::uint32_t, 4>(words, 4));
        philox::normals(words + philox::kBlockWords, noise_dim, row.data());
        std::fill(row.begin() + static_cast<std::ptrdiff_t>(noise_dim), row.end(), 0.0F);
        for (std::size_t p = 0; p < values.size(); ++p) {
            const std::size_t value =
                (pin.has_value() && pin->first == p) ? pin->second : values[p];
            KINET_CHECK(value < cond_builder_->block_width(p),
                        "sample: condition value out of range");
            row[noise_dim + cond_builder_->block_offset(p) + value] = 1.0F;
        }
        auto noise = out.gumbel.row(r);
        const std::uint32_t* draw = words + gumbel_block * philox::kBlockWords;
        for (const auto& span : spans) {
            if (span.kind == data::SpanKind::continuous_alpha) {
                noise[span.offset] = 0.0F;  // tanh slots read no noise
            } else {
                philox::gumbels(draw, span.width, noise.data() + span.offset);
                draw += span.width;
            }
        }
    }
}

void KiNetGan::sample_stream_impl(std::size_t n, std::uint64_t key,
                                  const std::optional<std::pair<std::size_t, std::size_t>>& pin,
                                  std::size_t chunk_rows, const SampleSink& sink) const {
    KINET_CHECK(fitted_, "KiNetGan::sample before fit");
    KINET_CHECK(sink != nullptr, "KiNetGan::sample_stream: null sink");
    // Rows are a function of (key, row index) alone and the kernels are
    // deterministic at any thread count, so the output is bit-identical for
    // every chunk_rows (chunking only re-frames rows) and every pool size.
    StreamCursor cursor(*this, n, key, chunk_rows, pin);
    while (const data::Table* chunk = cursor.next()) {
        sink(*chunk);
    }
}

data::Table KiNetGan::sample_collect(
    std::size_t n, std::uint64_t key,
    const std::optional<std::pair<std::size_t, std::size_t>>& pin) const {
    data::Table out(schema_);
    sample_stream_impl(n, key, pin, 0, [&out](const data::Table& chunk) {
        out.append_rows(chunk);
    });
    return out;
}

data::Table KiNetGan::sample(std::size_t n) {
    // One word of the model's stream keys the request, so a load()ed model
    // stays in lockstep with the instance it was saved from.
    return sample_collect(n, rng_.engine()(), std::nullopt);
}

data::Table KiNetGan::sample_seeded(std::size_t n, std::uint64_t stream_seed) const {
    return sample_collect(n, stream_seed ^ kStreamSeedSalt, std::nullopt);
}

void KiNetGan::sample_seeded_stream(std::size_t n, std::uint64_t stream_seed,
                                    std::size_t chunk_rows, const SampleSink& sink) const {
    sample_stream_impl(n, stream_seed ^ kStreamSeedSalt, std::nullopt, chunk_rows, sink);
}

std::pair<std::size_t, std::size_t> KiNetGan::resolve_conditional_pin(
    const std::string& column, const std::string& value) const {
    const std::size_t col = column_index_in_schema(column);
    KINET_CHECK(schema_[col].is_categorical(),
                "sample_conditional: column " + column + " is not categorical");
    std::size_t pos = cond_columns_.size();
    for (std::size_t p = 0; p < cond_columns_.size(); ++p) {
        if (cond_columns_[p] == col) {
            pos = p;
            break;
        }
    }
    KINET_CHECK(pos < cond_columns_.size(),
                "sample_conditional: column " + column + " is not a conditional column");
    return {pos, schema_[col].category_id(value)};
}

data::Table KiNetGan::sample_conditional_seeded(std::size_t n, const std::string& column,
                                                const std::string& value,
                                                std::uint64_t stream_seed) const {
    const auto pin = resolve_conditional_pin(column, value);
    return sample_collect(n, stream_seed ^ kStreamSeedSalt, pin);
}

void KiNetGan::sample_conditional_seeded_stream(std::size_t n, const std::string& column,
                                                const std::string& value,
                                                std::uint64_t stream_seed,
                                                std::size_t chunk_rows,
                                                const SampleSink& sink) const {
    const auto pin = resolve_conditional_pin(column, value);
    sample_stream_impl(n, stream_seed ^ kStreamSeedSalt, pin, chunk_rows, sink);
}

KiNetGan::StreamCursor::StreamCursor(const KiNetGan& model, std::size_t n, std::uint64_t key,
                                     std::size_t chunk_rows,
                                     std::optional<std::pair<std::size_t, std::size_t>> pin)
    : model_(&model),
      pin_(pin),
      chunk_rows_(chunk_rows),
      remaining_(n),
      key_(key),
      decoded_(sized_tables(model.schema_,
                            cursor_slots(n, chunk_rows, model.options_.gan.batch_size),
                            model.options_.gan.batch_size)),
      pending_(model.schema_) {}

const data::Table* KiNetGan::StreamCursor::next() {
    const std::size_t batch = model_->options_.gan.batch_size;
    pending_.clear_rows();  // the buffer handed out by the previous call
    for (;;) {
        // A framed cursor hands each batch out as it is, in row order.
        if (chunk_rows_ == 0 && drain_slot_ < filled_) {
            return &decoded_[drain_slot_++];
        }
        // A streamed one drains what the last wave left over into pending_.
        while (drain_slot_ < filled_ && pending_.rows() < chunk_rows_) {
            const data::Table& decoded = decoded_[drain_slot_];
            const std::size_t take =
                std::min(chunk_rows_ - pending_.rows(), decoded.rows() - decoded_pos_);
            pending_.append_row_range(decoded, decoded_pos_, decoded_pos_ + take);
            decoded_pos_ += take;
            if (decoded_pos_ == decoded.rows()) {
                ++drain_slot_;
                decoded_pos_ = 0;
            }
        }
        if (chunk_rows_ > 0 && pending_.rows() == chunk_rows_) {
            return &pending_;
        }
        if (remaining_ == 0) {
            // Final (short) chunk, or a fully drained stream.
            return pending_.rows() > 0 ? &pending_ : nullptr;
        }
        // One wave: a batch per slot, or the batches left.  Slot i holds
        // rows [next_row_ + i*batch, ...), so the bytes do not depend on
        // which lane ran it.  A one-batch wave runs inline, and capturing
        // only `this` keeps its std::function allocation-free.
        const std::size_t wave = std::min(decoded_.size(), (remaining_ + batch - 1) / batch);
        filled_ = 0;  // a throwing wave leaves no half-written slot to drain
        parallel_for(wave, 1, [this](std::size_t begin, std::size_t end) {
            const KiNetGan& model = *model_;
            const std::size_t b_max = model.options_.gan.batch_size;
            WaveScratch& scratch = t_wave_scratch;
            for (std::size_t i = begin; i < end; ++i) {
                const std::size_t b = std::min(b_max, remaining_ - i * b_max);
                model.produce_sample_batch(next_row_ + i * b_max, b, key_, pin_, scratch.batch);
                model.g_trunk_->forward_inference(scratch.batch.input, scratch.output,
                                                  scratch.ctx);
                model.g_act_->apply_spans(scratch.output, scratch.batch.gumbel);
                model.transformer_.inverse_into(scratch.output, scratch.raw, decoded_[i]);
            }
        });
        const std::size_t rows = std::min(wave * batch, remaining_);
        next_row_ += rows;
        remaining_ -= rows;
        filled_ = wave;
        drain_slot_ = 0;
        decoded_pos_ = 0;
    }
}

std::unique_ptr<KiNetGan::StreamCursor> KiNetGan::open_sample_cursor(
    std::size_t n, std::uint64_t stream_seed, std::size_t chunk_rows,
    const std::string& cond_column, const std::string& cond_value) const {
    KINET_CHECK(fitted_, "KiNetGan::sample before fit");
    KINET_CHECK(chunk_rows >= 1, "KiNetGan::open_sample_cursor: chunk_rows must be >= 1");
    std::optional<std::pair<std::size_t, std::size_t>> pin;
    if (!cond_column.empty()) {
        pin = resolve_conditional_pin(cond_column, cond_value);
    }
    return std::unique_ptr<StreamCursor>(
        new StreamCursor(*this, n, stream_seed ^ kStreamSeedSalt, chunk_rows, pin));
}

void KiNetGan::save(bytes::Writer& out) {
    KINET_CHECK(fitted_, "KiNetGan::save before fit");
    const auto& g = options_.gan;
    out.u64(g.epochs);
    out.u64(g.batch_size);
    out.u64(g.noise_dim);
    out.u64(g.hidden_dim);
    out.u64(g.hidden_layers);
    out.f32(g.lr_generator);
    out.f32(g.lr_discriminator);
    out.f32(g.adam_beta1);
    out.f32(g.adam_beta2);
    out.f32(g.gumbel_tau);
    out.f32(g.dropout);
    out.f32(g.grad_clip);
    out.u64(g.seed);
    out.u64(options_.transformer.max_modes);
    out.u64(options_.transformer.gmm_iterations);
    out.boolean(options_.transformer.sample_mode_assignment);
    out.f64(options_.sampler.uniform_minority_prob);
    out.f32(options_.cond_penalty_weight);
    out.f32(options_.kg_weight);
    out.boolean(options_.use_kg_discriminator);
    out.boolean(options_.use_cond_penalty);
    out.boolean(options_.use_minority_resampling);

    out.index_array(cond_columns_);
    oracle_.save(out);
    data::save_schema(out, schema_);
    transformer_.save(out);
    sampler_->save(out);
    g_trunk_->save_state(out);
    d_main_->save_state(out);
    out.boolean(d_kg_ != nullptr);
    if (d_kg_ != nullptr) {
        d_kg_->save_state(out);
    }
    out.str(rng_.serialize_state());
    out.f64(last_adherence_);
    out.f64_array(report_.generator_loss);
    out.f64_array(report_.discriminator_loss);
    out.f64(report_.seconds);
}

std::unique_ptr<KiNetGan> KiNetGan::load(bytes::Reader& in) {
    KiNetGanOptions opts;
    opts.gan.epochs = static_cast<std::size_t>(in.u64());
    opts.gan.batch_size = static_cast<std::size_t>(in.u64());
    opts.gan.noise_dim = static_cast<std::size_t>(in.u64());
    opts.gan.hidden_dim = static_cast<std::size_t>(in.u64());
    opts.gan.hidden_layers = static_cast<std::size_t>(in.u64());
    opts.gan.lr_generator = in.f32();
    opts.gan.lr_discriminator = in.f32();
    opts.gan.adam_beta1 = in.f32();
    opts.gan.adam_beta2 = in.f32();
    opts.gan.gumbel_tau = in.f32();
    opts.gan.dropout = in.f32();
    opts.gan.grad_clip = in.f32();
    opts.gan.seed = in.u64();
    opts.transformer.max_modes = static_cast<std::size_t>(in.u64());
    opts.transformer.gmm_iterations = static_cast<std::size_t>(in.u64());
    opts.transformer.sample_mode_assignment = in.boolean();
    opts.sampler.uniform_minority_prob = in.f64();
    opts.cond_penalty_weight = in.f32();
    opts.kg_weight = in.f32();
    opts.use_kg_discriminator = in.boolean();
    opts.use_cond_penalty = in.boolean();
    opts.use_minority_resampling = in.boolean();

    // A snapshot payload can pass its checksum and still be hostile (the
    // checksum is recomputable); every field that sizes an allocation is
    // range-checked before build_networks touches it.
    const auto plausible = [](std::size_t v, std::size_t cap, const char* what) {
        KINET_CHECK(v <= cap,
                    "KiNetGan::load: implausible " + std::string(what) + " (" +
                        std::to_string(v) + ")");
    };
    plausible(opts.gan.epochs, 1U << 24, "epochs");
    plausible(opts.gan.batch_size, 1U << 24, "batch size");
    KINET_CHECK(opts.gan.batch_size > 0, "KiNetGan::load: batch size must be positive");
    plausible(opts.gan.noise_dim, 1U << 20, "noise dim");
    plausible(opts.gan.hidden_dim, 1U << 20, "hidden dim");
    plausible(opts.gan.hidden_layers, 1024, "hidden layers");
    plausible(opts.transformer.max_modes, 4096, "transformer modes");
    plausible(opts.transformer.gmm_iterations, 1U << 24, "gmm iterations");

    std::vector<std::size_t> cond_columns = in.index_array();
    auto oracle = kg::ValidityOracle::load(in);
    auto model =
        std::make_unique<KiNetGan>(std::move(oracle), std::move(cond_columns), opts);

    model->schema_ = data::load_schema(in);
    for (const std::size_t col : model->cond_columns_) {
        KINET_CHECK(col < model->schema_.size() && model->schema_[col].is_categorical(),
                    "KiNetGan::load: conditional column out of range or not categorical");
    }
    model->transformer_ = data::TableTransformer::load(in);
    KINET_CHECK(model->transformer_.schema().size() == model->schema_.size(),
                "KiNetGan::load: transformer schema width mismatch");
    model->sampler_ =
        std::make_unique<data::ConditionalSampler>(data::ConditionalSampler::load(in));
    KINET_CHECK(model->sampler_->cond_columns() == model->cond_columns_,
                "KiNetGan::load: sampler conditional columns mismatch");
    model->cond_builder_ =
        std::make_unique<gan::CondVectorBuilder>(model->schema_, model->cond_columns_);
    model->cond_spans_ = gan::category_spans_for_blocks(model->transformer_, *model->cond_builder_);
    model->init_kg_state();
    // Architectures are rebuilt from the options (the construction draws from
    // rng_ for initial weights, all overwritten below; the live RNG stream is
    // restored afterwards, so post-load samples continue exactly where the
    // saved model would have).
    model->build_networks();
    model->g_trunk_->load_state(in);
    model->d_main_->load_state(in);
    const bool has_dkg = in.boolean();
    KINET_CHECK(has_dkg == (model->d_kg_ != nullptr),
                "KiNetGan::load: KG-discriminator presence mismatch");
    if (has_dkg) {
        model->d_kg_->load_state(in);
    }
    model->rng_.deserialize_state(in.str());
    model->last_adherence_ = in.f64();
    model->report_.generator_loss = in.f64_array();
    model->report_.discriminator_loss = in.f64_array();
    model->report_.seconds = in.f64();
    model->fitted_ = true;
    return model;
}

std::size_t KiNetGan::kg_valid_count(const data::Table& table) const {
    KINET_CHECK(!oracle_.attribute_names().empty(), "kg_valid_count: empty oracle");
    std::vector<std::size_t> cols;
    for (const auto& attr : oracle_.attribute_names()) {
        cols.push_back(table.column_index(attr));
    }
    std::size_t valid = 0;
    std::vector<std::string> values(cols.size());
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t a = 0; a < cols.size(); ++a) {
            values[a] = table.label_at(r, cols[a]);
        }
        valid += oracle_.is_valid(values) ? 1 : 0;
    }
    return valid;
}

double KiNetGan::kg_validity_rate(const data::Table& table) const {
    return (table.rows() == 0) ? 0.0
                               : static_cast<double>(kg_valid_count(table)) /
                                     static_cast<double>(table.rows());
}

std::vector<double> KiNetGan::discriminator_scores(const data::Table& table) {
    KINET_CHECK(fitted_, "discriminator_scores before fit");
    const Matrix encoded = transformer_.transform(table, rng_);

    // Build the condition each row actually carries.
    std::vector<data::CondDraw> draws(table.rows());
    for (std::size_t r = 0; r < table.rows(); ++r) {
        draws[r].row = r;
        draws[r].values.resize(cond_columns_.size());
        for (std::size_t p = 0; p < cond_columns_.size(); ++p) {
            draws[r].values[p] = table.category_at(r, cond_columns_[p]);
        }
    }
    const Matrix cond = cond_builder_->encode(draws);
    const Matrix logits = d_main_->forward(Matrix::hcat(encoded, cond), false);
    std::vector<double> scores(table.rows());
    for (std::size_t r = 0; r < table.rows(); ++r) {
        scores[r] = 1.0 / (1.0 + std::exp(-static_cast<double>(logits(r, 0))));
    }
    return scores;
}

}  // namespace kinet::core
