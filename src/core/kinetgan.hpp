// KiNETGAN — the paper's primary contribution (Sec. III).
//
// A conditional tabular GAN whose discriminator is split in two (Eq. 3):
//   D_M : a standard real/fake discriminator over (x ⊕ C);
//   D_KG: the Knowledge-Guided Discriminator, trained to separate
//         KG-valid attribute combinations (positives enumerated by querying
//         the Network Knowledge Graph) from the generator's attribute
//         outputs (negatives) — so "fake but also *invalid*" samples are
//         penalised separately from merely fake ones.
// The generator loss (Eq. 4) combines both discriminators plus the
// conditional copy penalty BCE(C, Ĉ) (Sec. III-A-2).  Minority attribute
// values are boosted during training by the conditional sampler
// (Sec. III-A-3) and the original distribution is restored at sampling time
// by drawing conditions from the empirical frequencies.
#ifndef KINETGAN_CORE_KINETGAN_H
#define KINETGAN_CORE_KINETGAN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/data/sampler.hpp"
#include "src/data/split.hpp"
#include "src/data/transformer.hpp"
#include "src/gan/cond_vector.hpp"
#include "src/gan/gan_common.hpp"
#include "src/gan/synthesizer.hpp"
#include "src/kg/network_kg.hpp"
#include "src/nn/nn.hpp"

namespace kinet::core {

struct KiNetGanOptions {
    gan::GanOptions gan;
    data::TransformerOptions transformer;
    data::SamplerOptions sampler;
    /// Weight of BCE(C, Ĉ) in the generator loss.
    float cond_penalty_weight = 2.0F;
    /// Weight of the D_KG adversarial term in the generator loss.
    float kg_weight = 1.0F;
    // Ablation switches (bench_ablation exercises these).
    bool use_kg_discriminator = true;
    bool use_cond_penalty = true;
    bool use_minority_resampling = true;
};

class KiNetGan : public gan::Synthesizer {
public:
    /// `oracle` is the compiled KG validity oracle for the table's domain;
    /// `cond_columns` are the conditional attributes (categorical columns).
    KiNetGan(kg::ValidityOracle oracle, std::vector<std::size_t> cond_columns,
             KiNetGanOptions options = {});

    /// Per-epoch training callback: invoked after every completed epoch with
    /// (epochs_done, epochs_total).  Returning false aborts the fit — the
    /// model stays unfitted and fit() throws kinet::Error.  The service
    /// layer's async job subsystem uses this for progress reporting and
    /// cooperative cancellation; epoch granularity keeps the check off the
    /// per-batch hot path.
    using FitObserver = std::function<bool(std::size_t, std::size_t)>;

    void fit(const data::Table& table) override;
    void fit(const data::Table& table, const FitObserver& observer);
    [[nodiscard]] data::Table sample(std::size_t n) override;
    [[nodiscard]] std::string name() const override { return "KiNETGAN"; }

    /// Samples from an isolated per-request random stream keyed by
    /// `stream_seed` — the model's internal RNG and two calls with different
    /// seeds are all mutually independent, so concurrent service clients get
    /// deterministic, non-overlapping streams.  Row i is a pure function of
    /// (model, seed, i): the first m rows of sample_seeded(n, s) are
    /// sample_seeded(m, s) for every m <= n.  Runs on the inference fast
    /// path (const networks, per-call workspaces), so any number of seeded
    /// samples may run concurrently on one fitted model.
    [[nodiscard]] data::Table sample_seeded(std::size_t n, std::uint64_t stream_seed) const;

    /// sample_seeded with one conditional column pinned to a category label;
    /// the remaining conditional blocks follow the empirical distribution.
    /// Throws if the column is not one of the conditional columns or the
    /// label is unknown.
    [[nodiscard]] data::Table sample_conditional_seeded(std::size_t n, const std::string& column,
                                                        const std::string& value,
                                                        std::uint64_t stream_seed) const;

    /// Receives consecutive chunks of a streaming sample.  The Table is a
    /// reused buffer owned by the sampler — copy out what must outlive the
    /// callback.
    using SampleSink = std::function<void(const data::Table& chunk)>;

    /// Streaming sample_seeded: rows are generated in the model's training
    /// batch size, decoded through reused buffers and delivered to `sink`
    /// in chunks of exactly `chunk_rows` rows (the final chunk may be
    /// short; chunk_rows == 0 delivers each generation batch as it comes).
    /// Memory stays O(batch + chunk) regardless of n, and the concatenated
    /// chunks are bit-identical to sample_seeded(n, seed) for every
    /// chunk_rows and thread count — chunking only re-frames the stream.
    void sample_seeded_stream(std::size_t n, std::uint64_t stream_seed, std::size_t chunk_rows,
                              const SampleSink& sink) const;

    /// Streaming variant of sample_conditional_seeded (same chunking and
    /// identity guarantees).
    void sample_conditional_seeded_stream(std::size_t n, const std::string& column,
                                          const std::string& value, std::uint64_t stream_seed,
                                          std::size_t chunk_rows, const SampleSink& sink) const;

    /// The random inputs of one generation batch, drawn from the
    /// counter-based sampling stream: the [z ⊕ C] input block and the
    /// activation's Gumbel matrix, plus the reused buffers they are made
    /// from.
    struct SampleBatchInputs {
        std::vector<std::uint32_t> words;  // Philox blocks of the batch's rows
        nn::Matrix input;                  // [z ⊕ C]
        nn::Matrix gumbel;                 // activation noise (zero in tanh slots)
    };

    /// Draws the random inputs of stream rows [row0, row0 + b) under `key`
    /// (docs/protocol.md, "Sampling stream"): per row, block 0 picks the
    /// condition, the next ceil(noise_dim / 4) blocks are the noise, and
    /// the rest are Gumbel draws for the softmax spans only.  `pin`
    /// optionally fixes one conditional block to (position in
    /// cond_columns_, value id).  This is the RNG stage of every sampling
    /// path; it is public so bench_micro can time it alone.
    void produce_sample_batch(std::uint64_t row0, std::size_t b, std::uint64_t key,
                              const std::optional<std::pair<std::size_t, std::size_t>>& pin,
                              SampleBatchInputs& out) const;

    /// A pull-based resumable streaming sample — the one sampling loop every
    /// entry point runs.  A next() call generates batches only while those
    /// already decoded cannot fill its chunk, then suspends — no thread is
    /// held between calls, which is what lets an event-driven server park a
    /// stream whose client stopped reading.  Batches are generated in waves over parallel_for,
    /// one batch per decoded-table slot, so idle pool lanes share the work;
    /// with no idle lane the calling thread runs the whole wave.  A streamed
    /// cursor has one slot per batch of a chunk, a framed one (chunk_rows
    /// 0) one per batch of the request, both at most one per pool lane.
    /// Rows depend only on their index, so the concatenated chunks are
    /// bit-identical to sample_seeded_stream with the same (n, seed),
    /// whatever chunk_rows and thread count.
    /// The cursor borrows the model — keep the KiNetGan alive — and a single
    /// cursor must not be advanced concurrently, but independent cursors
    /// share no mutable state and may run in parallel on one fitted model.
    class StreamCursor {
    public:
        /// Returns the next chunk (exactly chunk_rows rows until the final,
        /// possibly short, chunk; one generation batch per call when
        /// chunk_rows is 0) or nullptr once exhausted.  The Table is a
        /// reused internal buffer, valid until the next call.
        [[nodiscard]] const data::Table* next();

    private:
        friend class KiNetGan;
        StreamCursor(const KiNetGan& model, std::size_t n, std::uint64_t key,
                     std::size_t chunk_rows,
                     std::optional<std::pair<std::size_t, std::size_t>> pin);

        const KiNetGan* model_;
        std::optional<std::pair<std::size_t, std::size_t>> pin_;
        std::size_t chunk_rows_;  // 0: one chunk per generation batch
        std::size_t remaining_;   // rows not yet generated
        std::uint64_t key_;       // sampling-stream key
        std::uint64_t next_row_ = 0;  // stream row index of the next batch
        // One decoded generation batch per slot, sized by the constructor.
        // The rest of a batch's workspace belongs to the thread that runs
        // it, so a cursor holds only these tables.
        std::vector<data::Table> decoded_;
        std::size_t filled_ = 0;       // slots holding the last wave's batches
        std::size_t drain_slot_ = 0;   // first of them not yet handed out
        std::size_t decoded_pos_ = 0;  // rows of decoded_[drain_slot_] already chunked
        data::Table pending_;          // chunk under assembly / last returned
    };

    /// Opens a StreamCursor over this model; empty `cond_column` means an
    /// unconditional stream, otherwise the column is pinned to `cond_value`
    /// (same resolution and errors as sample_conditional_seeded).
    /// chunk_rows must be >= 1.
    [[nodiscard]] std::unique_ptr<StreamCursor> open_sample_cursor(
        std::size_t n, std::uint64_t stream_seed, std::size_t chunk_rows,
        const std::string& cond_column = {}, const std::string& cond_value = {}) const;

    /// Serializes the full fitted state (transformer statistics, GMM
    /// parameters, network weights, KG oracle, sampler frequencies and the
    /// live RNG stream).  A load()ed model is bit-identical in behaviour:
    /// the next sample() matches what this instance would have produced.
    void save(bytes::Writer& out);
    [[nodiscard]] static std::unique_ptr<KiNetGan> load(bytes::Reader& in);

    [[nodiscard]] const KiNetGanOptions& options() const noexcept { return options_; }
    [[nodiscard]] const std::vector<data::ColumnMeta>& schema() const noexcept { return schema_; }
    [[nodiscard]] bool is_fitted() const noexcept { return fitted_; }

    /// Fraction of rows whose oracle attributes form a KG-valid combination.
    [[nodiscard]] double kg_validity_rate(const data::Table& table) const;

    /// Number of rows whose oracle attributes form a KG-valid combination —
    /// the accumulable form the streaming VALIDATE path sums per chunk.
    [[nodiscard]] std::size_t kg_valid_count(const data::Table& table) const;

    /// Sigmoid(D_M) per row — the white-box membership-inference surface.
    [[nodiscard]] std::vector<double> discriminator_scores(const data::Table& table);

    /// Mean conditional adherence over the last training epoch.
    [[nodiscard]] double last_cond_adherence() const noexcept { return last_adherence_; }

    [[nodiscard]] const data::TableTransformer& transformer() const noexcept {
        return transformer_;
    }

private:
    /// Compiles the oracle-attribute spans, positive one-hots and completion
    /// indexes from schema_/oracle_/transformer_ (shared by fit and load).
    void init_kg_state();
    /// Builds generator/discriminator networks for the current widths,
    /// drawing initial weights from rng_ (overwritten on load).
    void build_networks();
    /// Column index by name in schema_; throws if absent.
    [[nodiscard]] std::size_t column_index_in_schema(const std::string& name) const;
    /// Resolves a (column name, category label) conditional pin to
    /// (position in cond_columns_, value id); throws on unknown column/label.
    [[nodiscard]] std::pair<std::size_t, std::size_t> resolve_conditional_pin(
        const std::string& column, const std::string& value) const;
    /// Runs a StreamCursor over rows [0, n) of the stream `key` into
    /// `sink`.  Const and thread-safe: all mutable state lives in the
    /// cursor, so concurrent streams never touch.
    void sample_stream_impl(std::size_t n, std::uint64_t key,
                            const std::optional<std::pair<std::size_t, std::size_t>>& pin,
                            std::size_t chunk_rows, const SampleSink& sink) const;
    /// sample_stream_impl collected into one Table.
    [[nodiscard]] data::Table sample_collect(
        std::size_t n, std::uint64_t key,
        const std::optional<std::pair<std::size_t, std::size_t>>& pin) const;

    [[nodiscard]] nn::Matrix extract_kg_attrs(const nn::Matrix& encoded) const;
    void scatter_kg_grad(const nn::Matrix& grad_attrs, nn::Matrix& grad_full) const;
    /// KG-valid completions of each draw's condition, one-hot encoded —
    /// D_KG's positives (Sec. III-B: "all valid sets of attributes for the
    /// conditional vector C queried from the knowledge graph").
    [[nodiscard]] nn::Matrix kg_positive_batch(const std::vector<data::CondDraw>& draws);
    /// Hard negatives for the same conditions: oracle-rejected tuples and
    /// valid tuples belonging to a *different* condition.
    [[nodiscard]] nn::Matrix kg_negative_batch(const std::vector<data::CondDraw>& draws);
    /// Label-smooths every one-hot span in a D_KG batch.
    void smooth_spans(nn::Matrix& batch);
    /// Condition key of a draw over the conditioned oracle attributes.
    [[nodiscard]] std::uint64_t cond_key_of_draw(const data::CondDraw& draw) const;
    /// True if row's decoded oracle attrs are valid AND agree with the draw's
    /// conditioned values.
    [[nodiscard]] bool row_valid_and_consistent(const nn::Matrix& encoded, std::size_t row,
                                                const data::CondDraw& draw) const;
    [[nodiscard]] std::vector<std::size_t> decode_kg_ids(const nn::Matrix& encoded,
                                                         std::size_t row) const;
    /// Decodes the oracle-attribute value ids of one encoded row (argmax per
    /// span) and checks the compiled validity set.
    [[nodiscard]] bool encoded_row_is_valid(const nn::Matrix& encoded, std::size_t row) const;
    [[nodiscard]] std::uint64_t id_key(const std::vector<std::size_t>& ids) const;

    kg::ValidityOracle oracle_;
    std::vector<std::size_t> cond_columns_;
    KiNetGanOptions options_;
    Rng rng_;

    std::vector<data::ColumnMeta> schema_;
    data::TableTransformer transformer_;
    std::unique_ptr<data::ConditionalSampler> sampler_;
    std::unique_ptr<gan::CondVectorBuilder> cond_builder_;
    std::vector<data::OutputSpan> cond_spans_;

    // Oracle attribute -> table column and output span.
    std::vector<std::size_t> kg_columns_;
    std::vector<data::OutputSpan> kg_spans_;
    std::size_t kg_input_width_ = 0;
    nn::Matrix kg_positives_;  // one-hot encodings of all valid tuples
    std::unordered_set<std::uint64_t> kg_valid_keys_;  // mixed-radix id keys
    /// Position of each oracle attribute within cond_columns_ (npos if the
    /// attribute is not conditioned).
    std::vector<std::size_t> kg_attr_cond_pos_;
    /// cond-key -> indices into kg_positives_ (valid completions of that
    /// condition).
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> kg_completions_;
    std::vector<std::vector<std::size_t>> kg_tuple_ids_;  // ids per valid tuple

    // Generator = trunk (ends in Linear logits) + span-wise output activation,
    // kept separate so the conditional penalty can act on the logits.
    std::unique_ptr<nn::Sequential> g_trunk_;
    std::unique_ptr<gan::OutputActivation> g_act_;
    std::unique_ptr<nn::Sequential> d_main_;
    std::unique_ptr<nn::Sequential> d_kg_;

    double last_adherence_ = 0.0;
    bool fitted_ = false;
};

}  // namespace kinet::core

#endif  // KINETGAN_CORE_KINETGAN_H
