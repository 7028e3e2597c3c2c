// Snapshot-reader fuzz/property tests — the model snapshot is the service
// layer's second attack surface after the protocol parser: LOAD hands
// read_snapshot bytes that came off disk (or a future replication wire)
// and must never crash on them.
//
// Deterministic pseudo-random fuzzing over four layers:
//   * raw byte soup (no structure at all),
//   * header-field mutations (magic/version/length/checksum),
//   * truncation at every header boundary and swept through the payload,
//   * payload mutations with the checksum *re-fixed*, so the corruption
//     reaches KiNetGan::load and every nested reader below it.
// The only acceptable failure mode is kinet::Error; anything else
// (crash, bad_alloc from a hostile length, non-Error exception) fails the
// suite.  A mutated payload that still loads is fine — flipping a weight
// bit is not detectable — but the loaded model must then survive a
// sample() call under the same rules.
#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <string>

#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/common/csv.hpp"
#include "src/common/rng.hpp"
#include "src/core/kinetgan.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/service/snapshot.hpp"

namespace {

using kinet::Rng;
using kinet::core::KiNetGan;
using kinet::core::KiNetGanOptions;

/// One small trained model, shared by every fuzz case (training it is the
/// expensive part; the fuzz target is the reader, not the trainer).
const std::string& valid_snapshot() {
    static const std::string blob = [] {
        KiNetGanOptions opts;
        opts.gan.epochs = 1;
        opts.gan.batch_size = 32;
        opts.gan.hidden_dim = 16;
        opts.gan.noise_dim = 8;
        opts.gan.seed = 11;
        opts.transformer.max_modes = 2;
        kinet::netsim::LabSimOptions sim;
        sim.records = 200;
        sim.seed = 5;
        const auto table = kinet::netsim::LabTrafficSimulator(sim).generate();
        const auto kg = kinet::kg::NetworkKg::build_lab();
        KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
        model.fit(table);
        return kinet::service::write_snapshot(model);
    }();
    return blob;
}

/// Rewrites the container header so `payload` (possibly mutated) carries a
/// *valid* length and checksum again — the way past the integrity check
/// and into the structured readers.
std::string frame_with_fixed_checksum(const std::string& payload) {
    kinet::bytes::Writer out;
    out.raw(kinet::service::kSnapshotMagic);
    out.u32(kinet::service::kSnapshotVersion);
    out.u64(payload.size());
    out.u64(kinet::bytes::fnv1a(payload));
    out.raw(payload);
    return out.take();
}

/// Feeds one candidate container to the reader (and, if it loads, to a
/// sample call).  Only kinet::Error may escape.
void expect_no_crash(const std::string& blob) {
    try {
        auto model = kinet::service::read_snapshot(blob);
        // Loaded despite the fuzzing: the model must still be usable (or
        // fail cleanly) — corrupt state must not surface as UB later.
        (void)model->sample_seeded(8, 99);
    } catch (const kinet::Error&) {
        // Clean rejection is the expected path.
    }
}

TEST(SnapshotFuzz, RandomByteSoupNeverCrashes) {
    Rng rng(0x50a9f001);
    for (int iter = 0; iter < 2000; ++iter) {
        const auto length = static_cast<std::size_t>(rng.randint(0, 160));
        std::string blob;
        blob.reserve(length);
        for (std::size_t i = 0; i < length; ++i) {
            blob.push_back(static_cast<char>(rng.randint(0, 255)));
        }
        expect_no_crash(blob);
    }
}

TEST(SnapshotFuzz, HeaderFieldMutationsAreRejectedCleanly) {
    const std::string& good = valid_snapshot();
    Rng rng(0x50a9f002);
    // Every byte of the 28-byte header, several mutations each.
    for (std::size_t pos = 0; pos < 28; ++pos) {
        for (int m = 0; m < 8; ++m) {
            std::string blob = good;
            blob[pos] = static_cast<char>(blob[pos] ^ (1 << (m % 8)));
            expect_no_crash(blob);
        }
    }
    // Extreme declared lengths (field at bytes 12-19).
    for (const std::uint64_t decl :
         {std::uint64_t{0}, std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
        std::string blob = good;
        std::memcpy(blob.data() + 12, &decl, sizeof(decl));
        expect_no_crash(blob);
    }
}

TEST(SnapshotFuzz, TruncationAtEverySectionBoundaryIsRejected) {
    const std::string& good = valid_snapshot();
    // Header boundaries: after magic, version, length, checksum (and every
    // byte in between — the header is small enough to sweep completely).
    for (std::size_t cut = 0; cut < 28; ++cut) {
        EXPECT_THROW((void)kinet::service::read_snapshot(good.substr(0, cut)), kinet::Error)
            << "header truncation at " << cut << " accepted";
    }
    // Payload cuts: a fine sweep near the start (schema/options section)
    // and a coarse sweep through the weights.  With the length field
    // rewritten to match, the cut lands on the *payload* readers instead
    // of the container length check.
    const std::string payload = good.substr(28);
    for (std::size_t cut = 0; cut < payload.size(); cut += (cut < 512 ? 7 : 997)) {
        const std::string sliced = payload.substr(0, cut);
        EXPECT_THROW((void)kinet::service::read_snapshot(good.substr(0, 28 + cut)), kinet::Error)
            << "container truncation at payload byte " << cut << " accepted";
        expect_no_crash(frame_with_fixed_checksum(sliced));
    }
}

TEST(SnapshotFuzz, ChecksumFixedPayloadMutationsNeverCrash) {
    const std::string payload = valid_snapshot().substr(28);
    Rng rng(0x50a9f003);
    for (int iter = 0; iter < 400; ++iter) {
        std::string mutated = payload;
        // 1-4 mutations: bit flips, byte overwrites, and 8-byte length/
        // dimension stomps (the high-leverage corruption for readers that
        // trust counts).
        const int edits = 1 + static_cast<int>(rng.randint(0, 3));
        for (int e = 0; e < edits; ++e) {
            const auto pos = static_cast<std::size_t>(
                rng.randint(0, static_cast<std::int64_t>(mutated.size()) - 1));
            switch (rng.randint(0, 2)) {
            case 0:
                mutated[pos] = static_cast<char>(mutated[pos] ^
                                                 (1 << rng.randint(0, 7)));
                break;
            case 1:
                mutated[pos] = static_cast<char>(rng.randint(0, 255));
                break;
            default: {
                const std::uint64_t stomp =
                    rng.bernoulli(0.5) ? ~std::uint64_t{0}
                                       : static_cast<std::uint64_t>(rng.randint(0, 1 << 30));
                const std::size_t n = std::min(sizeof(stomp), mutated.size() - pos);
                std::memcpy(mutated.data() + pos, &stomp, n);
                break;
            }
            }
        }
        expect_no_crash(frame_with_fixed_checksum(mutated));
    }
}

TEST(SnapshotFuzz, TransformerStompSweepNeverCrashes) {
    // The transformer's spans size the encoder, the decoder and the
    // sampling stream's Gumbel draws.  An 8-byte stomp at every byte of its
    // serialized form, with both stomp values the random mix above uses at
    // its extremes, must fail with kinet::Error or load a model that still
    // samples.
    const std::string payload = valid_snapshot().substr(28);
    kinet::bytes::Writer tf;
    kinet::service::read_snapshot(valid_snapshot())->transformer().save(tf);
    const std::size_t begin = payload.find(tf.buffer());
    ASSERT_NE(begin, std::string::npos);
    for (std::size_t pos = begin; pos < begin + tf.buffer().size(); ++pos) {
        for (const std::uint64_t stomp : {~std::uint64_t{0}, std::uint64_t{1} << 30}) {
            std::string mutated = payload;
            std::memcpy(mutated.data() + pos, &stomp,
                        std::min(sizeof(stomp), mutated.size() - pos));
            expect_no_crash(frame_with_fixed_checksum(mutated));
        }
    }
}

TEST(SnapshotFuzz, TrailingGarbageAfterPayloadIsRejected) {
    const std::string payload = valid_snapshot().substr(28);
    expect_no_crash(frame_with_fixed_checksum(payload + std::string(16, '\x7f')));
    EXPECT_THROW(
        (void)kinet::service::read_snapshot(frame_with_fixed_checksum(payload + "x")),
        kinet::Error);
}

// ---------------------------------------------------- differential fuzz
//
// Serialization must be a *canonical* function of the model state:
// save -> load -> save over randomized model shapes is byte-identical.
// The fleet's REPLICATE/FETCH round-trips and snapshot checksum dedup
// lean on this — a replica that re-serializes differently would look like
// divergent state to any byte-level comparison.
TEST(SnapshotDifferentialFuzz, SaveLoadSaveIsByteIdenticalAcrossRandomModels) {
    Rng rng(0x50a9f004);
    for (int iter = 0; iter < 6; ++iter) {
        KiNetGanOptions opts;
        opts.gan.epochs = 1;
        opts.gan.batch_size = 16 << rng.randint(0, 2);
        opts.gan.hidden_dim = 8 << rng.randint(0, 2);
        opts.gan.noise_dim = 4 << rng.randint(0, 2);
        opts.gan.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 20));
        opts.transformer.max_modes = 1 + static_cast<std::size_t>(rng.randint(0, 2));
        kinet::netsim::LabSimOptions sim;
        sim.records = 120 + static_cast<std::size_t>(rng.randint(0, 120));
        sim.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 20));
        const auto table = kinet::netsim::LabTrafficSimulator(sim).generate();
        const auto kg = kinet::kg::NetworkKg::build_lab();
        KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
        model.fit(table);

        const std::string first = kinet::service::write_snapshot(model);
        auto loaded = kinet::service::read_snapshot(first);
        const std::string second = kinet::service::write_snapshot(*loaded);
        ASSERT_EQ(first.size(), second.size()) << "iter " << iter;
        ASSERT_TRUE(first == second)
            << "iter " << iter << ": re-serialization diverged at byte "
            << [&] {
                   std::size_t i = 0;
                   while (i < first.size() && first[i] == second[i]) {
                       ++i;
                   }
                   return i;
               }();
        // And a second generation loads and re-serializes identically too
        // (no hidden state accumulates across the load path).
        auto reloaded = kinet::service::read_snapshot(second);
        EXPECT_TRUE(kinet::service::write_snapshot(*reloaded) == first) << "iter " << iter;
        // Behavioural check on top of the byte check: the restored model
        // draws the same rows for the same seed.
        const auto a = kinet::csv::serialize(model.sample_seeded(32, 77).to_csv());
        const auto b = kinet::csv::serialize(loaded->sample_seeded(32, 77).to_csv());
        EXPECT_TRUE(a == b) << "iter " << iter << ": restored model diverged";
    }
}

TEST(SnapshotFuzz, ValidSnapshotStillLoadsAfterFuzzSuite) {
    // Guard against the fixture itself being corrupted by any test above.
    auto model = kinet::service::read_snapshot(valid_snapshot());
    EXPECT_EQ(model->sample_seeded(16, 3).rows(), 16U);
}

}  // namespace
