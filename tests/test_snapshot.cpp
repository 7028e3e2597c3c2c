// Snapshot round-trip and corruption-rejection tests: a loaded model must be
// bit-identical in behaviour to the one that was saved, and damaged files
// must be rejected with clear errors before any model state is built.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/core/kinetgan.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/service/snapshot.hpp"

namespace {

using kinet::core::KiNetGan;
using kinet::core::KiNetGanOptions;
using kinet::data::Table;

KiNetGanOptions tiny_options(std::uint64_t seed = 42) {
    KiNetGanOptions opts;
    opts.gan.epochs = 3;
    opts.gan.batch_size = 64;
    opts.gan.hidden_dim = 32;
    opts.gan.noise_dim = 16;
    opts.gan.seed = seed;
    opts.transformer.max_modes = 3;
    return opts;
}

Table small_lab(std::size_t rows = 500) {
    kinet::netsim::LabSimOptions opts;
    opts.records = rows;
    opts.seed = 3;
    return kinet::netsim::LabTrafficSimulator(opts).generate();
}

std::unique_ptr<KiNetGan> trained_model(std::uint64_t seed = 42) {
    const auto kg = kinet::kg::NetworkKg::build_lab();
    auto model = std::make_unique<KiNetGan>(
        kg.make_oracle(), kinet::netsim::lab_conditional_columns(), tiny_options(seed));
    model->fit(small_lab());
    return model;
}

bool tables_identical(const Table& a, const Table& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return false;
    }
    return a.matrix() == b.matrix();
}

TEST(Snapshot, RoundTripSampleIsBitIdentical) {
    auto original = trained_model();
    const std::string blob = kinet::service::write_snapshot(*original);

    // The snapshot captures the live RNG stream: the loaded model's next
    // sample must equal what the original produces next.
    const Table expected = original->sample(257);  // non-multiple of batch
    auto loaded = kinet::service::read_snapshot(blob);
    const Table actual = loaded->sample(257);
    EXPECT_TRUE(tables_identical(expected, actual));

    // And they stay in lockstep on a second draw.
    EXPECT_TRUE(tables_identical(original->sample(64), loaded->sample(64)));
}

TEST(Snapshot, RoundTripPreservesSeededStreamsAndValidity) {
    auto original = trained_model(7);
    const std::string blob = kinet::service::write_snapshot(*original);
    auto loaded = kinet::service::read_snapshot(blob);

    const Table a = original->sample_seeded(200, 99);
    const Table b = loaded->sample_seeded(200, 99);
    EXPECT_TRUE(tables_identical(a, b));
    EXPECT_DOUBLE_EQ(original->kg_validity_rate(a), loaded->kg_validity_rate(b));

    // Different stream seeds give different rows (independent streams).
    EXPECT_FALSE(tables_identical(loaded->sample_seeded(200, 99),
                                  loaded->sample_seeded(200, 100)));
}

TEST(Snapshot, RoundTripPreservesReportAndOptions) {
    auto original = trained_model();
    auto loaded = kinet::service::read_snapshot(kinet::service::write_snapshot(*original));
    EXPECT_EQ(loaded->report().generator_loss.size(), original->report().generator_loss.size());
    EXPECT_EQ(loaded->options().gan.seed, original->options().gan.seed);
    EXPECT_EQ(loaded->schema().size(), original->schema().size());
    EXPECT_DOUBLE_EQ(loaded->last_cond_adherence(), original->last_cond_adherence());
}

TEST(Snapshot, ConditionalSamplingSurvivesRoundTrip) {
    auto original = trained_model();
    auto loaded = kinet::service::read_snapshot(kinet::service::write_snapshot(*original));
    const Table a = original->sample_conditional_seeded(120, "protocol", "TCP", 5);
    const Table b = loaded->sample_conditional_seeded(120, "protocol", "TCP", 5);
    EXPECT_TRUE(tables_identical(a, b));
    // Unknown columns/labels are rejected on both sides of the round trip.
    EXPECT_THROW((void)loaded->sample_conditional_seeded(10, "pkt_count", "TCP", 5),
                 kinet::Error);
    EXPECT_THROW((void)loaded->sample_conditional_seeded(10, "protocol", "NOPE", 5),
                 kinet::Error);
}

TEST(Snapshot, FileRoundTrip) {
    const std::string path = ::testing::TempDir() + "kinet_snapshot_test.snap";
    auto original = trained_model();
    kinet::service::save_snapshot_file(*original, path);
    auto loaded = kinet::service::load_snapshot_file(path);
    EXPECT_TRUE(tables_identical(original->sample(50), loaded->sample(50)));
    std::remove(path.c_str());
}

TEST(Snapshot, RejectsBadMagic) {
    auto model = trained_model();
    std::string blob = kinet::service::write_snapshot(*model);
    blob[0] = 'X';
    try {
        (void)kinet::service::read_snapshot(blob);
        FAIL() << "expected kinet::Error";
    } catch (const kinet::Error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
}

TEST(Snapshot, RejectsWrongVersion) {
    // Format 1 sampled from the mt19937_64 stream; a build that read it
    // would serve different rows for the same seed, so it is refused like
    // any other version this build does not write.
    auto model = trained_model();
    const std::string good = kinet::service::write_snapshot(*model);
    for (const std::uint32_t version : {1U, kinet::service::kSnapshotVersion + 1}) {
        std::string blob = good;
        std::memcpy(blob.data() + 8, &version, sizeof(version));
        try {
            (void)kinet::service::read_snapshot(blob);
            FAIL() << "expected kinet::Error for version " << version;
        } catch (const kinet::Error& e) {
            EXPECT_NE(std::string(e.what()).find("unsupported format version " +
                                                 std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Snapshot, RejectsTruncation) {
    auto model = trained_model();
    const std::string blob = kinet::service::write_snapshot(*model);
    // Sliced anywhere — inside the header or inside the payload — the reader
    // must throw, never return a half-built model.
    for (const double frac : {0.1, 0.5, 0.99}) {
        const auto cut = static_cast<std::size_t>(static_cast<double>(blob.size()) * frac);
        EXPECT_THROW((void)kinet::service::read_snapshot(blob.substr(0, cut)), kinet::Error)
            << "truncation at " << cut << " bytes was accepted";
    }
    EXPECT_THROW((void)kinet::service::read_snapshot(""), kinet::Error);
}

TEST(Snapshot, RejectsBitCorruption) {
    auto model = trained_model();
    std::string blob = kinet::service::write_snapshot(*model);
    // Flip one byte deep inside the payload (weights region).
    blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
    try {
        (void)kinet::service::read_snapshot(blob);
        FAIL() << "expected kinet::Error";
    } catch (const kinet::Error& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
}

TEST(Snapshot, RejectsTrailingGarbage) {
    auto model = trained_model();
    std::string blob = kinet::service::write_snapshot(*model);
    blob += "extra";
    EXPECT_THROW((void)kinet::service::read_snapshot(blob), kinet::Error);
}

TEST(Snapshot, MissingFileHasClearError) {
    try {
        (void)kinet::service::load_snapshot_file("/nonexistent/kinet.snap");
        FAIL() << "expected kinet::Error";
    } catch (const kinet::Error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/kinet.snap"), std::string::npos);
    }
}

}  // namespace
