// Behavioural tests for the KiNETGAN core model (small configs for speed),
// and two pool checks in child processes (the pool size is latched at
// first use): a trained model does not depend on the lane count, and a
// training step hands no work to the pool.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/core/kinetgan.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/service/snapshot.hpp"
#include "tests/run_self.hpp"

namespace {

using kinet::core::KiNetGan;
using kinet::core::KiNetGanOptions;
using kinet::data::Table;

KiNetGanOptions tiny_options(std::uint64_t seed = 42) {
    KiNetGanOptions opts;
    opts.gan.epochs = 10;
    opts.gan.batch_size = 64;
    opts.gan.hidden_dim = 48;
    opts.gan.noise_dim = 24;
    opts.gan.seed = seed;
    opts.transformer.max_modes = 3;
    return opts;
}

Table small_lab(std::size_t rows = 800) {
    kinet::netsim::LabSimOptions opts;
    opts.records = rows;
    opts.seed = 3;
    return kinet::netsim::LabTrafficSimulator(opts).generate();
}

TEST(KiNetGan, FitAndSampleProduceSchemaCompatibleRows) {
    const Table real = small_lab();
    const auto kg = kinet::kg::NetworkKg::build_lab();
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), tiny_options());
    model.fit(real);
    const Table synth = model.sample(300);
    EXPECT_EQ(synth.rows(), 300U);
    EXPECT_EQ(synth.cols(), real.cols());
    for (std::size_t c = 0; c < real.cols(); ++c) {
        EXPECT_EQ(synth.meta(c).name, real.meta(c).name);
        if (synth.meta(c).is_categorical()) {
            for (std::size_t r = 0; r < synth.rows(); ++r) {
                EXPECT_LT(synth.category_at(r, c), synth.meta(c).categories.size());
            }
        }
    }
}

TEST(KiNetGan, ReportTracksTraining) {
    const Table real = small_lab(500);
    const auto kg = kinet::kg::NetworkKg::build_lab();
    auto opts = tiny_options();
    opts.gan.epochs = 5;
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
    model.fit(real);
    EXPECT_EQ(model.report().generator_loss.size(), 5U);
    EXPECT_EQ(model.report().discriminator_loss.size(), 5U);
    EXPECT_GT(model.report().seconds, 0.0);
    EXPECT_GT(model.last_cond_adherence(), 0.0);
}

TEST(KiNetGan, KgValidityRateIsPerfectOnSimulatedData) {
    const Table real = small_lab(600);
    const auto kg = kinet::kg::NetworkKg::build_lab();
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), tiny_options());
    EXPECT_DOUBLE_EQ(model.kg_validity_rate(real), 1.0);
}

TEST(KiNetGan, KgDiscriminatorImprovesSyntheticValidity) {
    const Table real = small_lab(1200);
    const auto kg = kinet::kg::NetworkKg::build_lab();

    auto with_kg_opts = tiny_options(7);
    with_kg_opts.gan.epochs = 25;
    KiNetGan with_kg(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), with_kg_opts);
    with_kg.fit(real);

    auto without_kg_opts = with_kg_opts;
    without_kg_opts.use_kg_discriminator = false;
    KiNetGan without_kg(kg.make_oracle(), kinet::netsim::lab_conditional_columns(),
                        without_kg_opts);
    without_kg.fit(real);

    const double v_with = with_kg.kg_validity_rate(with_kg.sample(400));
    const double v_without = without_kg.kg_validity_rate(without_kg.sample(400));
    // The knowledge-guided discriminator must not hurt validity, and the
    // trained model should emit mostly valid combinations.
    EXPECT_GE(v_with + 0.05, v_without);
    EXPECT_GT(v_with, 0.5);
}

TEST(KiNetGan, SampleBeforeFitThrows) {
    const auto kg = kinet::kg::NetworkKg::build_lab();
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), tiny_options());
    EXPECT_THROW((void)model.sample(10), kinet::Error);
}

TEST(KiNetGan, DiscriminatorScoresAreProbabilities) {
    const Table real = small_lab(400);
    const auto kg = kinet::kg::NetworkKg::build_lab();
    auto opts = tiny_options();
    opts.gan.epochs = 4;
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
    model.fit(real);
    const auto scores = model.discriminator_scores(real);
    EXPECT_EQ(scores.size(), real.rows());
    for (double s : scores) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
    }
}

TEST(KiNetGan, AblationSwitchesAreHonoured) {
    const Table real = small_lab(400);
    const auto kg = kinet::kg::NetworkKg::build_lab();
    auto opts = tiny_options();
    opts.gan.epochs = 3;
    opts.use_kg_discriminator = false;
    opts.use_cond_penalty = false;
    opts.use_minority_resampling = false;
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
    model.fit(real);  // must train cleanly with everything disabled
    EXPECT_EQ(model.sample(50).rows(), 50U);
}

TEST(KiNetGan, SyntheticLabelDistributionCoversMinorityClasses) {
    const Table real = small_lab(1500);
    const auto kg = kinet::kg::NetworkKg::build_lab();
    auto opts = tiny_options(11);
    opts.gan.epochs = 20;
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
    model.fit(real);
    const Table synth = model.sample(600);

    // Conditional sampling should reproduce several event types, not collapse.
    const auto counts = synth.category_counts(synth.column_index("event_type"));
    std::size_t present = 0;
    for (std::size_t c : counts) {
        present += (c > 0) ? 1 : 0;
    }
    EXPECT_GE(present, 5U);
}

TEST(KiNetGan, RequiresCategoricalOracleColumns) {
    const auto kg = kinet::kg::NetworkKg::build_lab();
    EXPECT_THROW(KiNetGan(kg.make_oracle(), {}, tiny_options()), kinet::Error);
}

/// Child side of KiNetGan.TrainedSnapshotDoesNotDependOnLaneCount: fits a
/// small lab model and prints the FNV-1a hash of its snapshot, then
/// "split" if any parallel_for ran as more than one chunk, else "serial".
/// The 4096-row table makes the encoder's loops split, and batch 512 makes
/// the training step's GEMMs split, at four lanes.
std::string fit_snapshot_hash() {
    auto opts = tiny_options(5);
    opts.gan.epochs = 1;
    opts.gan.batch_size = 512;
    opts.gan.hidden_dim = 128;
    const Table real = small_lab(4096);
    const auto kg = kinet::kg::NetworkKg::build_lab();
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
    model.fit(real);
    // The payload ends with the fit's wall-clock seconds (an f64), which
    // no two runs share; the 28-byte container header checksums it.
    const std::string blob = kinet::service::write_snapshot(model);
    const std::string trained = blob.substr(28, blob.size() - 28 - 8);
    char line[64];
    std::snprintf(line, sizeof(line), "%016llx %s\n",
                  static_cast<unsigned long long>(kinet::bytes::fnv1a(trained)),
                  kinet::parallel_for_split_count() > 0 ? "split" : "serial");
    return line;
}

/// Child side of KiNetGan.TrainingStepsStayOffThePool: fits the lab model
/// at its default batch of 128 for three epochs and prints how many
/// parallel_for calls split during the last two (after the encoder fit).
std::string step_splits() {
    auto opts = tiny_options(5);
    opts.gan = kinet::gan::GanOptions{};
    opts.gan.epochs = 3;
    const Table real = small_lab(2000);
    const auto kg = kinet::kg::NetworkKg::build_lab();
    KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(), opts);
    std::size_t after_first = 0;
    model.fit(real, [&](std::size_t epoch, std::size_t) {
        if (epoch == 1) {
            after_first = kinet::parallel_for_split_count();
        }
        return true;
    });
    return std::to_string(kinet::parallel_for_split_count() - after_first) + "\n";
}

TEST(KiNetGan, TrainingStepsStayOffThePool) {
    // A batch-128 step's GEMMs are under the pool's split threshold and
    // its per-row loops run on the caller, so at four lanes a whole epoch
    // hands nothing to the pool.
    if (kinet::testing::self_exe().empty()) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    EXPECT_EQ(kinet::testing::run_self("KINET_NUM_THREADS=4", "--step-splits"), "0\n");
}

TEST(KiNetGan, TrainedSnapshotDoesNotDependOnLaneCount) {
    if (kinet::testing::self_exe().empty()) {
        GTEST_SKIP() << "cannot resolve own binary path";
    }
    const std::string one = kinet::testing::run_self("KINET_NUM_THREADS=1", "--fit-snapshot-hash");
    const std::string four =
        kinet::testing::run_self("KINET_NUM_THREADS=4", "--fit-snapshot-hash");
    ASSERT_TRUE(one.ends_with(" serial\n")) << one;
    // Without a split at four lanes this would only re-check the serial fit.
    ASSERT_TRUE(four.ends_with(" split\n")) << four;
    EXPECT_EQ(one.substr(0, 16), four.substr(0, 16));
}

}  // namespace

// Custom main: `--fit-snapshot-hash` and `--step-splits` turn the binary
// into the child side of KiNetGan.TrainedSnapshotDoesNotDependOnLaneCount
// and KiNetGan.TrainingStepsStayOffThePool (print and exit).
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--fit-snapshot-hash") {
            std::fputs(fit_snapshot_hash().c_str(), stdout);
            return 0;
        }
        if (std::string(argv[i]) == "--step-splits") {
            std::fputs(step_splits().c_str(), stdout);
            return 0;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
