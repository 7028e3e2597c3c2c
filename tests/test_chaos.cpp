// Chaos suite: deterministic fault injection, crash-safe persistence, and
// self-healing fleet repair (docs/robustness.md).
//
// Everything here is driven by seeded failpoints and explicit crash hatches
// (SynthServer::crash_stop), never by wall-clock races: the same binary
// produces the same failure sequence on every run.  The suite proves the
// three robustness pillars end to end —
//
//   1. failpoints: spec grammar, seeded-deterministic probability, hit
//      gating (after=/times=), env + FAULT-op control, crash mode;
//   2. persistence: atomic snapshot commit (a torn write never corrupts the
//      store), journaled jobs, kill-9-equivalent restart recovering the
//      registry warm with byte-identical samples, interrupted jobs marked
//      failed and resubmitted;
//   3. self-healing: per-peer circuit breaker opening on a dead member,
//      retryable-vs-permanent error classification, REPLICATE rejection
//      codes, and DIGEST-driven anti-entropy reconverging a crash-looped
//      member.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/backoff.hpp"
#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/common/failpoint.hpp"
#include "src/service/client.hpp"
#include "src/service/cluster/breaker.hpp"
#include "src/service/cluster/cluster.hpp"
#include "src/service/cluster/config.hpp"
#include "src/service/cluster/membership.hpp"
#include "src/service/cluster/ring.hpp"
#include "src/service/journal.hpp"
#include "src/service/persistence.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/service/snapshot.hpp"
#include "src/service/socket.hpp"

namespace {

using namespace kinet;           // NOLINT
using namespace kinet::service;  // NOLINT

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KINET_CHAOS_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define KINET_CHAOS_TSAN 1
#endif

/// A fresh, empty scratch directory under the test temp root.  Removes any
/// leftover from a previous run first — recovery tests must never pick up
/// a stale manifest.
std::string fresh_dir(const std::string& tag) {
    const std::string path = ::testing::TempDir() + "kinet_chaos_" + tag;
    std::filesystem::remove_all(path);
    return path;
}

/// Arms one failpoint for the scope of a test and guarantees disarm on exit
/// (failpoint state is process-global).
struct FailpointGuard {
    ~FailpointGuard() { failpoint::reset_all(); }
};

// ------------------------------------------------------------- failpoints

TEST(Failpoint, RegistryListsEveryNameAndRejectsUnknowns) {
    const auto& names = failpoint::registered_names();
    ASSERT_FALSE(names.empty());
    // Sorted (binary-searchable) and the sites this suite leans on exist.
    for (std::size_t i = 1; i < names.size(); ++i) {
        EXPECT_LT(names[i - 1], names[i]);
    }
    for (const char* name : {"socket.send", "socket.recv", "snapshot.commit",
                             "journal.append", "cluster.rpc", "registry.evict"}) {
        EXPECT_TRUE(failpoint::is_registered(name)) << name;
    }
    EXPECT_FALSE(failpoint::is_registered("no.such.site"));
    EXPECT_THROW(failpoint::configure("no.such.site", "error"), Error);
    EXPECT_THROW(failpoint::configure("socket.send", "explode"), Error);
    EXPECT_THROW(failpoint::configure("socket.send", "error,p=nope"), Error);
}

TEST(Failpoint, ErrorModeGatesOnAfterAndTimes) {
    FailpointGuard guard;
    failpoint::configure("registry.evict", "error,after=2,times=1");
    EXPECT_TRUE(failpoint::armed());
    failpoint::hit("registry.evict");  // 1: skipped by after=
    failpoint::hit("registry.evict");  // 2: skipped by after=
    EXPECT_THROW(failpoint::hit("registry.evict"), Error);  // 3: triggers
    failpoint::hit("registry.evict");  // 4: times= budget spent
    EXPECT_EQ(failpoint::hits("registry.evict"), 4U);
    failpoint::configure("registry.evict", "off");
    failpoint::hit("registry.evict");  // disarmed: free
    EXPECT_FALSE(failpoint::armed());
}

TEST(Failpoint, ProbabilityStreamIsSeedDeterministic) {
    FailpointGuard guard;
    const auto trigger_pattern = [](std::uint64_t seed) {
        failpoint::configure("registry.evict",
                             "error,p=0.5,seed=" + std::to_string(seed));
        std::vector<bool> pattern;
        for (int i = 0; i < 64; ++i) {
            bool threw = false;
            try {
                failpoint::hit("registry.evict");
            } catch (const Error&) {
                threw = true;
            }
            pattern.push_back(threw);
        }
        return pattern;
    };
    const auto first = trigger_pattern(7);
    const auto second = trigger_pattern(7);
    EXPECT_EQ(first, second) << "same seed must replay the same hit sequence";
    EXPECT_NE(first, trigger_pattern(8)) << "different seed, different stream";
    // p=0.5 over 64 draws lands well away from both degenerate extremes.
    const auto fired = static_cast<std::size_t>(
        std::count(first.begin(), first.end(), true));
    EXPECT_GT(fired, 10U);
    EXPECT_LT(fired, 54U);
}

TEST(Failpoint, DelayModeOnlyCountsWhenZeroMs) {
    FailpointGuard guard;
    failpoint::configure("registry.evict", "delay,ms=0");
    for (int i = 0; i < 5; ++i) {
        failpoint::hit("registry.evict");  // must not throw
    }
    EXPECT_EQ(failpoint::hits("registry.evict"), 5U);
    const std::string status = failpoint::render_status();
    EXPECT_NE(status.find("registry.evict"), std::string::npos) << status;
    EXPECT_NE(status.find("hits=5"), std::string::npos) << status;
}

TEST(Failpoint, EnvConfigureArmsAndRejectsTypos) {
    FailpointGuard guard;
    ASSERT_EQ(::setenv("KINET_FAILPOINTS", "registry.evict=delay,ms=0", 1), 0);
    failpoint::configure_from_env();
    failpoint::hit("registry.evict");
    EXPECT_EQ(failpoint::hits("registry.evict"), 1U);

    ASSERT_EQ(::setenv("KINET_FAILPOINTS", "tpyo.name=error", 1), 0);
    EXPECT_THROW(failpoint::configure_from_env(), Error);
    ASSERT_EQ(::unsetenv("KINET_FAILPOINTS"), 0);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(KINET_CHAOS_TSAN)
TEST(FailpointDeathTest, CrashModeAbortsTheProcess) {
    EXPECT_DEATH(
        {
            failpoint::configure("registry.evict", "crash");
            failpoint::hit("registry.evict");
        },
        "");
}
#endif

// ------------------------------------------------- backoff and the breaker

TEST(Backoff, GrowsExponentiallyAndSaturates) {
    BackoffOptions opts;
    opts.base_ms = 50;
    opts.max_ms = 300;
    opts.multiplier = 2.0;
    opts.jitter = 0.0;
    Backoff backoff(opts, 0);
    EXPECT_EQ(backoff.next_delay_ms(), 50U);
    EXPECT_EQ(backoff.next_delay_ms(), 100U);
    EXPECT_EQ(backoff.next_delay_ms(), 200U);
    EXPECT_EQ(backoff.next_delay_ms(), 300U);  // capped
    EXPECT_EQ(backoff.next_delay_ms(), 300U);
    backoff.reset();
    EXPECT_EQ(backoff.next_delay_ms(), 50U);
}

TEST(Backoff, JitterIsSeedDeterministicAndBounded) {
    BackoffOptions opts;
    opts.base_ms = 100;
    opts.max_ms = 100000;
    opts.jitter = 0.25;
    Backoff a(opts, 42);
    Backoff b(opts, 42);
    Backoff c(opts, 43);
    bool any_diff = false;
    std::uint64_t expected_raw = 100;
    for (int i = 0; i < 8; ++i) {
        const std::uint64_t da = a.next_delay_ms();
        EXPECT_EQ(da, b.next_delay_ms());
        any_diff = any_diff || (da != c.next_delay_ms());
        // Jitter scales by uniform(0.75, 1.25) around the raw exponential.
        EXPECT_GE(da, expected_raw * 3 / 4);
        EXPECT_LE(da, expected_raw * 5 / 4 + 1);
        expected_raw = std::min<std::uint64_t>(expected_raw * 2, opts.max_ms);
    }
    EXPECT_TRUE(any_diff) << "different seeds should decorrelate";
}

TEST(Breaker, OpensAfterThresholdHalfOpensAndRecovers) {
    BreakerOptions opts;
    opts.failure_threshold = 2;
    opts.open_ms = 60;
    opts.max_open_ms = 240;
    opts.jitter = 0.0;
    CircuitBreaker breaker(opts, 1);
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
    EXPECT_TRUE(breaker.allow()) << "one failure below threshold keeps it closed";
    breaker.record_failure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
    EXPECT_FALSE(breaker.allow());
    EXPECT_EQ(breaker.opens(), 1U);

    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_TRUE(breaker.allow()) << "cooldown elapsed: one half-open trial";
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::half_open);
    EXPECT_FALSE(breaker.allow()) << "only one trial until it resolves";

    // Failed trial: reopen with a grown cooldown.
    breaker.record_failure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
    EXPECT_EQ(breaker.opens(), 2U);
    std::this_thread::sleep_for(std::chrono::milliseconds(240));
    EXPECT_TRUE(breaker.allow());
    breaker.record_success();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
    EXPECT_TRUE(breaker.allow());
}

TEST(Breaker, ZeroThresholdDisables) {
    BreakerOptions opts;
    opts.failure_threshold = 0;
    CircuitBreaker breaker(opts, 0);
    for (int i = 0; i < 20; ++i) {
        breaker.record_failure();
        EXPECT_TRUE(breaker.allow());
    }
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
}

TEST(ErrorClassification, CodedErrorsSplitRetryableFromPermanent) {
    EXPECT_EQ(error_code("queue_full: request queue is full"), "queue_full");
    EXPECT_EQ(error_code("server: draining: going down"), "draining");
    EXPECT_EQ(error_code("Not A Code: detail"), "");
    EXPECT_EQ(error_code("no colon at all"), "");

    for (const char* retryable :
         {"queue_full: request queue is full", "draining: server is draining",
          "breaker_open: circuit for peer x is open", "unavailable: try later",
          "socket: connection refused", "client: server closed the connection"}) {
        EXPECT_TRUE(is_retryable_error(retryable)) << retryable;
    }
    for (const char* permanent :
         {"body_too_large: 1 bytes", "checksum_mismatch: snapshot",
          "short_body: REPLICATE body truncated", "bad_snapshot: bad magic",
          "model: unknown model 'x'", "failpoint: socket.send injected error"}) {
        EXPECT_FALSE(is_retryable_error(permanent)) << permanent;
    }
}

// ----------------------------------------------------------- job journal

TEST(Journal, RoundTripsRecordsAndToleratesTornTail) {
    const std::string dir = fresh_dir("journal");
    PersistentStore store(dir);  // creates the directory
    JobJournal journal(store.journal_path());
    journal.append_submit(1, 5, "m-a", "TRAIN m-a epochs=5 async=1");
    journal.append_terminal(1, JobState::done, "");
    journal.append_submit(2, 9, "m b sneaky", "");

    auto records = JobJournal::replay(journal.path());
    ASSERT_EQ(records.size(), 3U);
    EXPECT_EQ(records[0].kind, JobJournal::Record::Kind::submit);
    EXPECT_EQ(records[0].id, 1U);
    EXPECT_EQ(records[0].epochs_total, 5U);
    EXPECT_EQ(records[0].model, "m-a");
    EXPECT_EQ(records[0].request_line, "TRAIN m-a epochs=5 async=1");
    EXPECT_EQ(records[1].kind, JobJournal::Record::Kind::terminal);
    EXPECT_EQ(records[1].state, JobState::done);
    EXPECT_EQ(records[2].model, "m b sneaky") << "hex encoding keeps spaces intact";

    // A crash mid-append leaves a torn final line; replay stops there and
    // keeps every record that was individually fsynced before it.
    {
        std::ofstream out(journal.path(), std::ios::app | std::ios::binary);
        out << "v1 submit 3 7 746f726e";  // no newline, truncated record
    }
    records = JobJournal::replay(journal.path());
    EXPECT_EQ(records.size(), 3U);

    JobJournal::truncate(journal.path());
    EXPECT_TRUE(JobJournal::replay(journal.path()).empty());
    EXPECT_TRUE(JobJournal::replay(dir + "/no-such-journal").empty());
}

// ------------------------------------------------------- persistent store

TEST(PersistentStore, RoundTripsManifestAcrossReopen) {
    const std::string dir = fresh_dir("store");
    const std::string container = "opaque snapshot bytes";
    DigestEntry entry;
    entry.name = "../hostile name";  // must be confined by hex encoding
    entry.revision = 3;
    entry.bytes = container.size();
    entry.checksum = bytes::fnv1a(container);
    {
        PersistentStore store(dir);
        EXPECT_TRUE(store.manifest().empty());
        store.store(entry, container);
        ASSERT_EQ(store.manifest().size(), 1U);
        EXPECT_EQ(store.load(entry.name), container);
    }
    PersistentStore reopened(dir);
    ASSERT_EQ(reopened.manifest().size(), 1U);
    EXPECT_EQ(reopened.manifest()[0].name, entry.name);
    EXPECT_EQ(reopened.manifest()[0].revision, 3U);
    EXPECT_EQ(reopened.manifest()[0].checksum, entry.checksum);
    EXPECT_EQ(reopened.load(entry.name), container);

    reopened.remove(entry.name);
    EXPECT_TRUE(reopened.manifest().empty());
    EXPECT_THROW((void)reopened.load(entry.name), Error);
    PersistentStore after_remove(dir);
    EXPECT_TRUE(after_remove.manifest().empty());
}

TEST(PersistentStore, TornCommitNeverCorruptsTheStore) {
    FailpointGuard guard;
    const std::string dir = fresh_dir("torn");
    const std::string old_bytes = "generation one";
    DigestEntry entry;
    entry.name = "m";
    entry.revision = 1;
    entry.bytes = old_bytes.size();
    entry.checksum = bytes::fnv1a(old_bytes);
    {
        PersistentStore store(dir);
        store.store(entry, old_bytes);

        // Crash window between the snapshot tmp-write and the rename: the
        // update must vanish whole — the old generation stays loadable.
        failpoint::configure("snapshot.commit", "error");
        DigestEntry update = entry;
        update.revision = 2;
        const std::string new_bytes = "generation two";
        update.bytes = new_bytes.size();
        update.checksum = bytes::fnv1a(new_bytes);
        EXPECT_THROW(store.store(update, new_bytes), Error);
        failpoint::reset_all();
    }
    PersistentStore recovered(dir);
    ASSERT_EQ(recovered.manifest().size(), 1U);
    EXPECT_EQ(recovered.manifest()[0].revision, 1U) << "torn update must not be visible";
    EXPECT_EQ(recovered.load("m"), old_bytes);
}

// --------------------------------------------------- crash-safe server

/// Hash of a deterministic SAMPLE draw — the golden-sample fingerprint the
/// recovery tests compare across restarts.
std::uint64_t sample_fingerprint(SynthServer& server, const std::string& model) {
    auto client = SynthClient::connect("127.0.0.1", server.port());
    const std::string csv = client.sample_csv(model, 64, 99);
    client.quit();
    EXPECT_FALSE(csv.empty());
    return bytes::fnv1a(csv);
}

TEST(CrashRecovery, RegistryComesBackWarmWithGoldenSamples) {
    const std::string dir = fresh_dir("recover_registry");
    ServerOptions options;
    options.snapshot_dir = dir;
    options.persist = true;
    std::uint16_t port = 0;
    std::uint64_t golden = 0;
    {
        SynthServer server(options);
        server.start();
        port = server.port();
        const Response r = server.handle(
            parse_request("TRAIN chaos-gold records=300 sim-seed=5 epochs=2 gan-seed=9"));
        ASSERT_TRUE(r.ok) << r.error;
        golden = sample_fingerprint(server, "chaos-gold");
        // kill -9 equivalent: no graceful snapshotting, no journal terminals.
        server.crash_stop();
    }

    ServerOptions recover = options;
    recover.port = port;
    recover.recover = true;
    SynthServer restarted(recover);
    restarted.start();
    EXPECT_NE(restarted.registry().get("chaos-gold"), nullptr)
        << "manifest models must come back without re-training";
    EXPECT_EQ(sample_fingerprint(restarted, "chaos-gold"), golden)
        << "recovered model must serve byte-identical samples";

    const Response stats = restarted.handle(parse_request("STATS"));
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_NE(stats.payload.find("recovered_models=1"), std::string::npos) << stats.payload;
    EXPECT_NE(stats.payload.find("persisted_models=1"), std::string::npos) << stats.payload;
    restarted.stop();
}

TEST(CrashRecovery, KeepsSnapshotsOfAnotherFormatVersion) {
    // A store written by a build with another snapshot format must survive
    // a restart on this one: the model is not served, but its file and
    // manifest entry stay so that build can still recover it.  Corruption
    // is still dropped.
    const std::string dir = fresh_dir("recover_version");
    ServerOptions options;
    options.snapshot_dir = dir;
    options.persist = true;
    {
        SynthServer server(options);
        server.start();
        const Response r = server.handle(
            parse_request("TRAIN chaos-old records=300 sim-seed=5 epochs=2 gan-seed=9"));
        ASSERT_TRUE(r.ok) << r.error;
        server.crash_stop();
    }
    std::string old_format;
    {
        PersistentStore store(dir);
        const auto manifest = store.manifest();
        ASSERT_EQ(manifest.size(), 1U);
        const std::string current = store.load("chaos-old");
        old_format = current;
        const std::uint32_t version = kSnapshotVersion - 1;
        std::memcpy(old_format.data() + kSnapshotMagic.size(), &version, sizeof(version));
        store.store(manifest[0], old_format);
        std::string corrupt = current;
        corrupt.back() = static_cast<char>(corrupt.back() ^ 0x5a);
        store.store(DigestEntry{"chaos-bad", 1, 0, 0}, corrupt);
    }

    ServerOptions recover = options;
    recover.recover = true;
    SynthServer restarted(recover);
    restarted.start();
    EXPECT_EQ(restarted.registry().get("chaos-old"), nullptr);
    EXPECT_EQ(restarted.registry().get("chaos-bad"), nullptr);
    const Response stats = restarted.handle(parse_request("STATS"));
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_NE(stats.payload.find("recovered_models=0"), std::string::npos) << stats.payload;
    EXPECT_NE(stats.payload.find("skipped_models=1"), std::string::npos) << stats.payload;
    restarted.stop();

    const PersistentStore store(dir);
    const auto manifest = store.manifest();
    ASSERT_EQ(manifest.size(), 1U) << "the corrupt entry goes, the old-format one stays";
    EXPECT_EQ(manifest[0].name, "chaos-old");
    EXPECT_EQ(store.load("chaos-old"), old_format);
}

TEST(CrashRecovery, InterruptedJobIsFailedAndResubmitted) {
    const std::string dir = fresh_dir("recover_jobs");
    const std::string train_line =
        "TRAIN chaos-int records=300 sim-seed=5 epochs=2 gan-seed=9 async=1";
    {
        // Forge the exact on-disk state a kill -9 mid-TRAIN leaves behind:
        // a journaled submit with no terminal record.
        PersistentStore store(dir);
        JobJournal journal(store.journal_path());
        journal.append_submit(1, 2, "chaos-int", train_line);
        journal.append_submit(2, 2, "chaos-done", "");
        journal.append_terminal(2, JobState::done, "");
    }

    ServerOptions options;
    options.snapshot_dir = dir;
    options.recover = true;
    SynthServer server(options);
    server.start();

    auto client = SynthClient::connect("127.0.0.1", server.port());
    // The interrupted job is terminal-failed with the canonical reason...
    const auto job1 = client.poll_job(1);
    EXPECT_EQ(job1.at("state"), "failed");
    EXPECT_NE(job1.at("error").find("interrupted"), std::string::npos) << job1.at("error");
    // ...the journaled terminal record is POLLable again...
    EXPECT_EQ(client.poll_job(2).at("state"), "done");
    // ...and the resumable request line was resubmitted as a fresh job.
    const auto resubmitted = client.wait_for_job(3, 200);
    EXPECT_EQ(resubmitted.at("state"), "done")
        << (resubmitted.count("error") != 0U ? resubmitted.at("error") : "");
    EXPECT_NE(server.registry().get("chaos-int"), nullptr);

    const Response stats = server.handle(parse_request("STATS"));
    EXPECT_NE(stats.payload.find("recovered_jobs=2"), std::string::npos) << stats.payload;
    EXPECT_NE(stats.payload.find("resubmitted_jobs=1"), std::string::npos) << stats.payload;

    // Determinism contract: the resubmitted run equals a clean one.
    SynthServer reference;
    reference.start();
    const Response r = reference.handle(parse_request(
        "TRAIN chaos-int records=300 sim-seed=5 epochs=2 gan-seed=9"));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(sample_fingerprint(server, "chaos-int"),
              sample_fingerprint(reference, "chaos-int"));
    reference.stop();
    client.quit();
    server.stop();
}

TEST(CrashRecovery, DrainStopsAdmissionThenStops) {
    SynthServer server;
    server.start();
    const std::uint16_t port = server.port();
    auto client = SynthClient::connect("127.0.0.1", port);
    client.ping();
    server.drain(2000);
    EXPECT_FALSE(server.running());
    ClientOptions copts;
    copts.connect_timeout_ms = 500;
    copts.connect_attempts = 1;
    EXPECT_THROW((void)SynthClient::connect("127.0.0.1", port, copts), Error);
}

// ------------------------------------------------ REPLICATE rejection codes

class ReplicateErrors : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        dir_ = new std::string(fresh_dir("replicate_" + first_selected_case()));
        std::filesystem::create_directories(*dir_);
        ServerOptions options;
        options.snapshot_dir = *dir_;
        server_ = new SynthServer(options);
        server_->start();
        const Response r = server_->handle(
            parse_request("TRAIN rep-src records=300 sim-seed=5 epochs=2 gan-seed=9"));
        ASSERT_TRUE(r.ok) << r.error;
        // SAVE writes the exact container REPLICATE carries on the wire.
        auto client = SynthClient::connect("127.0.0.1", server_->port());
        client.save("rep-src", "rep-src.snap");
        client.quit();
        std::ifstream in(*dir_ + "/rep-src.snap", std::ios::binary);
        ASSERT_TRUE(in.good());
        container_ = new std::string(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
        ASSERT_FALSE(container_->empty());
    }
    /// ctest runs every case as its own process, in parallel, and each
    /// runs this fixture's suite setup: naming the directory after the case
    /// the process selected keeps one case from wiping another's snapshots.
    static std::string first_selected_case() {
        const ::testing::TestSuite* suite =
            ::testing::UnitTest::GetInstance()->current_test_suite();
        for (int i = 0; i < suite->total_test_count(); ++i) {
            if (suite->GetTestInfo(i)->should_run()) {
                return suite->GetTestInfo(i)->name();
            }
        }
        return "none";
    }
    static void TearDownTestSuite() {
        delete server_;
        server_ = nullptr;
        delete container_;
        container_ = nullptr;
        std::filesystem::remove_all(*dir_);
        delete dir_;
        dir_ = nullptr;
    }

    static SynthServer* server_;
    static std::string* container_;
    static std::string* dir_;
};

SynthServer* ReplicateErrors::server_ = nullptr;
std::string* ReplicateErrors::container_ = nullptr;
std::string* ReplicateErrors::dir_ = nullptr;

TEST_F(ReplicateErrors, ValidContainerIsAccepted) {
    auto client = SynthClient::connect("127.0.0.1", server_->port());
    client.replicate("rep-copy", *container_);
    EXPECT_NE(server_->registry().get("rep-copy"), nullptr);
    client.quit();
}

TEST_F(ReplicateErrors, OversizeDeclarationIsCodedPermanent) {
    auto stream = TcpStream::connect("127.0.0.1", server_->port());
    stream.set_recv_timeout(5000);
    stream.write_all("REPLICATE big 999999999999\n");
    const auto line = stream.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("ERR ", 0), 0U) << *line;
    EXPECT_EQ(error_code(line->substr(4)), kBodyTooLargeCode) << *line;
    EXPECT_FALSE(is_retryable_error(line->substr(4)));
}

TEST_F(ReplicateErrors, CorruptPayloadIsChecksumMismatch) {
    std::string corrupt = *container_;
    corrupt.back() = static_cast<char>(corrupt.back() ^ 0x5a);
    auto client = SynthClient::connect("127.0.0.1", server_->port());
    try {
        client.replicate("rep-bad", corrupt);
        FAIL() << "corrupt container must be rejected";
    } catch (const Error& e) {
        std::string_view message = e.what();
        if (message.rfind("server: ", 0) == 0) {
            message.remove_prefix(8);
        }
        EXPECT_EQ(error_code(message), kChecksumMismatchCode) << e.what();
        EXPECT_FALSE(is_retryable_error(message));
    }
    EXPECT_EQ(server_->registry().get("rep-bad"), nullptr);
    client.quit();
}

TEST_F(ReplicateErrors, GarbageBytesAreBadSnapshot) {
    auto client = SynthClient::connect("127.0.0.1", server_->port());
    try {
        client.replicate("rep-junk", "these bytes are not a snapshot container");
        FAIL() << "junk container must be rejected";
    } catch (const Error& e) {
        std::string_view message = e.what();
        if (message.rfind("server: ", 0) == 0) {
            message.remove_prefix(8);
        }
        EXPECT_EQ(error_code(message), kBadSnapshotCode) << e.what();
    }
    client.quit();
}

TEST_F(ReplicateErrors, TruncatedBodyIsShortBody) {
    auto stream = TcpStream::connect("127.0.0.1", server_->port());
    stream.set_recv_timeout(5000);
    stream.write_all("REPLICATE short 100\n");
    stream.write_all("only ten b");  // 10 of the declared 100 bytes
    // Half-close the send side: the server sees EOF with a short body and
    // must answer with the coded rejection, not silently drop the line.
    ASSERT_EQ(::shutdown(stream.fd(), SHUT_WR), 0);
    const auto line = stream.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("ERR ", 0), 0U) << *line;
    EXPECT_EQ(error_code(line->substr(4)), kShortBodyCode) << *line;
    EXPECT_FALSE(is_retryable_error(line->substr(4)));
    EXPECT_EQ(server_->registry().get("short"), nullptr);
}

// -------------------------------------------------------------- FAULT op

TEST(FaultOp, IsAdminGatedAndControlsFailpoints) {
    FailpointGuard guard;
    {
        SynthServer locked;  // enable_failpoints defaults to off
        locked.start();
        const Response denied = locked.handle(parse_request("FAULT registry.evict spec=error"));
        EXPECT_FALSE(denied.ok);
        locked.stop();
    }

    ServerOptions options;
    options.enable_failpoints = true;
    SynthServer server(options);
    server.start();
    auto client = SynthClient::connect("127.0.0.1", server.port());

    Request arm;
    arm.op = Op::fault;
    arm.positional.push_back("registry.evict");
    arm.kv["spec"] = "delay,ms=0";
    (void)client.rpc(arm);
    EXPECT_TRUE(failpoint::armed());

    Request status;
    status.op = Op::fault;
    const Response view = client.rpc(status);
    EXPECT_NE(view.payload.find("registry.evict"), std::string::npos) << view.payload;

    Request unknown = arm;
    unknown.positional[0] = "no.such.site";
    EXPECT_THROW((void)client.rpc(unknown), Error);

    arm.kv["spec"] = "off";
    (void)client.rpc(arm);
    EXPECT_FALSE(failpoint::armed());
    client.quit();
    server.stop();
}

// ------------------------------------------------------- client reconnect

TEST(ClientReconnect, BudgetedReconnectSurvivesServerRestart) {
    ServerOptions options;
    SynthServer first(options);
    first.start();
    const std::uint16_t port = first.port();

    ClientOptions copts;
    copts.connect_timeout_ms = 2000;
    copts.recv_timeout_ms = 5000;
    copts.reconnect_on_reset = true;
    copts.reconnect_attempts = 3;
    copts.reconnect_backoff_ms = 20;
    auto client = SynthClient::connect("127.0.0.1", port, copts);
    client.ping();

    first.stop();
    ServerOptions same_port;
    same_port.port = port;
    SynthServer second(same_port);
    second.start();

    // The pooled socket died with the first server; the budgeted reconnect
    // loop must land the request on the second without surfacing an error.
    client.ping();
    client.quit();
    second.stop();
}

TEST(ClientReconnect, InjectedSendFaultSurfacesWithoutRetry) {
    FailpointGuard guard;
    SynthServer server;
    server.start();
    ClientOptions copts;
    copts.reconnect_on_reset = true;
    copts.reconnect_attempts = 5;
    auto client = SynthClient::connect("127.0.0.1", server.port(), copts);
    client.ping();

    // Injected failpoint errors are permanent, not transport resets: the
    // reconnect budget must NOT be spent retrying them.
    failpoint::configure("socket.send", "error,times=1");
    EXPECT_THROW(client.ping(), Error);
    failpoint::reset_all();
    client.ping();  // the connection itself was never damaged
    client.quit();
    server.stop();
}

// ------------------------------------------------------------ chaos fleet

ClusterConfig chaos_fleet_config(const std::vector<PeerAddress>& addrs,
                                 std::size_t self_index) {
    ClusterConfig cfg;
    cfg.self = addrs[self_index];
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (i != self_index) {
            cfg.peers.push_back(addrs[i]);
        }
    }
    cfg.replicas = 2;
    // Probes and anti-entropy run only when the test drives them: the
    // background prober sleeps far past the test's lifetime, so every state
    // transition below is an explicit, deterministic step.
    cfg.probe_interval_ms = 60000;
    cfg.anti_entropy_interval_ms = 0;
    cfg.connect_timeout_ms = 1000;
    cfg.peer_timeout_ms = 30000;
    cfg.rpc_retries = 0;  // failures count immediately, no hidden sleeps
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.open_ms = 60000;  // stays open until a probe closes it
    return cfg;
}

/// First model name whose ring preference list is exactly [owner, replica].
std::string model_placed_on(const ClusterService& cluster, const std::string& owner,
                            const std::string& replica, const std::string& tag) {
    for (int i = 0; i < 8192; ++i) {
        const std::string name = tag + "-" + std::to_string(i);
        const auto pref = cluster.preference(name);
        if (pref.size() == 2 && pref[0] == owner && pref[1] == replica) {
            return name;
        }
    }
    ADD_FAILURE() << "ring never placed a name on [" << owner << ", " << replica << "]";
    return tag + "-unplaced";
}

TEST(ChaosFleet, CrashLoopedMemberReconvergesViaAntiEntropy) {
    const std::string dir = fresh_dir("fleet_member1");
    std::vector<std::unique_ptr<SynthServer>> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        ServerOptions options;
        options.train_workers = 2;
        if (i == 1) {
            options.snapshot_dir = dir;
            options.persist = true;
        }
        servers.push_back(std::make_unique<SynthServer>(options));
        servers[i]->start();
        addrs.push_back(PeerAddress{"127.0.0.1", servers[i]->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(chaos_fleet_config(addrs, i));
    }
    const std::string node0 = addrs[0].name();
    const std::string node1 = addrs[1].name();
    const std::string node2 = addrs[2].name();

    // One model per role: `survivor` lives on node0, `victim` on the member
    // we crash-loop (node1, the persisting one), `repair` is owned by node0
    // with node1 as its designated replica — the anti-entropy target.
    const std::string survivor = model_placed_on(*servers[0]->cluster(), node0, node2, "sv");
    const std::string victim = model_placed_on(*servers[1]->cluster(), node1, node0, "vc");
    const std::string repair = model_placed_on(*servers[0]->cluster(), node0, node1, "rp");
    for (const auto& [index, model] :
         std::vector<std::pair<std::size_t, std::string>>{{0, survivor}, {1, victim}}) {
        const Response r = servers[index]->handle(parse_request(
            "TRAIN " + model + " records=300 sim-seed=5 epochs=2 gan-seed=9"));
        ASSERT_TRUE(r.ok) << r.error;
    }
    const std::uint64_t victim_golden = sample_fingerprint(*servers[1], victim);

    // ---- crash node1 mid-stream: the client was consuming a forwarded
    // stream of the victim model through node0 when its owner died.
    auto client = SynthClient::connect("127.0.0.1", servers[0]->port());
    bool crashed = false;
    try {
        (void)client.sample_stream(
            victim, 50000, 31,
            [&](const std::string&) {
                if (!crashed) {
                    crashed = true;
                    servers[1]->crash_stop();
                    servers[1].reset();
                }
            },
            /*chunk_rows=*/64);
        FAIL() << "stream must abort when the owner dies mid-flight";
    } catch (const Error&) {
    }
    ASSERT_TRUE(crashed);

    // ---- survivors keep serving their own models.
    servers[0]->cluster()->probe_now();
    servers[2]->cluster()->probe_now();
    EXPECT_FALSE(servers[0]->cluster()->peer_up(node1));
    auto via_node2 = SynthClient::connect("127.0.0.1", servers[2]->port());
    EXPECT_FALSE(via_node2.sample_csv(survivor, 32, 7).empty());
    via_node2.quit();

    // ---- the breaker on node0 opens deterministically after the threshold
    // of failed RPCs toward the dead member, then fails fast with the
    // retryable coded rejection.
    Request ping;
    ping.op = Op::ping;
    for (int i = 0; i < 2; ++i) {
        EXPECT_THROW((void)servers[0]->cluster()->forward(node1, ping), Error);
    }
    try {
        (void)servers[0]->cluster()->forward(node1, ping);
        FAIL() << "third RPC must be rejected by the open breaker";
    } catch (const Error& e) {
        EXPECT_EQ(error_code(e.what()), kBreakerOpenCode) << e.what();
        EXPECT_TRUE(is_retryable_error(e.what()));
    }
    EXPECT_GE(servers[0]->cluster()->breaker_rejections.load(), 1U);
    EXPECT_NE(servers[0]->cluster()->render_stats().find(".breaker=open"),
              std::string::npos);

    // ---- FEDTRAIN while the member is down: the job completes, the live
    // peer gets the snapshot, the dead one is skipped fast (breaker open).
    auto fed = SynthClient::connect("127.0.0.1", servers[0]->port());
    TrainSpec spec;
    spec.records = 300;
    spec.sim_seed = 5;
    spec.epochs = 2;
    spec.gan_seed = 9;
    const std::uint64_t job = fed.fedtrain_async(repair, spec);
    const auto done = fed.wait_for_job(job, 500);
    EXPECT_TRUE(done.at("state") == "done" || done.at("state") == "failed");
    fed.quit();
    ASSERT_NE(servers[0]->registry().get(repair), nullptr);
    EXPECT_NE(servers[2]->registry().get(repair), nullptr)
        << "publish must still reach live peers";

    // ---- crash-loop closes: restart node1 on its old port, recovering the
    // persisted registry from disk.
    ServerOptions revived;
    revived.train_workers = 2;
    revived.snapshot_dir = dir;
    revived.recover = true;
    revived.port = addrs[1].port;
    servers[1] = std::make_unique<SynthServer>(revived);
    servers[1]->start();
    servers[1]->enable_cluster(chaos_fleet_config(addrs, 1));
    ASSERT_NE(servers[1]->registry().get(victim), nullptr)
        << "restart must recover the registry from the manifest";
    EXPECT_EQ(sample_fingerprint(*servers[1], victim), victim_golden);

    // ---- a probe round heals node0's view: peer up again, breaker closed.
    servers[0]->cluster()->probe_now();
    EXPECT_TRUE(servers[0]->cluster()->peer_up(node1));
    EXPECT_NE(servers[0]->cluster()->render_stats().find(".breaker=closed"),
              std::string::npos);

    // ---- anti-entropy: node1 is the designated replica of `repair` but
    // missed its FEDTRAIN publish while dead; one round pulls it across and
    // the digests converge.
    EXPECT_EQ(servers[1]->registry().get(repair), nullptr);
    EXPECT_GE(servers[1]->anti_entropy_now(), 1U);
    const auto repaired = servers[1]->registry().get(repair);
    ASSERT_NE(repaired, nullptr);
    const auto source = servers[0]->registry().get(repair);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(repaired->revision, source->revision);
    EXPECT_EQ(repaired->checksum, source->checksum);
    // A second round finds nothing left to repair — convergence.
    EXPECT_EQ(servers[1]->anti_entropy_now(), 0U);

    const Response stats = servers[1]->handle(parse_request("STATS"));
    EXPECT_NE(stats.payload.find("repairs=1"), std::string::npos) << stats.payload;
    EXPECT_NE(stats.payload.find("recovered_models="), std::string::npos) << stats.payload;

    // The repaired copy serves byte-identical samples to the source.
    EXPECT_EQ(sample_fingerprint(*servers[1], repair), sample_fingerprint(*servers[0], repair));

    client.quit();
    for (auto& server : servers) {
        if (server != nullptr) {
            server->stop();
        }
    }
}

TEST(ChaosFleet, InjectedRpcFaultsTripTheBreakerDeterministically) {
    FailpointGuard guard;
    std::vector<std::unique_ptr<SynthServer>> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 2; ++i) {
        servers.push_back(std::make_unique<SynthServer>());
        servers[i]->start();
        addrs.push_back(PeerAddress{"127.0.0.1", servers[i]->port()});
    }
    for (std::size_t i = 0; i < 2; ++i) {
        servers[i]->enable_cluster(chaos_fleet_config(addrs, i));
    }
    const std::string peer = addrs[1].name();
    // Let the prober's initial round (fired by enable_cluster) finish before
    // arming, so it cannot consume the injection budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    servers[0]->cluster()->probe_now();

    // cluster.rpc error injections are classified permanent, so each one
    // consumes no retry budget and counts straight toward the threshold (2).
    failpoint::configure("cluster.rpc", "error,times=2");
    Request ping;
    ping.op = Op::ping;
    EXPECT_THROW((void)servers[0]->cluster()->forward(peer, ping), Error);
    EXPECT_THROW((void)servers[0]->cluster()->forward(peer, ping), Error);
    EXPECT_EQ(failpoint::hits("cluster.rpc"), 2U);
    try {
        (void)servers[0]->cluster()->forward(peer, ping);
        FAIL() << "breaker must be open after two injected failures";
    } catch (const Error& e) {
        EXPECT_EQ(error_code(e.what()), kBreakerOpenCode) << e.what();
    }
    EXPECT_EQ(servers[0]->cluster()->rpc_retries.load(), 0U)
        << "permanent injections must not burn the retry budget";

    // The peer was healthy all along: one probe (bypassing admission)
    // records a success and snaps the breaker closed again.
    failpoint::reset_all();
    servers[0]->cluster()->probe_now();
    const Response relayed = servers[0]->cluster()->forward(peer, ping);
    EXPECT_TRUE(relayed.ok) << relayed.error;

    for (auto& server : servers) {
        server->stop();
    }
}

// ------------------------------------------------- membership under churn

/// Binds an ephemeral port, releases it, and returns the number, so a ring
/// that includes a not-yet-started member can be computed up front.
std::uint16_t chaos_reserve_port() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    KINET_CHECK(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    KINET_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                "bind() failed");
    socklen_t len = sizeof(addr);
    KINET_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                "getsockname() failed");
    ::close(fd);
    return ntohs(addr.sin_port);
}

TEST(ChaosMembership, JoinUnderLoadServesEveryRequestAndMovesOwnership) {
    std::vector<std::unique_ptr<SynthServer>> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        ServerOptions options;
        options.train_workers = 2;
        servers.push_back(std::make_unique<SynthServer>(options));
        servers[i]->start();
        addrs.push_back(PeerAddress{"127.0.0.1", servers[i]->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(chaos_fleet_config(addrs, i));
    }
    const PeerAddress joiner_addr{"127.0.0.1", chaos_reserve_port()};

    // Two models chosen against the pre- and post-join rings: `stable`
    // never changes owner, `moved` transfers to the joiner.  The load runs
    // against `stable` through node0 for the whole join window.
    std::vector<std::string> new_nodes;
    for (const auto& addr : addrs) {
        new_nodes.push_back(addr.name());
    }
    new_nodes.push_back(joiner_addr.name());
    const HashRing new_ring(new_nodes, ClusterConfig{}.virtual_nodes);
    const auto& old_cluster = *servers[0]->cluster();
    std::string stable;
    std::string moved;
    for (int i = 0; i < 8192 && (stable.empty() || moved.empty()); ++i) {
        const std::string name = "churn-" + std::to_string(i);
        const std::string old_owner = old_cluster.owner_of(name);
        const std::string new_owner = new_ring.owner_of(name);
        if (stable.empty() && old_owner == new_owner) {
            stable = name;
        }
        if (moved.empty() && new_owner == joiner_addr.name()) {
            moved = name;
        }
    }
    ASSERT_FALSE(stable.empty());
    ASSERT_FALSE(moved.empty());
    for (const std::string& model : {stable, moved}) {
        for (auto& server : servers) {
            if (server->cluster()->self_name() == old_cluster.owner_of(model)) {
                const Response r = server->handle(parse_request(
                    "TRAIN " + model + " records=300 sim-seed=5 epochs=2 gan-seed=9"));
                ASSERT_TRUE(r.ok) << r.error;
            }
        }
    }
    const std::uint64_t stable_golden = sample_fingerprint(*servers[0], stable);
    const std::uint64_t moved_golden = sample_fingerprint(*servers[0], moved);

    // Sustained SAMPLE load through node0 while the membership changes
    // under it.  Retryable rejections are absorbed by the client loop; any
    // *permanent* error during the join is a correctness failure.
    std::atomic<bool> stop_load{false};
    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> permanent{0};
    std::thread load([&] {
        try {
            ClientOptions copts;
            copts.reconnect_on_reset = true;
            copts.reconnect_attempts = 5;
            copts.reconnect_backoff_ms = 10;
            auto client = SynthClient::connect("127.0.0.1", addrs[0].port, copts);
            while (!stop_load.load()) {
                try {
                    if (client.sample_csv(stable, 16, 3).empty()) {
                        permanent.fetch_add(1);
                    } else {
                        served.fetch_add(1);
                    }
                } catch (const Error& e) {
                    std::string_view message = e.what();
                    if (message.rfind("server: ", 0) == 0) {
                        message.remove_prefix(8);
                    }
                    if (!is_retryable_error(message)) {
                        permanent.fetch_add(1);
                    }
                }
            }
            client.quit();
        } catch (const Error&) {
            permanent.fetch_add(1);
        }
    });

    // The join happens in the middle of the load window.
    while (served.load() < 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ServerOptions joiner_options;
    joiner_options.train_workers = 2;
    joiner_options.port = joiner_addr.port;
    SynthServer joiner(joiner_options);
    joiner.start();
    ClusterConfig tuning = chaos_fleet_config({joiner_addr}, 0);
    joiner.join_fleet(tuning, addrs[0]);
    // Deterministic dissemination: explicit probe rounds walk the epoch out
    // to every original member.
    for (int round = 0; round < 3; ++round) {
        for (auto& server : servers) {
            server->cluster()->probe_now();
        }
    }
    const std::size_t served_before_stop = served.load();
    while (served.load() < served_before_stop + 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop_load.store(true);
    load.join();

    EXPECT_EQ(permanent.load(), 0U)
        << "join must never surface a permanent error to clients";
    EXPECT_GE(served.load(), 10U);

    // Ownership of `moved` transferred, its snapshot travelled with it, and
    // the new owner serves bit-exact seeded samples.
    for (auto& server : servers) {
        EXPECT_EQ(server->cluster()->owner_of(moved), joiner_addr.name());
        EXPECT_EQ(server->cluster()->epoch(), joiner.cluster()->epoch());
    }
    ASSERT_NE(joiner.registry().get(moved), nullptr);
    EXPECT_EQ(sample_fingerprint(joiner, moved), moved_golden);
    EXPECT_EQ(sample_fingerprint(*servers[0], stable), stable_golden);
    EXPECT_GE(joiner.cluster()->handoff_snapshots.load(), 1U);

    joiner.stop();
    for (auto& server : servers) {
        server->stop();
    }
}

TEST(ChaosMembership, OwnerKilledMidHandoffIsRepairedByAntiEntropy) {
    FailpointGuard guard;
    std::vector<std::unique_ptr<SynthServer>> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        ServerOptions options;
        options.train_workers = 2;
        servers.push_back(std::make_unique<SynthServer>(options));
        servers[i]->start();
        addrs.push_back(PeerAddress{"127.0.0.1", servers[i]->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(chaos_fleet_config(addrs, i));
    }
    const PeerAddress joiner_addr{"127.0.0.1", chaos_reserve_port()};

    // A model owned by node1 today, with node2 as its designated replica,
    // that the post-join ring hands to the joiner.  After node1 is killed,
    // node2's replica copy is the surviving anti-entropy source — and since
    // dissemination is parked, node2 never adopts the new epoch during the
    // test, so no background rebalance can push the snapshot and race the
    // explicit repair below.
    std::vector<std::string> new_nodes;
    for (const auto& addr : addrs) {
        new_nodes.push_back(addr.name());
    }
    new_nodes.push_back(joiner_addr.name());
    const HashRing new_ring(new_nodes, ClusterConfig{}.virtual_nodes);
    std::string moved;
    for (int i = 0; i < 8192 && moved.empty(); ++i) {
        const std::string name = "handoff-" + std::to_string(i);
        const auto old_pref = servers[0]->cluster()->preference(name);
        if (old_pref.size() == 2 && old_pref[0] == addrs[1].name() &&
            old_pref[1] == addrs[2].name() &&
            new_ring.owner_of(name) == joiner_addr.name()) {
            moved = name;
        }
    }
    ASSERT_FALSE(moved.empty());
    const Response trained = servers[1]->handle(parse_request(
        "TRAIN " + moved + " records=300 sim-seed=5 epochs=2 gan-seed=9"));
    ASSERT_TRUE(trained.ok) << trained.error;
    // One anti-entropy round seeds the replica copy on node2.
    EXPECT_GE(servers[2]->anti_entropy_now(), 1U);
    ASSERT_NE(servers[2]->registry().get(moved), nullptr);
    const std::uint64_t golden = sample_fingerprint(*servers[1], moved);

    // Sever every snapshot handoff for the whole join window — the
    // rebalancer keeps retrying on each epoch change and keeps failing —
    // then kill the old owner -9.  The transfer is torn on both ends.
    failpoint::configure("cluster.handoff", "error");
    ServerOptions joiner_options;
    joiner_options.train_workers = 2;
    joiner_options.port = joiner_addr.port;
    SynthServer joiner(joiner_options);
    joiner.start();
    ClusterConfig tuning = chaos_fleet_config({joiner_addr}, 0);
    joiner.join_fleet(tuning, addrs[0]);
    EXPECT_EQ(joiner.registry().get(moved), nullptr)
        << "the severed handoff must not have delivered the snapshot";
    EXPECT_GE(joiner.cluster()->handoff_failures.load(), 1U);
    servers[1]->crash_stop();
    servers[1].reset();

    // Epoch-aware anti-entropy completes the move: the joiner owns `moved`
    // under the adopted epoch, sees it in node2's digest, and pulls the
    // surviving replica copy — bit-exact.  The handoff failpoint stays
    // armed (the guard disarms it at scope exit): anti-entropy uses its own
    // pull path, which proves the repair is not a lucky rebalance retry.
    EXPECT_GE(joiner.anti_entropy_now(), 1U);
    ASSERT_NE(joiner.registry().get(moved), nullptr)
        << "anti-entropy must finish the interrupted handoff";
    EXPECT_EQ(sample_fingerprint(joiner, moved), golden);
    EXPECT_EQ(sample_fingerprint(*servers[2], moved), golden);
    // Convergence: a second round has nothing left to repair.
    EXPECT_EQ(joiner.anti_entropy_now(), 0U);

    joiner.stop();
    for (auto& server : servers) {
        if (server != nullptr) {
            server->stop();
        }
    }
}

TEST(ChaosMembership, LeaveAndRejoinKeepsTheEpochStrictlyMonotonic) {
    std::vector<std::unique_ptr<SynthServer>> servers;
    std::vector<PeerAddress> addrs;
    for (std::size_t i = 0; i < 3; ++i) {
        ServerOptions options;
        if (i == 2) {
            options.port = chaos_reserve_port();  // the churning member
        }
        servers.push_back(std::make_unique<SynthServer>(options));
        servers[i]->start();
        addrs.push_back(PeerAddress{"127.0.0.1", servers[i]->port()});
    }
    for (std::size_t i = 0; i < 3; ++i) {
        servers[i]->enable_cluster(chaos_fleet_config(addrs, i));
    }
    // One explicit probe round first: dissemination from a draining member
    // rides the pooled per-peer connections that continuous probing keeps
    // warm (a draining listener rejects *new* connections).
    for (auto& server : servers) {
        server->cluster()->probe_now();
    }
    std::vector<std::uint64_t> epochs;
    epochs.push_back(servers[0]->cluster()->epoch());

    // LEAVE: node2 hands off, disseminates its final view, and drains.
    Request leave;
    leave.op = Op::leave;
    leave.model = addrs[2].name();
    const Response left = servers[2]->handle(leave);
    ASSERT_TRUE(left.ok) << left.error;
    for (int round = 0; round < 3; ++round) {
        servers[0]->cluster()->probe_now();
        servers[1]->cluster()->probe_now();
    }
    epochs.push_back(servers[0]->cluster()->epoch());
    EXPECT_EQ(servers[0]->cluster()->view().members.size(), 2U);
    EXPECT_EQ(servers[0]->cluster()->epoch(), servers[1]->cluster()->epoch());
    servers[2]->stop();
    servers[2].reset();

    // Rejoin under the same identity (same host:port).  The survivors'
    // epoch keeps climbing — the re-admitted member must never be confused
    // with its previous incarnation.
    ServerOptions rejoin_options;
    rejoin_options.port = addrs[2].port;
    servers[2] = std::make_unique<SynthServer>(rejoin_options);
    servers[2]->start();
    ClusterConfig tuning = chaos_fleet_config({addrs[2]}, 0);
    servers[2]->join_fleet(tuning, addrs[0]);
    for (int round = 0; round < 3; ++round) {
        for (auto& server : servers) {
            server->cluster()->probe_now();
        }
    }
    epochs.push_back(servers[0]->cluster()->epoch());
    for (auto& server : servers) {
        EXPECT_EQ(server->cluster()->epoch(), epochs.back());
        EXPECT_EQ(server->cluster()->view().members.size(), 3U);
        EXPECT_EQ(server->cluster()->view().find(addrs[2].name())->state,
                  MemberState::active);
    }
    for (std::size_t i = 1; i < epochs.size(); ++i) {
        EXPECT_GT(epochs[i], epochs[i - 1]) << "epochs must be strictly monotonic";
    }

    for (auto& server : servers) {
        server->stop();
    }
}

}  // namespace
