// Service-layer tests: protocol parsing, the model registry under concurrent
// access, the request handler, and the full TCP path with concurrent clients
// drawing deterministic per-request sample streams.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/csv.hpp"
#include "src/core/kinetgan.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/registry.hpp"
#include "src/service/server.hpp"

namespace {

using namespace kinet;        // NOLINT
using namespace kinet::service;  // NOLINT

// ---------------------------------------------------------------- protocol

TEST(Protocol, ParsesSampleRequest) {
    const Request r = parse_request("SAMPLE site-0 500 seed=17 cond=protocol:TCP");
    EXPECT_EQ(r.op, Op::sample);
    EXPECT_EQ(r.model, "site-0");
    ASSERT_EQ(r.positional.size(), 1U);
    EXPECT_EQ(r.positional[0], "500");
    EXPECT_EQ(r.kv.at("seed"), "17");
    EXPECT_EQ(r.kv.at("cond"), "protocol:TCP");
}

TEST(Protocol, OpsAreCaseInsensitiveAndWhitespaceTolerant) {
    const Request r = parse_request("  train   site-1   epochs=5  ");
    EXPECT_EQ(r.op, Op::train);
    EXPECT_EQ(r.model, "site-1");
    EXPECT_EQ(r.kv.at("epochs"), "5");
}

TEST(Protocol, StatsModelIsOptional) {
    EXPECT_TRUE(parse_request("STATS").model.empty());
    EXPECT_EQ(parse_request("STATS site-2").model, "site-2");
}

TEST(Protocol, RejectsMalformedRequests) {
    EXPECT_THROW((void)parse_request(""), Error);
    EXPECT_THROW((void)parse_request("FROBNICATE x"), Error);
    EXPECT_THROW((void)parse_request("SAMPLE"), Error);          // missing model
    EXPECT_THROW((void)parse_request("SAMPLE site-0"), Error);   // missing count
    EXPECT_THROW((void)parse_request("LOAD site-0"), Error);     // missing path
    EXPECT_THROW((void)parse_request("SAMPLE seed=1 5"), Error);  // kv where model expected
}

TEST(Protocol, RequestFormatRoundTrips) {
    Request r;
    r.op = Op::sample;
    r.model = "m";
    r.positional.push_back("64");
    r.kv["seed"] = "9";
    const Request parsed = parse_request(format_request(r));
    EXPECT_EQ(parsed.op, r.op);
    EXPECT_EQ(parsed.model, r.model);
    EXPECT_EQ(parsed.positional, r.positional);
    EXPECT_EQ(parsed.kv, r.kv);
}

TEST(Protocol, ResponseFraming) {
    Response ok;
    ok.payload = "a,b\n1,2\n";
    EXPECT_EQ(format_response(ok), "OK 8\na,b\n1,2\n");
    Response err;
    err.ok = false;
    err.error = "bad\nthing";
    EXPECT_EQ(format_response(err), "ERR bad thing\n");  // newline sanitised
}

TEST(Protocol, TypedKvHelpers) {
    const Request r = parse_request("VALIDATE m n=250 frac=0.5 bad=zz");
    EXPECT_EQ(kv_u64(r, "n", 1), 250U);
    EXPECT_EQ(kv_u64(r, "absent", 7), 7U);
    EXPECT_DOUBLE_EQ(kv_double(r, "frac", 0.0), 0.5);
    EXPECT_THROW((void)kv_u64(r, "bad", 0), Error);
    EXPECT_EQ(kv_string(r, "bad", ""), "zz");
    EXPECT_EQ(kv_string(r, "absent", "dflt"), "dflt");
}

TEST(Protocol, KvDoubleRejectsNonFiniteValues) {
    // std::stod parses all of these happily; a nan attack= would poison the
    // fit silently, so the protocol layer must reject them.
    for (const char* bad : {"nan", "NaN", "inf", "-inf", "INF", "1e999", "-1e999"}) {
        const Request r = parse_request(std::string("TRAIN m attack=") + bad);
        EXPECT_THROW((void)kv_double(r, "attack", 1.0), Error) << bad;
    }
    const Request ok = parse_request("TRAIN m attack=-2.5");
    EXPECT_DOUBLE_EQ(kv_double(ok, "attack", 1.0), -2.5);  // finite: parse-level OK
}

TEST(Protocol, QueueFullHelpers) {
    const Response r = queue_full_response("request queue at capacity (8); retry");
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(is_queue_full_message(r.error)) << r.error;
    // The client prepends "server: " when surfacing ERR responses; the
    // matcher must see through it so retry loops can classify the throw.
    EXPECT_TRUE(is_queue_full_message("server: " + r.error));
    EXPECT_FALSE(is_queue_full_message("no model named queue_full"));
    EXPECT_FALSE(is_queue_full_message("server: something else"));
}

TEST(Protocol, ParsesJobOps) {
    const Request poll = parse_request("POLL 17");
    EXPECT_EQ(poll.op, Op::poll);
    EXPECT_TRUE(poll.model.empty());
    ASSERT_EQ(poll.positional.size(), 1U);
    EXPECT_EQ(poll.positional[0], "17");
    EXPECT_EQ(parse_request("CANCEL 3").op, Op::cancel);
    EXPECT_EQ(parse_request("JOBS").op, Op::jobs);
    EXPECT_THROW((void)parse_request("POLL"), Error);    // missing job id
    EXPECT_THROW((void)parse_request("CANCEL"), Error);  // missing job id
}

// ---------------------------------------------------------------- fixtures

core::KiNetGanOptions tiny_options(std::uint64_t seed) {
    core::KiNetGanOptions opts;
    opts.gan.epochs = 2;
    opts.gan.batch_size = 64;
    opts.gan.hidden_dim = 32;
    opts.gan.noise_dim = 16;
    opts.gan.seed = seed;
    opts.transformer.max_modes = 3;
    return opts;
}

std::unique_ptr<core::KiNetGan> tiny_model(std::uint64_t seed = 1) {
    netsim::LabSimOptions sim;
    sim.records = 400;
    sim.seed = 11;
    const auto table = netsim::LabTrafficSimulator(sim).generate();
    const auto kg = kg::NetworkKg::build_lab();
    auto model = std::make_unique<core::KiNetGan>(
        kg.make_oracle(), netsim::lab_conditional_columns(), tiny_options(seed));
    model->fit(table);
    return model;
}

// ---------------------------------------------------------------- registry

TEST(ModelRegistry, PutGetEraseNames) {
    ModelRegistry registry;
    EXPECT_EQ(registry.size(), 0U);
    EXPECT_EQ(registry.get("a"), nullptr);
    registry.put("b", tiny_model(2));
    registry.put("a", tiny_model(3));
    EXPECT_EQ(registry.size(), 2U);
    EXPECT_NE(registry.get("a"), nullptr);
    EXPECT_EQ(registry.names(), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(registry.erase("a"));
    EXPECT_FALSE(registry.erase("a"));
    EXPECT_EQ(registry.size(), 1U);
}

TEST(ModelRegistry, RejectsUnfittedModels) {
    ModelRegistry registry;
    const auto kg = kg::NetworkKg::build_lab();
    auto unfitted = std::make_unique<core::KiNetGan>(
        kg.make_oracle(), netsim::lab_conditional_columns(), tiny_options(1));
    EXPECT_THROW(registry.put("x", std::move(unfitted)), Error);
    EXPECT_THROW(registry.put("", tiny_model()), Error);
}

TEST(ModelRegistry, ConcurrentReadersAndWritersStaySane) {
    ModelRegistry registry;
    registry.put("shared", tiny_model(4));
    // A get()ed entry must stay valid even when the name is concurrently
    // replaced — readers hold the shared_ptr, not the map slot.
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> lookups{0};
    std::vector<std::thread> readers;
    readers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                auto entry = registry.get("shared");
                ASSERT_NE(entry, nullptr);
                const kinet::MutexLock lock(entry->mu);
                ASSERT_TRUE(entry->model->is_fitted());
                lookups.fetch_add(1);
            }
        });
    }
    for (int i = 0; i < 3; ++i) {
        registry.put("shared", tiny_model(5 + static_cast<std::uint64_t>(i)));
    }
    stop.store(true);
    for (auto& t : readers) {
        t.join();
    }
    EXPECT_GT(lookups.load(), 0U);
}

TEST(ModelRegistry, MemoryBudgetEvictsLeastRecentlyUsed) {
    auto a = tiny_model(2);
    auto b = tiny_model(3);
    auto c = tiny_model(4);
    ModelRegistry registry;
    registry.put("a", std::move(a));
    const std::uint64_t one = registry.memory_bytes();
    ASSERT_GT(one, 0U);
    // Room for two models of this shape, not three.
    registry.set_limits(one * 2 + one / 2, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    registry.put("b", std::move(b));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_NE(registry.get("a"), nullptr);  // refresh a: b becomes the LRU
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    registry.put("c", std::move(c));
    EXPECT_EQ(registry.size(), 2U);
    EXPECT_EQ(registry.get("b"), nullptr) << "LRU entry should have been evicted";
    EXPECT_NE(registry.get("a"), nullptr);
    EXPECT_NE(registry.get("c"), nullptr);
    EXPECT_EQ(registry.evictions(), 1U);
    EXPECT_LE(registry.memory_bytes(), one * 2 + one / 2);
}

TEST(ModelRegistry, BudgetNeverEvictsTheJustRegisteredModel) {
    ModelRegistry registry;
    registry.set_limits(1, 0);  // absurdly small: every model exceeds it
    registry.put("only", tiny_model(2));
    EXPECT_NE(registry.get("only"), nullptr);
    registry.put("next", tiny_model(3));
    // The newcomer survives; the previous sole occupant is the victim.
    EXPECT_EQ(registry.size(), 1U);
    EXPECT_NE(registry.get("next"), nullptr);
    EXPECT_EQ(registry.get("only"), nullptr);
}

TEST(ModelRegistry, TtlExpiresIdleEntriesAndKeepsBusyOnes) {
    auto old_model = tiny_model(2);
    auto fresh_model = tiny_model(3);
    ModelRegistry registry;
    registry.set_limits(0, 40);
    registry.put("old", std::move(old_model));
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    registry.put("fresh", std::move(fresh_model));
    EXPECT_EQ(registry.evict_expired(), 1U);
    EXPECT_EQ(registry.get("old"), nullptr);
    EXPECT_NE(registry.get("fresh"), nullptr);
    EXPECT_EQ(registry.evictions(), 1U);
    // A get() refreshes the clock, so a touched entry survives the sweep.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_NE(registry.get("fresh"), nullptr);
    EXPECT_EQ(registry.evict_expired(), 0U);
}

TEST(ModelRegistry, EraseAndReplaceKeepByteAccountingConsistent) {
    // Differently-seeded models serialize to slightly different sizes, so
    // the test tracks the accounting by differences, not by equal sizes.
    ModelRegistry registry;
    registry.put("m", tiny_model(2));
    const std::uint64_t first = registry.memory_bytes();
    ASSERT_GT(first, 0U);
    registry.put("m", tiny_model(3));  // replace, not accumulate
    const std::uint64_t replaced = registry.memory_bytes();
    EXPECT_GT(replaced, 0U);
    EXPECT_LT(replaced, first * 2) << "replacement double-counted";
    registry.put("n", tiny_model(4));
    const std::uint64_t both = registry.memory_bytes();
    EXPECT_GT(both, replaced);
    EXPECT_TRUE(registry.erase("n"));
    EXPECT_EQ(registry.memory_bytes(), replaced);
    EXPECT_TRUE(registry.erase("m"));
    EXPECT_EQ(registry.memory_bytes(), 0U);
}

// ------------------------------------------------------------ stream cursor

TEST(StreamCursor, PullMatchesPushStreamForAnyChunkSize) {
    const auto model = tiny_model(6);
    constexpr std::size_t kRows = 333;
    constexpr std::uint64_t kSeed = 77;

    std::string pushed;
    std::uint64_t pushed_rows = 0;
    model->sample_seeded_stream(kRows, kSeed, 0, [&](const data::Table& chunk) {
        csv::serialize_append(chunk.to_csv(), pushed_rows == 0, pushed);
        pushed_rows += chunk.rows();
    });
    ASSERT_EQ(pushed_rows, kRows);

    for (const std::size_t chunk_rows :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{1000}}) {
        auto cursor = model->open_sample_cursor(kRows, kSeed, chunk_rows);
        std::string pulled;
        std::size_t chunks = 0;
        std::size_t rows = 0;
        while (const data::Table* chunk = cursor->next()) {
            if (rows + chunk->rows() < kRows) {
                EXPECT_EQ(chunk->rows(), chunk_rows) << "only the last chunk may be short";
            }
            csv::serialize_append(chunk->to_csv(), chunks == 0, pulled);
            rows += chunk->rows();
            ++chunks;
        }
        EXPECT_EQ(rows, kRows) << "chunk=" << chunk_rows;
        EXPECT_EQ(pulled, pushed) << "chunk=" << chunk_rows;
        EXPECT_EQ(cursor->next(), nullptr) << "exhausted cursor must stay exhausted";
    }
}

TEST(StreamCursor, ConditionalPullMatchesConditionalPush) {
    const auto model = tiny_model(6);
    constexpr std::size_t kRows = 96;
    std::string pushed;
    std::uint64_t pushed_rows = 0;
    model->sample_conditional_seeded_stream(
        kRows, "protocol", "TCP", 5, 0, [&](const data::Table& chunk) {
            csv::serialize_append(chunk.to_csv(), pushed_rows == 0, pushed);
            pushed_rows += chunk.rows();
        });
    auto cursor = model->open_sample_cursor(kRows, 5, 30, "protocol", "TCP");
    std::string pulled;
    std::size_t chunks = 0;
    while (const data::Table* chunk = cursor->next()) {
        csv::serialize_append(chunk->to_csv(), chunks == 0, pulled);
        ++chunks;
    }
    EXPECT_EQ(pulled, pushed);
}

TEST(StreamCursor, RejectsBadArguments) {
    const auto model = tiny_model(6);
    EXPECT_THROW((void)model->open_sample_cursor(10, 1, 0), Error);  // chunk >= 1
    EXPECT_THROW((void)model->open_sample_cursor(10, 1, 8, "protocol", "NOPE"), Error);
}

// ----------------------------------------------------------------- server

/// Shared server fixture: TRAINs one small model once for the whole suite.
class ServerTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        ServerOptions options;
        // Client-supplied snapshot paths are confined to this directory.
        options.snapshot_dir = ::testing::TempDir();
        server_ = new SynthServer(options);
        server_->start();
        const Request train = parse_request(
            "TRAIN site-0 records=400 sim-seed=11 epochs=2 gan-seed=1");
        const Response r = server_->handle(train);
        ASSERT_TRUE(r.ok) << r.error;
    }
    static void TearDownTestSuite() {
        delete server_;
        server_ = nullptr;
    }

    static SynthServer* server_;
};

SynthServer* ServerTest::server_ = nullptr;

TEST_F(ServerTest, PingAndStats) {
    EXPECT_EQ(server_->handle(parse_request("PING")).payload, "pong\n");
    const Response stats = server_->handle(parse_request("STATS site-0"));
    ASSERT_TRUE(stats.ok);
    const auto kv = parse_kv_payload(stats.payload);
    EXPECT_EQ(kv.at("epochs_trained"), "2");
    const Response global = server_->handle(parse_request("STATS"));
    EXPECT_NE(global.payload.find("models=1"), std::string::npos);
}

TEST_F(ServerTest, SampleIsDeterministicPerSeed) {
    const Request req = parse_request("SAMPLE site-0 100 seed=21");
    const Response a = server_->handle(req);
    const Response b = server_->handle(req);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.payload, b.payload);  // same seed, same stream
    const Response c = server_->handle(parse_request("SAMPLE site-0 100 seed=22"));
    EXPECT_NE(a.payload, c.payload);  // different seed, different stream
    EXPECT_EQ(csv::parse(a.payload).rows.size(), 100U);
}

TEST_F(ServerTest, ConditionalSampleAndValidate) {
    const Response cond =
        server_->handle(parse_request("SAMPLE site-0 50 seed=3 cond=protocol:TCP"));
    ASSERT_TRUE(cond.ok) << cond.error;
    EXPECT_EQ(csv::parse(cond.payload).rows.size(), 50U);
    const Response bad =
        server_->handle(parse_request("SAMPLE site-0 50 seed=3 cond=nonsense"));
    EXPECT_FALSE(bad.ok);

    const Response val = server_->handle(parse_request("VALIDATE site-0 n=200 seed=5"));
    ASSERT_TRUE(val.ok) << val.error;
    const auto kv = parse_kv_payload(val.payload);
    const double validity = std::stod(kv.at("validity"));
    EXPECT_GE(validity, 0.0);
    EXPECT_LE(validity, 1.0);
}

TEST_F(ServerTest, ErrorsComeBackAsErrResponses) {
    EXPECT_FALSE(server_->handle(parse_request("SAMPLE ghost 10")).ok);
    EXPECT_FALSE(server_->handle(parse_request("SAMPLE site-0 nonsense")).ok);
    EXPECT_FALSE(server_->handle(parse_request("DROP ghost")).ok);
    EXPECT_FALSE(server_->handle(parse_request("LOAD ghost /nonexistent.snap")).ok);
    // Hostile row counts must be rejected up front, not ground through:
    // "-1" would wrap to 2^64-1 under a lax stoull parse.
    EXPECT_FALSE(server_->handle(parse_request("SAMPLE site-0 -1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("SAMPLE site-0 100garbage")).ok);
    EXPECT_FALSE(server_->handle(parse_request("SAMPLE site-0 980000000000")).ok);
    EXPECT_FALSE(server_->handle(parse_request("VALIDATE site-0 n=980000000000")).ok);
}

TEST_F(ServerTest, SnapshotRoundTripThroughServer) {
    // Relative path, resolved inside the server's snapshot_dir.
    const std::string name = "kinet_service_roundtrip.snap";
    ASSERT_TRUE(server_->handle(parse_request("SAVE site-0 " + name)).ok);
    ASSERT_TRUE(server_->handle(parse_request("LOAD site-0-copy " + name)).ok);
    // Identical stream seed -> identical CSV from original and restored model.
    const Response a = server_->handle(parse_request("SAMPLE site-0 80 seed=900"));
    const Response b = server_->handle(parse_request("SAMPLE site-0-copy 80 seed=900"));
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.payload, b.payload);
    ASSERT_TRUE(server_->handle(parse_request("DROP site-0-copy")).ok);
    std::remove((::testing::TempDir() + name).c_str());
}

TEST_F(ServerTest, SnapshotPathsAreConfinedToSnapshotDir) {
    // LOAD/SAVE take client-supplied paths; without confinement they are an
    // arbitrary filesystem read/write primitive.
    const Response abs = server_->handle(parse_request("SAVE site-0 /tmp/evil.snap"));
    ASSERT_FALSE(abs.ok);
    EXPECT_NE(abs.error.find("absolute"), std::string::npos) << abs.error;
    const Response dotdot = server_->handle(parse_request("SAVE site-0 ../evil.snap"));
    ASSERT_FALSE(dotdot.ok);
    EXPECT_NE(dotdot.error.find("escapes"), std::string::npos) << dotdot.error;
    EXPECT_FALSE(server_->handle(parse_request("SAVE site-0 a/../../evil.snap")).ok);
    EXPECT_FALSE(server_->handle(parse_request("LOAD m /etc/passwd")).ok);
    EXPECT_FALSE(server_->handle(parse_request("LOAD m ../../etc/passwd")).ok);
    // Nested relative paths inside the directory stay allowed (the missing
    // subdirectory makes SAVE fail at I/O, not at confinement).
    const Response nested = server_->handle(parse_request("LOAD m sub/dir/none.snap"));
    ASSERT_FALSE(nested.ok);
    EXPECT_EQ(nested.error.find("escapes"), std::string::npos) << nested.error;
    EXPECT_EQ(nested.error.find("absolute"), std::string::npos) << nested.error;
}

TEST_F(ServerTest, TrainRejectsHostileArguments) {
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m attack=nan epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m attack=inf epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m attack=-1 epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m split-frac=1.0 epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m split-frac=-0.1 epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m split-frac=nan epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m epochs=0")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m domain=ponies epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m source=ftp:x epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m source=csv:/etc/passwd epochs=1")).ok);
    EXPECT_FALSE(server_->handle(parse_request("TRAIN m source=csv:../x.csv epochs=1")).ok);
}

TEST_F(ServerTest, ConcurrentClientsGetDeterministicStreamsOverTcp) {
    constexpr std::size_t kClients = 5;  // >= 4 per the acceptance criteria
    constexpr std::size_t kRows = 60;

    // Reference payloads, fetched serially first.
    std::vector<std::string> expected(kClients);
    {
        auto client = SynthClient::connect("127.0.0.1", server_->port());
        for (std::size_t c = 0; c < kClients; ++c) {
            expected[c] = client.sample_csv("site-0", kRows, 1000 + c);
        }
        client.quit();
    }

    // Now the same requests race from concurrent connections; every client
    // must still receive exactly its seed's stream.
    std::vector<std::string> actual(kClients);
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                auto client = SynthClient::connect("127.0.0.1", server_->port());
                client.ping();
                actual[c] = client.sample_csv("site-0", kRows, 1000 + c);
                (void)client.validate("site-0", 50, c);  // interleave other ops
                client.quit();
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
        EXPECT_EQ(actual[c], expected[c]) << "client " << c << " got a different stream";
    }
}

TEST_F(ServerTest, StreamingSampleReassemblesToTheFramedResponse) {
    constexpr std::size_t kRows = 150;
    auto client = SynthClient::connect("127.0.0.1", server_->port());
    const std::string framed = client.sample_csv("site-0", kRows, 77);

    // The streamed chunks must concatenate to the byte-identical CSV, for
    // any chunk size, with the header only in the first chunk.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{40}, std::size_t{64},
                                    std::size_t{1000}}) {
        std::string reassembled;
        std::size_t chunks = 0;
        const std::uint64_t rows = client.sample_stream(
            "site-0", kRows, 77,
            [&](const std::string& part) {
                if (chunks > 0) {
                    EXPECT_EQ(part.find("src_device"), std::string::npos)
                        << "header repeated in chunk " << chunks;
                }
                reassembled += part;
                ++chunks;
            },
            chunk);
        EXPECT_EQ(rows, kRows) << "chunk=" << chunk;
        EXPECT_EQ(reassembled, framed) << "chunk=" << chunk;
    }
    // A zero-row framed SAMPLE is exactly the header line.
    EXPECT_EQ(client.sample_csv("site-0", 0, 77), framed.substr(0, framed.find('\n') + 1));
    // Conditional streaming matches the framed conditional response too.
    const std::string cond_framed = client.sample_csv("site-0", 64, 9, "protocol:TCP");
    std::string cond_streamed;
    (void)client.sample_stream(
        "site-0", 64, 9, [&](const std::string& part) { cond_streamed += part; }, 30,
        "protocol:TCP");
    EXPECT_EQ(cond_streamed, cond_framed);
    client.quit();
}

TEST_F(ServerTest, StreamingSampleErrorsAndConnectionReuse) {
    auto client = SynthClient::connect("127.0.0.1", server_->port());
    // Pre-stream failures arrive as ordinary ERR responses…
    EXPECT_THROW((void)client.sample_stream(
                     "ghost", 10, 1, [](const std::string&) {}),
                 Error);
    EXPECT_THROW((void)client.sample_stream(
                     "site-0", 10, 1, [](const std::string&) {}, /*chunk_rows=*/0,
                     "cond-without-colon"),
                 Error);
    // …and the connection keeps serving afterwards, streaming included.
    client.ping();
    std::string csv_text;
    EXPECT_EQ(client.sample_stream("site-0", 25, 3,
                                   [&](const std::string& part) { csv_text += part; }),
              25U);
    EXPECT_EQ(csv::parse(csv_text).rows.size(), 25U);
    // A zero-row stream still carries a well-formed trailer.
    std::size_t calls = 0;
    EXPECT_EQ(client.sample_stream("site-0", 0, 3,
                                   [&](const std::string&) { ++calls; }),
              0U);
    EXPECT_EQ(calls, 0U);
    client.quit();
}

TEST_F(ServerTest, StreamingLiftsTheRowCapButBoundsChunks) {
    // 980000000000 rows is rejected on the framed path (memory cap) but
    // accepted by the parser on the streaming path — don't actually pull
    // it; just check the cap message steers to stream=1 and that hostile
    // chunk sizes are rejected up front.
    const Response capped = server_->handle(parse_request("SAMPLE site-0 980000000000"));
    ASSERT_FALSE(capped.ok);
    EXPECT_NE(capped.error.find("stream=1"), std::string::npos) << capped.error;

    auto stream = TcpStream::connect("127.0.0.1", server_->port());
    stream.write_all("SAMPLE site-0 10 stream=1 chunk=0\n");
    auto err = stream.read_line();
    ASSERT_TRUE(err.has_value());
    EXPECT_TRUE(err->rfind("ERR ", 0) == 0) << *err;
    stream.write_all("SAMPLE site-0 10 stream=1 chunk=980000000000\n");
    err = stream.read_line();
    ASSERT_TRUE(err.has_value());
    EXPECT_TRUE(err->rfind("ERR ", 0) == 0) << *err;
    stream.write_all("QUIT\n");
}

TEST_F(ServerTest, ConcurrentStreamingClientsShareOneModelSnapshot) {
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kRows = 90;
    std::vector<std::string> expected(kClients);
    {
        auto client = SynthClient::connect("127.0.0.1", server_->port());
        for (std::size_t c = 0; c < kClients; ++c) {
            expected[c] = client.sample_csv("site-0", kRows, 4000 + c);
        }
        client.quit();
    }
    std::vector<std::string> actual(kClients);
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                auto client = SynthClient::connect("127.0.0.1", server_->port());
                (void)client.sample_stream(
                    "site-0", kRows, 4000 + c,
                    [&](const std::string& part) { actual[c] += part; },
                    /*chunk_rows=*/32);
                client.quit();
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
        EXPECT_EQ(actual[c], expected[c]) << "client " << c;
    }
}

TEST_F(ServerTest, ManyConcurrentMultiBatchFramedSamplesDoNotExhaustThePool) {
    // Framed SAMPLE handlers run as submitted pool tasks, so nothing on the
    // multi-batch sampling path may wait on another submitted task — the
    // deadlock the ThreadPool contract forbids.  If it did, enough
    // concurrent multi-batch requests to occupy every worker would hang
    // exactly here.
    constexpr std::size_t kClients = 8;
    constexpr std::size_t kRows = 300;  // > batch_size: multiple generation batches
    std::string expected;
    {
        auto client = SynthClient::connect("127.0.0.1", server_->port());
        expected = client.sample_csv("site-0", kRows, 31337);
        client.quit();
    }
    std::vector<std::string> actual(kClients);
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                auto client = SynthClient::connect("127.0.0.1", server_->port());
                actual[c] = client.sample_csv("site-0", kRows, 31337);
                client.quit();
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
        EXPECT_EQ(actual[c], expected) << "client " << c;
    }
}

TEST_F(ServerTest, TcpProtocolErrorsDoNotKillTheConnection) {
    auto stream = TcpStream::connect("127.0.0.1", server_->port());
    stream.write_all("NOT-AN-OP\n");
    auto err = stream.read_line();
    ASSERT_TRUE(err.has_value());
    EXPECT_TRUE(err->rfind("ERR ", 0) == 0) << *err;
    // The connection survives and serves the next request.
    stream.write_all("PING\n");
    auto ok = stream.read_line();
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, "OK 5");
    (void)stream.read_exact(5);
    stream.write_all("QUIT\n");
}

TEST_F(ServerTest, GlobalStatsExposesTheMetricsSurface) {
    // Generate some traffic so the op histograms have content.
    auto client = SynthClient::connect("127.0.0.1", server_->port());
    client.ping();
    (void)client.sample_csv("site-0", 20, 1);
    const Response global = server_->handle(parse_request("STATS"));
    ASSERT_TRUE(global.ok);
    const auto kv = parse_kv_payload(global.payload);
    // The original fields survive (clients parse models=)...
    EXPECT_EQ(kv.at("models"), "1");
    ASSERT_NE(kv.find("jobs"), kv.end());
    // ...plus the serving metrics block.
    for (const char* key :
         {"uptime_seconds", "connections", "connections_peak", "connections_accepted",
          "connections_refused", "requests_handled", "queue_depth",
          "queue_full_rejections", "streams_opened", "streams_active",
          "stream_suspensions", "rows_served", "rows_per_sec", "bytes_out",
          "model_cache_bytes", "model_cache_evictions"}) {
        EXPECT_NE(kv.find(key), kv.end()) << "missing STATS key " << key;
    }
    EXPECT_GE(std::stoull(kv.at("connections_accepted")), 1U);
    EXPECT_GE(std::stoull(kv.at("rows_served")), 20U);
    // Per-op latency lines appear once an op has traffic.
    EXPECT_NE(global.payload.find("op_SAMPLE count="), std::string::npos) << global.payload;
    EXPECT_NE(global.payload.find("p99_us="), std::string::npos);
    client.quit();
}

TEST(SynthServerLifecycle, StopUnblocksIdleConnections) {
    SynthServer server;
    server.start();
    auto client = SynthClient::connect("127.0.0.1", server.port());
    client.ping();
    // stop() must shut down the idle connection rather than hang on join.
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(SynthServerLifecycle, RestartAfterStopServesAgain) {
    SynthServer server;
    server.start();
    {
        auto client = SynthClient::connect("127.0.0.1", server.port());
        client.ping();
    }
    server.stop();
    server.start();
    auto client = SynthClient::connect("127.0.0.1", server.port());
    client.ping();
    server.stop();
}

// ------------------------------------------------------- admission control

TEST(AdmissionControl, ConnectionCapRefusesExcessClientsWithQueueFull) {
    ServerOptions options;
    options.max_connections = 1;
    SynthServer server(options);
    server.start();

    auto first = SynthClient::connect("127.0.0.1", server.port());
    first.ping();  // occupies the single slot
    // The second connection is accepted at the TCP level (listen backlog)
    // but refused by admission control with a queue_full ERR before any
    // request is served.
    auto second = SynthClient::connect("127.0.0.1", server.port(),
                                       ClientOptions{.recv_timeout_ms = 5000});
    try {
        second.ping();
        FAIL() << "over-cap connection was served";
    } catch (const Error& e) {
        EXPECT_TRUE(is_queue_full_message(e.what())) << e.what();
    }
    // The admitted connection keeps working, and the refusal was counted.
    first.ping();
    EXPECT_GE(server.metrics().connections_refused.load(), 1U);
    first.quit();
    server.stop();
}

// --------------------------------------------------------- client timeouts

TEST(SynthClientTimeouts, RecvTimeoutFiresAgainstASilentServer) {
    // A listener that never answers: accepted by the kernel, served by
    // nobody.  Without a recv timeout rpc() would block forever.
    auto listener = TcpListener::bind_loopback(0);
    ClientOptions options;
    options.recv_timeout_ms = 150;
    auto client = SynthClient::connect("127.0.0.1", listener.port(), options);
    Request ping;
    ping.op = Op::ping;
    const auto before = std::chrono::steady_clock::now();
    try {
        (void)client.rpc(ping);
        FAIL() << "rpc against a silent server returned";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
    }
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - before);
    EXPECT_LT(waited.count(), 5000) << "timeout took far longer than configured";
}

TEST(SynthClientTimeouts, ConnectTimeoutIsBounded) {
    // A listener whose accept queue is full drops further SYNs on the
    // floor (Linux default), so the connect can only end by timeout.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(fd, 1), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const std::uint16_t port = ntohs(addr.sin_port);

    // Fill the never-drained accept queue; attempts start timing out once
    // it is full.
    std::vector<TcpStream> fillers;
    for (int i = 0; i < 4; ++i) {
        try {
            fillers.push_back(TcpStream::connect("127.0.0.1", port, 200));
        } catch (const Error&) {
            break;
        }
    }
    const auto before = std::chrono::steady_clock::now();
    try {
        (void)TcpStream::connect("127.0.0.1", port, 150);
        FAIL() << "connect against a full accept queue returned";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
    }
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - before);
    EXPECT_LT(waited.count(), 5000);
    ::close(fd);
}

TEST(SynthClientTimeouts, ServerDeathMidStreamSurfacesAsAnError) {
    // Train a private server (the shared fixture must keep running) and
    // kill it while a stream is in flight: the client must get an error
    // promptly — never a hang — and the recv timeout is the backstop.
    ServerOptions options;
    auto* server = new SynthServer(options);
    server->start();
    const Response trained = server->handle(
        parse_request("TRAIN m records=400 sim-seed=11 epochs=2 gan-seed=1"));
    ASSERT_TRUE(trained.ok) << trained.error;

    ClientOptions copts;
    copts.recv_timeout_ms = 5000;
    auto client = SynthClient::connect("127.0.0.1", server->port(), copts);
    std::size_t chunks = 0;
    try {
        (void)client.sample_stream(
            "m", 500000, 3,
            [&](const std::string&) {
                if (++chunks == 2) {
                    // Stopping the server closes the connection under the
                    // client's feet mid-stream.
                    server->stop();
                }
            },
            /*chunk_rows=*/100);
        FAIL() << "stream against a killed server completed";
    } catch (const Error&) {
        EXPECT_GE(chunks, 2U);
    }
    delete server;
}

}  // namespace
