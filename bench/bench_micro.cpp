// Micro-benchmarks of the core kernels (google-benchmark): matmul, one GAN
// training step, KG oracle compilation + queries, transformer encode, and
// the conditional sampler.  These justify the bench-scale configurations and
// document where the training time goes.
//
// `--json FILE` writes the machine-readable google-benchmark JSON report to
// FILE (shorthand for --benchmark_out=FILE --benchmark_out_format=json); CI
// uploads it as the perf-regression artifact.  All other flags pass through
// to google-benchmark.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/kinetgan.hpp"
#include "src/data/sampler.hpp"
#include "src/data/transformer.hpp"
#include "src/kg/network_kg.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/netsim/unsw_synthesizer.hpp"
#include "src/nn/nn.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/service/snapshot.hpp"
#include "src/service/socket.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/ops.hpp"

namespace {

using namespace kinet;  // NOLINT
using tensor::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return m;
}

void BM_Matmul(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::matmul(a, b));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->UseRealTime();

// The transposed-operand kernels read A (resp. B) with a column stride;
// packing should make them track plain matmul closely.
void BM_MatmulTN(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(21);
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::matmul_tn(a, b));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulTN)->Arg(256)->UseRealTime();

void BM_MatmulNT(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(22);
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulNT)->Arg(256)->UseRealTime();

// The Linear-layer hot path: GEMM with the bias row fused into the
// epilogue, at a GAN-step-like rectangular shape.
void BM_MatmulBias(benchmark::State& state) {
    Rng rng(23);
    const Matrix a = random_matrix(256, 96, rng);
    const Matrix b = random_matrix(96, 256, rng);
    const Matrix bias = random_matrix(1, 256, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::matmul_bias(a, b, bias));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * 256 * 96 * 256));
}
BENCHMARK(BM_MatmulBias)->UseRealTime();

// The inference fast path's GEMM: B packed once, reused every call.  The
// delta against BM_MatmulBias (same shape, per-call packing) is the
// packing overhead the serving path no longer pays.
void BM_MatmulPacked(benchmark::State& state) {
    Rng rng(25);
    const Matrix a = random_matrix(256, 96, rng);
    const Matrix b = random_matrix(96, 256, rng);
    const Matrix bias = random_matrix(1, 256, rng);
    const tensor::PackedGemmB packed = tensor::pack_gemm_b(b);
    Matrix out;
    for (auto _ : state) {
        tensor::matmul_packed_bias_into(a, packed, bias, out);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * 256 * 96 * 256));
}
BENCHMARK(BM_MatmulPacked)->UseRealTime();

void BM_MatmulPacked512(benchmark::State& state) {
    Rng rng(26);
    const Matrix a = random_matrix(512, 512, rng);
    const Matrix b = random_matrix(512, 512, rng);
    const tensor::PackedGemmB packed = tensor::pack_gemm_b(b);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::matmul_packed(a, packed));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2ULL * 512 * 512 * 512));
}
BENCHMARK(BM_MatmulPacked512)->UseRealTime();

// Tall-skinny products (the discriminator head is n == 1): n < NR takes
// the no-pad path instead of zero-padding every strip to the register
// width.
void BM_MatmulTallSkinny(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(27);
    const Matrix a = random_matrix(512, 128, rng);
    const Matrix b = random_matrix(128, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::matmul(a, b));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * 512 * 128 * n));
}
BENCHMARK(BM_MatmulTallSkinny)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();

void BM_Transpose(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(24);
    const Matrix a = random_matrix(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::transpose(a));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Transpose)->Arg(1024);

void BM_MlpForwardBackward(benchmark::State& state) {
    Rng rng(2);
    nn::Sequential net;
    net.emplace<nn::Linear>(96, 128, rng);
    net.emplace<nn::BatchNorm1d>(128);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Linear>(128, 128, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Linear>(128, 64, rng);
    const Matrix x = random_matrix(128, 96, rng);
    const Matrix g = random_matrix(128, 64, rng);
    for (auto _ : state) {
        net.zero_grad();
        benchmark::DoNotOptimize(net.forward(x, true));
        benchmark::DoNotOptimize(net.backward(g));
    }
}
BENCHMARK(BM_MlpForwardBackward)->UseRealTime();

// Rows/s of training: one lab fit of one epoch over 2000 rows (encoder
// fit, then 15 steps of batch 128) — the cost a site pays per FEDTRAIN
// epoch.  UseRealTime: the encoder's loops may fan out over the pool.
void BM_FitEpoch(benchmark::State& state) {
    constexpr std::size_t kRows = 2000;
    netsim::LabSimOptions sim;
    sim.records = kRows;
    sim.seed = 11;
    const data::Table table = netsim::LabTrafficSimulator(sim).generate();
    core::KiNetGanOptions opts;
    opts.gan.epochs = 1;
    opts.gan.seed = 7;
    opts.transformer.max_modes = 3;
    core::KiNetGan model(kg::NetworkKg::build_lab().make_oracle(),
                         netsim::lab_conditional_columns(), opts);
    for (auto _ : state) {
        model.fit(table);
        benchmark::DoNotOptimize(model.last_cond_adherence());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_FitEpoch)->UseRealTime();

void BM_KgBuildAndCompileOracle(benchmark::State& state) {
    for (auto _ : state) {
        const auto kg = kg::NetworkKg::build_lab();
        benchmark::DoNotOptimize(kg.make_oracle());
    }
}
BENCHMARK(BM_KgBuildAndCompileOracle);

void BM_KgOracleQuery(benchmark::State& state) {
    const auto kg = kg::NetworkKg::build_lab();
    const auto oracle = kg.make_oracle();
    const std::vector<std::string> valid = {"camera", "UDP", "DNS", "53", "dns_query"};
    const std::vector<std::string> invalid = {"camera", "UDP", "DNS", "443", "dns_query"};
    for (auto _ : state) {
        benchmark::DoNotOptimize(oracle.is_valid(valid));
        benchmark::DoNotOptimize(oracle.is_valid(invalid));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_KgOracleQuery);

void BM_TransformerEncode(benchmark::State& state) {
    netsim::LabSimOptions opts;
    opts.records = 2000;
    const auto table = netsim::LabTrafficSimulator(opts).generate();
    Rng rng(3);
    data::TableTransformer tf;
    tf.fit(table, data::TransformerOptions{}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tf.transform(table, rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(table.rows()));
}
BENCHMARK(BM_TransformerEncode);

void BM_ConditionalSamplerDraw(benchmark::State& state) {
    netsim::LabSimOptions opts;
    opts.records = 4000;
    const auto table = netsim::LabTrafficSimulator(opts).generate();
    const data::ConditionalSampler sampler(table, netsim::lab_conditional_columns());
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sampler.draw(rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConditionalSamplerDraw);

// ------------------------------------------------- serving throughput

/// One trained model per paper domain, fitted once for the whole binary.
core::KiNetGan& sample_bench_model(bool unsw) {
    static const auto make = [](bool u) {
        core::KiNetGanOptions opts;
        opts.gan.epochs = 4;
        opts.gan.seed = 7;
        opts.transformer.max_modes = 3;
        data::Table table;
        if (u) {
            netsim::UnswOptions sim;
            sim.records = 1200;
            sim.seed = 11;
            table = netsim::UnswNb15Synthesizer(sim).generate();
        } else {
            netsim::LabSimOptions sim;
            sim.records = 1200;
            sim.seed = 11;
            table = netsim::LabTrafficSimulator(sim).generate();
        }
        const auto kg = u ? kg::NetworkKg::build_unsw() : kg::NetworkKg::build_lab();
        auto model = std::make_unique<core::KiNetGan>(
            kg.make_oracle(),
            u ? netsim::unsw_conditional_columns() : netsim::lab_conditional_columns(), opts);
        model->fit(table);
        return model;
    };
    static const std::unique_ptr<core::KiNetGan> lab = make(false);
    static const std::unique_ptr<core::KiNetGan> unsw_model = make(true);
    return unsw ? *unsw_model : *lab;
}

// Rows/s of the serving path (sample_seeded on the inference fast path).
// Thread count is the process-wide pool (KINET_NUM_THREADS); run once with
// KINET_NUM_THREADS=1 and once at the machine default for the scaling
// table in docs/performance.md.
void BM_SampleThroughput(benchmark::State& state) {
    const bool unsw = state.range(0) != 0;
    const auto& model = sample_bench_model(unsw);
    constexpr std::size_t kRows = 4096;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.sample_seeded(kRows, seed++));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kRows));
    state.SetLabel(unsw ? "unsw" : "lab");
}
BENCHMARK(BM_SampleThroughput)->Arg(0)->Arg(1)->UseRealTime();

// The same rows through the streaming sink (chunked, O(chunk) memory) —
// the SAMPLE stream=1 serving loop minus the socket.
void BM_SampleThroughputStreaming(benchmark::State& state) {
    const auto& model = sample_bench_model(false);
    constexpr std::size_t kRows = 4096;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        std::size_t rows = 0;
        model.sample_seeded_stream(kRows, seed++, 1024,
                                   [&rows](const data::Table& chunk) { rows += chunk.rows(); });
        benchmark::DoNotOptimize(rows);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_SampleThroughputStreaming)->UseRealTime();

// Rows/s of the sampling stream alone: the condition draws, noise and
// Gumbel draws of one 128-row lab generation batch — the RNG stage every
// served row pays before the generator runs.
void BM_SampleStreamFill(benchmark::State& state) {
    const auto& model = sample_bench_model(false);
    const std::size_t batch = model.options().gan.batch_size;
    core::KiNetGan::SampleBatchInputs inputs;
    std::uint64_t row0 = 0;
    for (auto _ : state) {
        model.produce_sample_batch(row0, batch, 0x5eed, std::nullopt, inputs);
        row0 += batch;
        benchmark::DoNotOptimize(inputs.input.data().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SampleStreamFill)->UseRealTime();

// Rows/s of the serving path's CSV writer alone: a sampled lab table
// written straight into a reused buffer, as each SAMPLE chunk is.
void BM_TableAppendCsv(benchmark::State& state) {
    const data::Table table = sample_bench_model(false).sample_seeded(4096, 1);
    std::string out;
    for (auto _ : state) {
        out.clear();
        table.append_csv(out, /*include_header=*/true);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(table.rows()));
}
BENCHMARK(BM_TableAppendCsv)->UseRealTime();

// End-to-end rows/s through a live server while Arg(0) idle connections sit
// parked on the epoll loop.  Flat numbers across the arg column are the
// event-driven core's selling point: parked sockets cost one epoll
// registration, not a thread.  The label carries the server-side SAMPLE p99
// from the STATS surface.
void BM_ServerConnections(benchmark::State& state) {
    const auto idle_target = static_cast<std::size_t>(state.range(0));

    // Parked sockets need fds beyond the conservative default soft limit.
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < idle_target + 512 &&
        lim.rlim_cur < lim.rlim_max) {
        rlimit want = lim;
        want.rlim_cur = std::min<rlim_t>(lim.rlim_max, idle_target + 512);
        ::setrlimit(RLIMIT_NOFILE, &want);
        ::getrlimit(RLIMIT_NOFILE, &lim);
    }

    service::ServerOptions opts;
    opts.port = 0;  // ephemeral
    opts.max_connections = idle_target + 64;
    service::SynthServer server(opts);
    server.registry().put("bench",
                          service::read_snapshot(service::write_snapshot(sample_bench_model(false))));
    server.start();

    std::vector<service::TcpStream> parked;
    parked.reserve(idle_target);
    const std::size_t park_cap =
        lim.rlim_cur > 256 ? static_cast<std::size_t>(lim.rlim_cur) - 256 : 0;
    for (std::size_t i = 0; i < idle_target && parked.size() < park_cap; ++i) {
        parked.push_back(service::TcpStream::connect("127.0.0.1", server.port()));
    }

    auto client = service::SynthClient::connect("127.0.0.1", server.port());
    constexpr std::size_t kRows = 4096;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const std::uint64_t rows = client.sample_stream(
            "bench", kRows, seed++, [](const std::string& /*chunk*/) {}, 512);
        benchmark::DoNotOptimize(rows);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kRows));

    // Surface the server-side SAMPLE p99 alongside the idle-connection count.
    std::string p99 = "n/a";
    {
        service::Request request;
        request.op = service::Op::stats;
        const std::string payload = client.rpc(request).payload;
        const std::size_t at = payload.find("op_SAMPLE ");
        if (at != std::string::npos) {
            const std::size_t p = payload.find("p99_us=", at);
            if (p != std::string::npos) {
                const std::size_t end = payload.find_first_of(" \n", p);
                p99 = payload.substr(p + 7, end - (p + 7));
            }
        }
    }
    state.SetLabel("idle=" + std::to_string(parked.size()) + " p99_us=" + p99);

    client.quit();
    parked.clear();
    server.stop();
}
BENCHMARK(BM_ServerConnections)->Arg(0)->Arg(256)->Arg(1024)->UseRealTime();

// Rows/s of a framed SAMPLE through a 2-node fleet.  Arg(0) asks the owner
// directly (the forwarding-free baseline); Arg(1) asks the non-owner, which
// proxies the request to the owner over its pooled peer connection and
// relays the bytes.  The delta is the cluster hop's full cost: one extra
// request parse, one peer RPC, one payload copy.
void BM_ClusterForward(benchmark::State& state) {
    const bool forwarded = state.range(0) != 0;

    service::SynthServer owner_node;
    service::SynthServer edge_node;
    owner_node.start();
    edge_node.start();
    const std::vector<service::PeerAddress> addrs = {
        {"127.0.0.1", owner_node.port()}, {"127.0.0.1", edge_node.port()}};
    for (std::size_t i = 0; i < 2; ++i) {
        service::ClusterConfig cfg;
        cfg.self = addrs[i];
        cfg.peers.push_back(addrs[1 - i]);
        cfg.probe_interval_ms = 1000;
        (i == 0 ? owner_node : edge_node).enable_cluster(cfg);
    }
    // A model name the ring places on owner_node (ports are ephemeral, so
    // the name is found, not fixed), registered there only.
    std::string model;
    for (int i = 0; i < 4096 && model.empty(); ++i) {
        const std::string candidate = "bench-fwd-" + std::to_string(i);
        if (owner_node.cluster()->owns(candidate)) {
            model = candidate;
        }
    }
    owner_node.registry().put(
        model, service::read_snapshot(service::write_snapshot(sample_bench_model(false))));

    auto client = service::SynthClient::connect(
        "127.0.0.1", forwarded ? edge_node.port() : owner_node.port());
    constexpr std::size_t kRows = 512;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(client.sample_csv(model, kRows, seed++));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kRows));
    state.SetLabel(forwarded ? "forwarded" : "owner-direct");

    client.quit();
    edge_node.stop();
    owner_node.stop();
}
BENCHMARK(BM_ClusterForward)->Arg(0)->Arg(1)->UseRealTime();

void BM_RebalanceHandoff(benchmark::State& state) {
    // One epoch-change rebalance round that pulls a single snapshot to the
    // node that just became its owner — the per-model price of a
    // membership change.
    service::SynthServer source_node;
    service::SynthServer new_owner;
    source_node.start();
    new_owner.start();
    const std::vector<service::PeerAddress> addrs = {
        {"127.0.0.1", source_node.port()}, {"127.0.0.1", new_owner.port()}};
    for (std::size_t i = 0; i < 2; ++i) {
        service::ClusterConfig cfg;
        cfg.self = addrs[i];
        cfg.peers.push_back(addrs[1 - i]);
        cfg.probe_interval_ms = 1000;
        cfg.anti_entropy_interval_ms = 0;  // only the timed rounds move data
        (i == 0 ? source_node : new_owner).enable_cluster(cfg);
    }
    // A model the ring places on new_owner, seeded only on source_node —
    // exactly the state an epoch bump leaves behind mid-rebalance.
    std::string model;
    for (int i = 0; i < 4096 && model.empty(); ++i) {
        const std::string candidate = "bench-move-" + std::to_string(i);
        if (new_owner.cluster()->owns(candidate)) {
            model = candidate;
        }
    }
    source_node.registry().put(
        model, service::read_snapshot(service::write_snapshot(sample_bench_model(false))));

    std::size_t moved = 0;
    for (auto _ : state) {
        moved += new_owner.rebalance_now();
        state.PauseTiming();
        new_owner.registry().erase(model);  // re-arm the move for the next round
        state.ResumeTiming();
    }
    benchmark::DoNotOptimize(moved);
    state.SetItemsProcessed(static_cast<std::int64_t>(moved));
    state.SetLabel("snapshots-per-round=1");

    new_owner.stop();
    source_node.stop();
}
BENCHMARK(BM_RebalanceHandoff)->UseRealTime();

void BM_LabSimulator1k(benchmark::State& state) {
    for (auto _ : state) {
        netsim::LabSimOptions opts;
        opts.records = 1000;
        benchmark::DoNotOptimize(netsim::LabTrafficSimulator(opts).generate());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_LabSimulator1k);

}  // namespace

int main(int argc, char** argv) {
    // Expand --json FILE / --json=FILE before handing the argv to
    // google-benchmark; storage must outlive Initialize().
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc) + 1);
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string file;
        if (arg == "--json" && i + 1 < argc) {
            file = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            file = arg.substr(7);
        } else {
            args.push_back(arg);
            continue;
        }
        args.push_back("--benchmark_out=" + file);
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char*> cargs;
    cargs.reserve(args.size());
    for (auto& arg : args) {
        cargs.push_back(arg.data());
    }
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
