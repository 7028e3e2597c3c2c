#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/csv.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/core/kinetgan.hpp"
#include "src/data/sampler.hpp"
#include "src/gan/cond_vector.hpp"
#include "src/gan/gan_common.hpp"
#include "src/kg/network_kg.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/nn/module.hpp"
#include "src/service/protocol.hpp"
#include "src/service/registry.hpp"
#include "src/service/snapshot.hpp"

namespace perfbench {

namespace svc = kinet::service;
using kinet::tensor::Matrix;

namespace {

/// Median over five ~60 ms repetitions of `call`, in microseconds per row
/// (`rows` rows per call), after one untimed warm call.
double us_per_row(std::size_t rows, const std::function<void()>& call) {
    call();
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
        std::size_t calls = 0;
        const auto t0 = Clock::now();
        double elapsed_ms = 0.0;
        do {
            call();
            ++calls;
            elapsed_ms = ms_between(t0, Clock::now());
        } while (elapsed_ms < 60.0);
        reps.push_back(elapsed_ms * 1000.0 / static_cast<double>(calls * rows));
    }
    return median(reps);
}

/// Median wall time of `reps` calls, in milliseconds.
double median_ms(int reps, const std::function<void()>& call) {
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        call();
        times.push_back(ms_between(t0, Clock::now()));
    }
    return median(times);
}

kinet::data::Table lab_training_table() {
    kinet::netsim::LabSimOptions sim;
    sim.records = lab_plan().records;
    sim.seed = lab_plan().sim_seed;
    return kinet::netsim::LabTrafficSimulator(sim).generate();
}

std::map<std::string, double> stats_of(std::uint16_t port) {
    WireClient client(port);
    const Reply r = client.framed("STATS", true);
    if (!r.ok) {
        throw std::runtime_error("STATS failed: " + r.error);
    }
    return parse_stats(r.payload);
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& key) {
    const auto b = before.find(key);
    const auto a = after.find(key);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

/// A STATS op line's total handler time: count x mean_us.
double op_total_us(const std::map<std::string, double>& stats, const std::string& op_key) {
    const auto count = stats.find(op_key + ".count");
    const auto mean_us = stats.find(op_key + ".mean_us");
    return count == stats.end() || mean_us == stats.end() ? 0.0
                                                          : count->second * mean_us->second;
}

void move_into_checks(WindowResult& from, WindowResult& checks) {
    for (auto* list : {&from.outcomes, &from.checks}) {
        for (auto& o : *list) {
            checks.checks.push_back(std::move(o));
        }
        list->clear();
    }
    checks.probe_checks += from.probe_checks;
    checks.probe_failures += from.probe_failures;
    checks.jobs_attempted += from.jobs_attempted;
    checks.jobs_failed += from.jobs_failed;
    for (auto& note : from.failure_notes) {
        checks.failure_notes.push_back(std::move(note));
    }
}

}  // namespace

// ------------------------------------------------------------ sampling ----

void stage_metrics(const Fleet& fleet, Report& report) {
    const auto& model = *fleet.lab.entry->model;
    const auto& opts = model.options();
    const auto& transformer = model.transformer();
    const std::size_t batch = opts.gan.batch_size;
    const std::size_t noise_dim = opts.gan.noise_dim;
    const auto cond_columns = kinet::netsim::lab_conditional_columns();
    const kinet::gan::CondVectorBuilder cond(model.schema(), cond_columns);
    const std::size_t in_dim = noise_dim + cond.width();
    const std::size_t out_dim = transformer.output_width();
    report.note("stage shapes: batch " + std::to_string(batch) + ", generator " +
                std::to_string(in_dim) + " -> " + std::to_string(opts.gan.hidden_dim) + " x " +
                std::to_string(opts.gan.hidden_layers) + " -> " + std::to_string(out_dim));

    kinet::Rng rng(0x5eed);

    // Condition draws: the served path calls draw_empirical per row.
    const auto table = lab_training_table();
    const kinet::data::ConditionalSampler sampler(table, cond_columns, opts.sampler);
    std::vector<kinet::data::CondDraw> draws;
    draws.reserve(batch);
    const double cond_us = us_per_row(batch, [&] {
        draws.clear();
        for (std::size_t i = 0; i < batch; ++i) {
            draws.push_back(sampler.draw_empirical(rng));
        }
    });

    Matrix input(batch, in_dim);
    const double noise_us = us_per_row(batch, [&] {
        for (std::size_t r = 0; r < batch; ++r) {
            auto row = input.row(r);
            for (std::size_t c = 0; c < noise_dim; ++c) {
                row[c] = static_cast<float>(rng.normal());
            }
        }
    });

    kinet::Rng act_rng(1);
    const kinet::gan::OutputActivation activation(transformer.spans(), opts.gan.gumbel_tau,
                                                  act_rng);
    Matrix gumbel;
    const double gumbel_us =
        us_per_row(batch, [&] { activation.draw_noise(batch, out_dim, rng, gumbel); });

    kinet::Rng init_rng(2);
    const auto trunk = kinet::gan::make_generator_trunk(in_dim, opts.gan.hidden_dim,
                                                        opts.gan.hidden_layers, out_dim, init_rng);
    kinet::nn::InferenceContext ctx;
    Matrix logits;
    const double generator_us =
        us_per_row(batch, [&] { trunk->forward_inference(input, logits, ctx); });

    Matrix activated;
    const double activation_us = us_per_row(batch, [&] {
        activated = logits;
        activation.apply_spans(activated, gumbel);
    });

    Matrix raw;
    kinet::data::Table decoded(model.schema());
    const double decode_us =
        us_per_row(batch, [&] { transformer.inverse_into(activated, raw, decoded); });

    // Serialization runs on rows the served model really produces.
    const auto served = model.sample_seeded(batch, 77);
    kinet::csv::Document doc;
    const double to_csv_us = us_per_row(batch, [&] { doc = served.to_csv(); });
    std::string text;
    const double serialize_us = us_per_row(batch, [&] {
        text.clear();
        kinet::csv::serialize_append(doc, /*include_header=*/false, text);
    });

    std::uint64_t seed = 1000;
    constexpr std::size_t kRows = 8192;
    const double cursor_us = us_per_row(kRows, [&] {
        const auto cursor = model.open_sample_cursor(kRows, seed++, 512);
        while (cursor->next() != nullptr) {
        }
    });
    const double push_us = us_per_row(kRows, [&] {
        model.sample_seeded_stream(kRows, seed++, 0, [](const kinet::data::Table&) {});
    });

    report.add("sampler.cond_draw_us_per_row", cond_us, "us/row");
    report.add("rng.noise_us_per_row", noise_us, "us/row");
    report.add("rng.gumbel_us_per_row", gumbel_us, "us/row");
    report.add("nn.generator_us_per_row", generator_us, "us/row");
    report.add("gan.activation_us_per_row", activation_us, "us/row");
    report.add("transformer.decode_us_per_row", decode_us, "us/row");
    report.add("table.to_csv_us_per_row", to_csv_us, "us/row");
    report.add("csv.serialize_us_per_row", serialize_us, "us/row");
    report.add("csv.bytes_per_row",
               static_cast<double>(text.size()) / static_cast<double>(served.rows()), "B/row");
    report.add("core.cursor_us_per_row", cursor_us, "us/row");
    report.add("core.push_us_per_row", push_us, "us/row");
    const double stages =
        cond_us + noise_us + gumbel_us + generator_us + activation_us + decode_us;
    report.note("sampling stages sum " + json_number(stages) + " us/row = " +
                json_number(stages / cursor_us) + " x core.cursor_us_per_row");
}

// ------------------------------------------------------------- service ----

void service_metrics(Fleet& fleet, std::uint64_t seed, Report& report, WindowResult& checks) {
    // Parsing and in-process handling of the framed-mixed-fleet mix.
    const auto mix = mix_requests(fleet, seed, 512);
    std::vector<std::string> lines;
    for (const auto& o : mix) {
        lines.push_back(request_line(fleet, o));
    }
    std::size_t sink = 0;
    const double parse_us = us_per_row(lines.size(), [&] {
        for (const auto& line : lines) {
            sink += svc::parse_request(line).kv.size();
        }
    });
    report.add("protocol.parse_us", parse_us, "us");

    std::vector<double> handle_ms;
    for (std::size_t i = 0; i < 200 && i < lines.size(); ++i) {
        auto& owner = mix[i].unsw ? fleet.b() : fleet.a();
        const svc::Request request = svc::parse_request(lines[i]);
        const auto t0 = Clock::now();
        const svc::Response response = owner.handle(request);
        handle_ms.push_back(ms_between(t0, Clock::now()));
        ++checks.probe_checks;
        if (!response.ok) {
            ++checks.probe_failures;
            checks.failure_notes.push_back("handle() failed: " + response.error);
        }
    }
    report.add("server.handle_p50_ms", median(handle_ms), "ms");

    // Time outside the handler: owner-direct framed SAMPLEs on A, client
    // mean minus the op's STATS mean over the same interval.
    {
        const std::string op_key = "op_" + std::string(svc::op_name(svc::Op::sample));
        const auto before = stats_of(fleet.a().port());
        std::vector<std::vector<Outcome>> lanes(2);
        {
            std::vector<std::jthread> threads;
            for (std::size_t lane = 0; lane < 2; ++lane) {
                threads.emplace_back([&, lane] {
                    WireClient client(fleet.a().port());
                    std::size_t i = 0;
                    for (const auto& planned : mix) {
                        if (planned.unsw || planned.kind != ReqKind::framed_sample ||
                            i++ % 2 != lane) {
                            continue;
                        }
                        Outcome o = planned;
                        send_closed(fleet, client, o);
                        lanes[lane].push_back(std::move(o));
                    }
                });
            }
        }
        const auto after = stats_of(fleet.a().port());
        std::vector<double> client_ms;
        for (auto& lane : lanes) {
            for (auto& o : lane) {
                client_ms.push_back(o.latency_ms);
                checks.checks.push_back(std::move(o));
            }
        }
        const double count = delta(before, after, op_key + ".count");
        const double sum_us = op_total_us(after, op_key) - op_total_us(before, op_key);
        const double handler_ms = count > 0.0 ? sum_us / count / 1000.0 : 0.0;
        report.add("service.outside_handler_ms", mean(client_ms) - handler_ms, "ms");
        report.note("outside-handler pass: " + std::to_string(client_ms.size()) +
                    " requests, client mean " + json_number(mean(client_ms)) +
                    " ms, STATS handler mean " + json_number(handler_ms) + " ms");
    }

    // The forwarding hop: the same small SAMPLE through the owner and
    // through B, alternating which goes first.
    {
        WireClient direct(fleet.a().port());
        WireClient via(fleet.b().port());
        std::vector<double> direct_ms;
        std::vector<double> via_ms;
        for (std::size_t i = 0; i < 200; ++i) {
            Outcome d;
            d.kind = ReqKind::framed_sample;
            d.n = 64;
            d.seed = mix_seed(seed ^ (0x40000 + i));
            Outcome v = d;
            if (i % 2 == 0) {
                send_closed(fleet, direct, d);
                send_closed(fleet, via, v);
            } else {
                send_closed(fleet, via, v);
                send_closed(fleet, direct, d);
            }
            direct_ms.push_back(d.latency_ms);
            via_ms.push_back(v.latency_ms);
            checks.checks.push_back(std::move(d));
            checks.checks.push_back(std::move(v));
        }
        report.add("cluster.forward_hop_ms", median(via_ms) - median(direct_ms), "ms");
    }

    // Event-loop and byte counters over a short stream-bulk pass on S.
    {
        const auto before = stats_of(fleet.solo().port());
        WindowResult pass = run_stream_bulk(fleet, seed ^ 0x51, 2.0);
        const auto after = stats_of(fleet.solo().port());
        const double streams = delta(before, after, "streams_opened");
        report.add("event_loop.stream_suspensions",
                   streams > 0.0 ? delta(before, after, "stream_suspensions") * 1000.0 / streams
                                 : 0.0,
                   "count/1k");
        const double rows = delta(before, after, "rows_served");
        report.add("service.bytes_out_per_row",
                   rows > 0.0 ? delta(before, after, "bytes_out") / rows : 0.0, "B/row");
        move_into_checks(pass, checks);
    }

    // Admission, forwarding and generator lateness over a short open-loop
    // framed-mixed-fleet pass.
    {
        const auto before_a = stats_of(fleet.a().port());
        const auto before_b = stats_of(fleet.b().port());
        WindowResult pass = run_framed_mixed_fleet(fleet, seed ^ 0x52, 2.0, kFramedMixedRate);
        const auto after_a = stats_of(fleet.a().port());
        const auto after_b = stats_of(fleet.b().port());
        const auto both = [&](const std::string& key) {
            return delta(before_a, after_a, key) + delta(before_b, after_b, key);
        };
        report.add("event_loop.queue_full", both("queue_full_rejections"), "count");
        report.add("cluster.forwards", both("forwards"), "count");
        report.add("cluster.forward_errors", both("forward_errors"), "count");
        std::vector<double> late;
        for (const auto& o : pass.outcomes) {
            late.push_back(o.late_ms);
        }
        std::sort(late.begin(), late.end());
        report.add("loadgen.late_p99_ms", percentile_sorted(late, 99.0), "ms");
        move_into_checks(pass, checks);
    }
    (void)sink;
}

// ------------------------------------------- snapshot, registry, cluster ----

void snapshot_cluster_job_metrics(Fleet& fleet, Report& report, WindowResult& checks) {
    const auto entry = fleet.a().registry().get(fleet.lab.name);
    if (entry == nullptr) {
        throw std::runtime_error("lab model missing on A");
    }
    std::string snapshot;
    const double write_ms = median_ms(5, [&] {
        const kinet::MutexLock lock(entry->mu);
        snapshot = svc::write_snapshot(*entry->model);
    });
    const double read_ms = median_ms(5, [&] { (void)svc::read_snapshot(snapshot); });
    report.add("snapshot.write_ms", write_ms, "ms");
    report.add("snapshot.read_ms", read_ms, "ms");
    report.add("snapshot.bytes", static_cast<double>(snapshot.size()), "B");

    // Registry replacement while two readers hold and sample the entry.
    {
        svc::ModelRegistry registry;
        registry.put("lab", svc::read_snapshot(snapshot));
        std::atomic<bool> stop{false};
        std::vector<double> put_ms;
        {
            std::vector<std::jthread> readers;
            for (std::uint64_t r = 0; r < 2; ++r) {
                readers.emplace_back([&, r] {
                    for (std::uint64_t s = r << 32; !stop.load(); ++s) {
                        const auto held = registry.get("lab");
                        (void)held->model->sample_seeded(256, s);
                    }
                });
            }
            for (int i = 0; i < 8; ++i) {
                auto fresh = svc::read_snapshot(snapshot);
                const auto t0 = Clock::now();
                registry.put("lab", std::move(fresh));
                put_ms.push_back(ms_between(t0, Clock::now()));
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
            stop.store(true);
        }
        report.add("registry.put_ms", median(put_ms), "ms");
    }

    const auto cluster = fleet.a().cluster();
    const std::string peer = fleet.b().cluster()->self_name();
    const std::string probe_name = fleet.lab.name + "-replicate-probe";
    const double replicate_ms =
        median_ms(5, [&] { cluster->replicate_to(peer, probe_name, snapshot); });
    (void)fleet.b().registry().erase(probe_name);
    report.add("cluster.replicate_ms", replicate_ms, "ms");

    // Fit alone on train-beside-serve's plan, timed per epoch by observer,
    // each fit followed by one FEDTRAIN job alone, so the job-minus-fit
    // differences are paired and slow drift cancels.
    std::vector<double> epoch_ms;
    std::vector<double> job_minus_fit_ms;
    WindowResult jobs;
    WireClient trainer(fleet.a().port());
    const auto kg = kinet::kg::NetworkKg::build_lab();
    kinet::core::KiNetGanOptions opts;
    opts.gan.epochs = lab_plan().epochs;
    opts.gan.seed = lab_plan().gan_seed;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        const auto table = lab_training_table();
        kinet::core::KiNetGan model(kg.make_oracle(), kinet::netsim::lab_conditional_columns(),
                                    opts);
        std::vector<Clock::time_point> marks{Clock::now()};
        model.fit(table, [&](std::size_t, std::size_t) {
            marks.push_back(Clock::now());
            return true;
        });
        const double fit_ms = ms_between(t0, Clock::now());
        // Epoch 1 also carries the transformer fit; later epochs are pure
        // training steps.
        const std::size_t epochs = marks.size() - 1;
        epoch_ms.push_back(epochs >= 2 ? ms_between(marks[1], marks.back()) /
                                             static_cast<double>(epochs - 1)
                                       : ms_between(marks[0], marks.back()));
        std::string error;
        const double job_s = fedtrain_job(trainer, fleet.lab.name, error);
        record_job(jobs, job_s, error);
        if (job_s >= 0.0) {
            job_minus_fit_ms.push_back(job_s * 1000.0 - fit_ms);
        }
    }
    report.add("core.fit_epoch_ms", median(epoch_ms), "ms");
    report.add("jobs.overhead_ms", median(job_minus_fit_ms) - write_ms - replicate_ms, "ms");
    move_into_checks(jobs, checks);
}

// ------------------------------------------------------------ sweep ----

void sweep_metrics(Fleet& fleet, std::uint64_t seed, Report& report, WindowResult& checks) {
    const auto& model = *fleet.lab.entry->model;
    constexpr std::size_t kRows = 8192;
    std::vector<double> rates;
    std::uint64_t s = seed;
    for (int rep = 0; rep < 3; ++rep) {
        std::size_t rows = 0;
        const auto t0 = Clock::now();
        double elapsed = 0.0;
        do {
            model.sample_seeded_stream(kRows, s++, 0, [](const kinet::data::Table&) {});
            rows += kRows;
            elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
        } while (elapsed < 0.6);
        rates.push_back(static_cast<double>(rows) / elapsed);
    }
    report.add("core.push_rows_per_s", median(rates), "rows/s");

    WindowResult pass = run_stream_bulk(fleet, seed ^ 0x53, 2.0);
    std::uint64_t rows = 0;
    for (const auto& o : pass.outcomes) {
        rows += o.reply.ok ? o.reply.rows : 0;
    }
    report.add("service.serve_rows_per_s", static_cast<double>(rows) / pass.wall_s, "rows/s");
    move_into_checks(pass, checks);
}

}  // namespace perfbench
