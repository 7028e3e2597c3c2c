#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include "src/common/csv.hpp"
#include "src/common/text.hpp"
#include "src/service/client.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kStreamRows = 8192;
constexpr std::size_t kStreamChunk = 512;
constexpr std::size_t kTrainReadRows = 1024;
constexpr std::size_t kValidateRows = 256;
constexpr std::size_t kMixSizes[] = {64, 256, 1024};
constexpr double kJobTimeoutS = 120.0;

/// Per-workload seed salt, so the three mixes never share request seeds.
std::uint64_t stream_base(std::uint64_t seed, std::uint64_t salt) {
    return mix_seed(mix_seed(seed) ^ salt);
}

std::uint64_t request_seed(std::uint64_t base, std::size_t lane, std::size_t index) {
    return mix_seed(base ^ (static_cast<std::uint64_t>(lane) << 40) ^ index);
}

const ServedModel& model_of(const Fleet& fleet, bool unsw) {
    return unsw ? fleet.unsw : fleet.lab;
}

Outcome make_sample(bool unsw, std::size_t n, std::uint64_t seed, ReqKind kind, int pin = -1) {
    Outcome o;
    o.kind = kind;
    o.unsw = unsw;
    o.n = n;
    o.seed = seed;
    o.pin = pin;
    return o;
}

double wall_from(Clock::time_point t0, const std::vector<Outcome>& outcomes) {
    auto end = t0;
    for (const auto& o : outcomes) {
        end = std::max(end, o.reply.last);
    }
    return std::chrono::duration<double>(end - t0).count();
}

/// Adds a byte-identity check between two verified-later outcomes.
void expect_identical(WindowResult& r, const Outcome& x, const Outcome& y,
                      const std::string& what) {
    ++r.probe_checks;
    if (!x.reply.ok || !y.reply.ok || x.reply.hash != y.reply.hash) {
        ++r.probe_failures;
        r.failure_notes.push_back("identity check failed: " + what);
    }
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
    static const std::vector<WorkloadSpec> specs{
        {"stream-bulk", 90, 500.0},
        {"framed-mixed-fleet", 95, 100.0},
        {"train-beside-serve", 99, 50.0},
    };
    return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
    for (const auto& spec : workload_specs()) {
        if (spec.name == name) {
            return &spec;
        }
    }
    return nullptr;
}

std::string request_line(const Fleet& fleet, const Outcome& o) {
    const ServedModel& m = model_of(fleet, o.unsw);
    const std::string seed = " seed=" + std::to_string(o.seed);
    switch (o.kind) {
    case ReqKind::validate:
        return "VALIDATE " + m.name + " n=" + std::to_string(o.n) + seed;
    case ReqKind::stream_sample:
        return "SAMPLE " + m.name + " " + std::to_string(o.n) + seed +
               " stream=1 chunk=" + std::to_string(kStreamChunk);
    case ReqKind::framed_sample:
        break;
    }
    std::string line = "SAMPLE " + m.name + " " + std::to_string(o.n) + seed;
    if (o.pin >= 0) {
        const Pin& pin = m.minority.at(static_cast<std::size_t>(o.pin));
        line += " cond=" + pin.column + ":" + pin.value;
    }
    return line;
}

void send_closed(const Fleet& fleet, WireClient& client, Outcome& o) {
    const std::string line = request_line(fleet, o);
    const auto sent = Clock::now();
    o.reply = o.kind == ReqKind::stream_sample ? client.stream(line)
                                               : client.framed(line, o.kind == ReqKind::validate);
    o.latency_ms = ms_between(sent, o.reply.last);
    o.ttfc_ms = ms_between(sent, o.reply.first);
}

// ------------------------------------------------------------ stream-bulk --

WindowResult run_stream_bulk(Fleet& fleet, std::uint64_t seed, double seconds) {
    constexpr std::size_t kConns = 2;
    const std::uint64_t base = stream_base(seed, 0x5b);
    WindowResult r;
    std::vector<WireClient> clients;
    for (std::size_t c = 0; c < kConns; ++c) {
        clients.emplace_back(fleet.solo().port());
        Outcome warm = make_sample(false, kStreamRows, request_seed(base, 100 + c, 0),
                                   ReqKind::stream_sample);
        send_closed(fleet, clients.back(), warm);
        r.checks.push_back(std::move(warm));
    }
    std::vector<std::vector<Outcome>> lanes(kConns);
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration<double>(seconds);
    {
        std::vector<std::jthread> threads;
        for (std::size_t c = 0; c < kConns; ++c) {
            threads.emplace_back([&, c] {
                for (std::size_t i = 0; Clock::now() < deadline; ++i) {
                    Outcome o = make_sample(false, kStreamRows, request_seed(base, c, i),
                                            ReqKind::stream_sample);
                    send_closed(fleet, clients[c], o);
                    lanes[c].push_back(std::move(o));
                }
            });
        }
    }
    for (auto& lane : lanes) {
        for (auto& o : lane) {
            r.outcomes.push_back(std::move(o));
        }
    }
    r.wall_s = wall_from(t0, r.outcomes);
    return r;
}

// ----------------------------------------------------- framed-mixed-fleet --

namespace {

constexpr std::size_t kSenders = 4;

struct Planned {
    double at_s = 0.0;
    Outcome o;
};

/// `count` requests of the mix in random order, with the shares fixed
/// rather than drawn (so the total work of a window does not depend on the
/// seed): half per model; 10% VALIDATE n=256; the rest framed SAMPLE split
/// evenly over n in {64, 256, 1024}, 30% of each size pinned to a minority
/// category.
std::vector<Outcome> deal_mix(const Fleet& fleet, std::mt19937_64& rng, std::size_t count) {
    std::vector<Outcome> deck(count);
    const std::size_t validates = count / 10;
    for (std::size_t i = 0; i < count; ++i) {
        Outcome& o = deck[i];
        o.unsw = i % 2 == 1;
        if (i < validates) {
            o.kind = ReqKind::validate;
            o.n = kValidateRows;
            continue;
        }
        const std::size_t j = i - validates;
        o.kind = ReqKind::framed_sample;
        o.n = kMixSizes[j % 3];
        if ((j / 3) % 10 < 3) {
            const std::size_t pins = model_of(fleet, o.unsw).minority.size();
            o.pin = static_cast<int>((j / 30) % pins);
        }
    }
    std::shuffle(deck.begin(), deck.end(), rng);
    for (auto& o : deck) {
        o.seed = mix_seed(rng());
    }
    return deck;
}

/// The open-loop schedule: round(rate * seconds) arrivals spread as a
/// Poisson process conditioned on its count (sorted uniform times).
std::vector<Planned> plan_mix(const Fleet& fleet, std::uint64_t seed, double seconds,
                              double rate) {
    std::mt19937_64 rng(stream_base(seed, 0xf1));
    const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
    std::uniform_real_distribution<double> u(0.0, seconds);
    std::vector<double> times(count);
    for (auto& t : times) {
        t = u(rng);
    }
    std::sort(times.begin(), times.end());
    auto deck = deal_mix(fleet, rng, count);
    std::vector<Planned> plan;
    plan.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        plan.push_back(Planned{times[i], std::move(deck[i])});
    }
    return plan;
}

/// Even senders talk to A, odd ones to B; the model is uniformly random,
/// so each request reaches its owner or pays the forwarding hop with equal
/// probability.
std::uint16_t sender_port(Fleet& fleet, std::size_t lane) {
    return lane % 2 == 0 ? fleet.a().port() : fleet.b().port();
}

/// The senders take planned requests in arrival order, each as soon as it
/// is free (one FIFO queue in front of four connections).  Open loop: a
/// request waits for its scheduled time and is timed from it.  Closed loop
/// (`open_loop` false): the schedule is ignored and the run stops at
/// `seconds`.
std::vector<Outcome> drive_mix(Fleet& fleet, std::vector<Planned>& plan, std::uint64_t seed,
                               double seconds, bool open_loop, WindowResult& r,
                               Clock::time_point& t0) {
    const std::uint64_t base = stream_base(seed, 0xf2);
    std::vector<WireClient> clients;
    for (std::size_t lane = 0; lane < kSenders; ++lane) {
        clients.emplace_back(sender_port(fleet, lane));
        for (const bool unsw : {false, true}) {
            Outcome warm = make_sample(unsw, 64, request_seed(base, 100 + lane, unsw ? 1 : 0),
                                       ReqKind::framed_sample);
            send_closed(fleet, clients.back(), warm);
            r.checks.push_back(std::move(warm));
        }
    }
    std::vector<std::vector<Outcome>> lanes(kSenders);
    std::atomic<std::size_t> next{0};
    t0 = Clock::now();
    const auto start = t0;
    const auto deadline = t0 + std::chrono::duration<double>(seconds);
    {
        std::vector<std::jthread> threads;
        for (std::size_t lane = 0; lane < kSenders; ++lane) {
            threads.emplace_back([&, lane] {
                for (std::size_t i = next.fetch_add(1); i < plan.size(); i = next.fetch_add(1)) {
                    Outcome o = std::move(plan[i].o);
                    if (!open_loop) {
                        if (Clock::now() >= deadline) {
                            return;
                        }
                        send_closed(fleet, clients[lane], o);
                        lanes[lane].push_back(std::move(o));
                        continue;
                    }
                    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(plan[i].at_s));
                    std::this_thread::sleep_until(due);
                    const std::string line = request_line(fleet, o);
                    const auto sent = Clock::now();
                    o.reply = clients[lane].framed(line, o.kind == ReqKind::validate);
                    o.late_ms = ms_between(due, sent);
                    o.latency_ms = ms_between(due, o.reply.last);
                    o.ttfc_ms = ms_between(due, o.reply.first);
                    lanes[lane].push_back(std::move(o));
                }
            });
        }
    }
    std::vector<Outcome> out;
    for (auto& lane : lanes) {
        for (auto& o : lane) {
            out.push_back(std::move(o));
        }
    }
    return out;
}

}  // namespace

std::vector<Outcome> mix_requests(const Fleet& fleet, std::uint64_t seed, std::size_t count) {
    std::mt19937_64 rng(stream_base(seed, 0xf4));
    return deal_mix(fleet, rng, count);
}

WindowResult run_framed_mixed_fleet(Fleet& fleet, std::uint64_t seed, double seconds,
                                    double rate) {
    WindowResult r;
    auto plan = plan_mix(fleet, seed, seconds, rate);
    Clock::time_point t0;
    r.outcomes = drive_mix(fleet, plan, seed, seconds, /*open_loop=*/true, r, t0);
    r.wall_s = wall_from(t0, r.outcomes);
    return r;
}

double calibrate_framed_mixed(Fleet& fleet, std::uint64_t seed, double seconds) {
    // The same mix and senders in closed loop: capacity in requests/s.
    auto plan = plan_mix(fleet, seed, seconds, 2000.0);
    WindowResult r;
    Clock::time_point t0;
    const auto done = drive_mix(fleet, plan, seed, seconds, /*open_loop=*/false, r, t0);
    return static_cast<double>(done.size()) / wall_from(t0, done);
}

// ----------------------------------------------------- train-beside-serve --

double fedtrain_job(WireClient& client, const std::string& model, std::string& error) {
    const auto t0 = Clock::now();
    const Reply submitted =
        client.framed("FEDTRAIN " + model + " " + lab_plan().wire_args(), true);
    if (!submitted.ok) {
        error = "FEDTRAIN: " + submitted.error;
        return -1.0;
    }
    const auto kv = kinet::service::parse_kv_payload(submitted.payload);
    const auto job = kv.find("job");
    if (job == kv.end()) {
        error = "FEDTRAIN: no job id";
        return -1.0;
    }
    for (;;) {
        const Reply polled = client.framed("POLL " + job->second + " wait=1 timeout=1000", true);
        if (!polled.ok) {
            error = "POLL: " + polled.error;
            return -1.0;
        }
        const auto status = kinet::service::parse_kv_payload(polled.payload);
        const auto state = status.find("state");
        const std::string s = state == status.end() ? std::string{} : state->second;
        if (s == "done") {
            return std::chrono::duration<double>(polled.last - t0).count();
        }
        if (s == "failed" || s == "cancelled") {
            const auto err = status.find("error");
            error = "job " + s + (err == status.end() ? "" : ": " + err->second);
            return -1.0;
        }
        if (std::chrono::duration<double>(Clock::now() - t0).count() > kJobTimeoutS) {
            error = "job did not finish in time";
            return -1.0;
        }
    }
}

void record_job(WindowResult& r, double seconds, const std::string& error) {
    ++r.jobs_attempted;
    if (seconds < 0.0) {
        ++r.jobs_failed;
        r.failure_notes.push_back(error);
    } else {
        r.train_job_s.push_back(seconds);
    }
}

WindowResult run_train_beside_serve(Fleet& fleet, std::uint64_t seed, double seconds) {
    constexpr std::size_t kReaders = 2;
    const std::uint64_t base = stream_base(seed, 0x7b);
    WindowResult r;
    {
        // The window's connections close before the probes below open theirs.
        WireClient trainer(fleet.a().port());
        // Warm-up: one publish puts the lab model on B, then each reader
        // reads it there once.
        std::string warm_error;
        if (fedtrain_job(trainer, fleet.lab.name, warm_error) < 0.0) {
            record_job(r, -1.0, "warm-up " + warm_error);
        }
        std::vector<WireClient> readers;
        for (std::size_t c = 0; c < kReaders; ++c) {
            readers.emplace_back(fleet.b().port());
            Outcome warm = make_sample(false, kTrainReadRows, request_seed(base, 100 + c, 0),
                                       ReqKind::framed_sample);
            send_closed(fleet, readers.back(), warm);
            r.checks.push_back(std::move(warm));
        }
        std::vector<std::vector<Outcome>> lanes(kReaders);
        std::vector<double> job_seconds;
        std::vector<std::string> job_errors;
        const auto t0 = Clock::now();
        const auto deadline = t0 + std::chrono::duration<double>(seconds);
        {
            std::vector<std::jthread> threads;
            threads.emplace_back([&] {
                while (Clock::now() < deadline) {
                    std::string error;
                    job_seconds.push_back(fedtrain_job(trainer, fleet.lab.name, error));
                    job_errors.push_back(error);
                }
            });
            for (std::size_t c = 0; c < kReaders; ++c) {
                threads.emplace_back([&, c] {
                    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
                        Outcome o = make_sample(false, kTrainReadRows, request_seed(base, c, i),
                                                ReqKind::framed_sample);
                        send_closed(fleet, readers[c], o);
                        lanes[c].push_back(std::move(o));
                    }
                });
            }
        }
        for (std::size_t i = 0; i < job_seconds.size(); ++i) {
            record_job(r, job_seconds[i], job_errors[i]);
        }
        for (auto& lane : lanes) {
            for (auto& o : lane) {
                r.outcomes.push_back(std::move(o));
            }
        }
        r.wall_s = wall_from(t0, r.outcomes);
    }

    // After the last publish, B's copy must serve A's bytes.
    WireClient on_a(fleet.a().port());
    WireClient on_b(fleet.b().port());
    const std::uint64_t probe_seed = request_seed(base, 200, 0);
    Outcome at_a = make_sample(false, kTrainReadRows, probe_seed, ReqKind::framed_sample);
    Outcome at_b = at_a;
    send_closed(fleet, on_a, at_a);
    send_closed(fleet, on_b, at_b);
    expect_identical(r, at_a, at_b, "lab on B after the last FEDTRAIN vs lab on A");
    r.checks.push_back(std::move(at_a));
    r.checks.push_back(std::move(at_b));
    return r;
}

// ------------------------------------------------------- probes and jobs --

void run_identity_probes(Fleet& fleet, std::uint64_t seed, WindowResult& r) {
    const std::uint64_t base = stream_base(seed, 0x1d);
    WireClient on_s(fleet.solo().port());
    WireClient on_a(fleet.a().port());
    WireClient on_b(fleet.b().port());

    // Framed and streamed bytes of one seeded draw both equal the golden.
    Outcome framed = make_sample(false, 1000, request_seed(base, 0, 0), ReqKind::framed_sample);
    Outcome streamed = framed;
    streamed.kind = ReqKind::stream_sample;
    send_closed(fleet, on_s, framed);
    send_closed(fleet, on_s, streamed);
    expect_identical(r, framed, streamed, "framed vs streamed SAMPLE on S");
    r.checks.push_back(std::move(framed));
    r.checks.push_back(std::move(streamed));

    // Each model read through its owner and through the other member.
    for (const bool unsw : {false, true}) {
        Outcome direct = make_sample(unsw, 256, request_seed(base, 1, unsw ? 1 : 0),
                                     ReqKind::framed_sample, 0);
        Outcome via = direct;
        send_closed(fleet, unsw ? on_b : on_a, direct);
        send_closed(fleet, unsw ? on_a : on_b, via);
        expect_identical(r, direct, via,
                         std::string(unsw ? "unsw" : "lab") + " forwarded vs owner-direct");
        r.checks.push_back(std::move(direct));
        r.checks.push_back(std::move(via));
    }
}

void run_alone_train_jobs(Fleet& fleet, std::size_t jobs, WindowResult& r) {
    WireClient trainer(fleet.a().port());
    for (std::size_t i = 0; i < jobs; ++i) {
        std::string error;
        const double s = fedtrain_job(trainer, fleet.lab.name, error);
        record_job(r, s, error);
    }
}

// ----------------------------------------------------------- verification --

std::size_t verify_outcomes(const Fleet& fleet, std::vector<Outcome>& outcomes,
                            bool corrupt_golden) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> mismatches{0};
    const auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= outcomes.size()) {
                return;
            }
            Outcome& o = outcomes[i];
            if (!o.reply.ok) {
                o.verified = false;
                mismatches.fetch_add(1);
                continue;
            }
            const ServedModel& m = model_of(fleet, o.unsw);
            const auto& model = *m.entry->model;
            bool good = false;
            if (o.kind == ReqKind::validate) {
                const auto table = model.sample_seeded(o.n, o.seed);
                const double validity =
                    o.n == 0 ? 0.0
                             : static_cast<double>(model.kg_valid_count(table)) /
                                   static_cast<double>(o.n);
                std::string expect = "rows=" + std::to_string(o.n) +
                                     "\nvalidity=" + kinet::text::format_double(validity, 4) +
                                     "\n";
                if (corrupt_golden) {
                    expect += "#";
                }
                good = o.reply.payload == expect;
            } else {
                const auto table =
                    o.pin < 0
                        ? model.sample_seeded(o.n, o.seed)
                        : model.sample_conditional_seeded(
                              o.n, m.minority.at(static_cast<std::size_t>(o.pin)).column,
                              m.minority.at(static_cast<std::size_t>(o.pin)).value, o.seed);
                std::uint64_t expect = fnv64(kinet::csv::serialize(table.to_csv()));
                if (corrupt_golden) {
                    expect ^= 1;
                }
                good = o.reply.hash == expect && o.reply.rows == o.n;
            }
            o.verified = good;
            if (!good) {
                mismatches.fetch_add(1);
            }
        }
    };
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back(work);
        }
    }
    return mismatches.load();
}

// ------------------------------------------------------------ end to end --

void end_to_end_metrics(const WorkloadSpec& spec, const WindowResult& r, Report& report) {
    std::vector<double> latency;
    std::vector<double> ttfc;
    std::uint64_t rows = 0;
    std::size_t slo_met = 0;
    std::size_t failed = 0;
    for (const auto& o : r.outcomes) {
        const bool good = o.reply.ok && o.verified;
        if (!good) {
            ++failed;
            continue;
        }
        latency.push_back(o.latency_ms);
        ttfc.push_back(o.ttfc_ms);
        if (o.kind != ReqKind::validate) {
            rows += o.reply.rows;
        }
        if (o.latency_ms <= spec.slo_ms) {
            ++slo_met;
        }
    }
    const std::size_t sent = r.outcomes.size();
    report.add("rows_per_s", r.wall_s > 0.0 ? static_cast<double>(rows) / r.wall_s : 0.0,
               "rows/s");
    report.add("req_p50_ms", median(latency), "ms");
    const Tail req_tail = tail_of(latency, spec.tail_max_pct);
    report.add("req_tail_ms", req_tail.value, "ms");
    report.add("ttfc_p50_ms", median(ttfc), "ms");
    const Tail ttfc_tail = tail_of(ttfc, spec.tail_max_pct);
    report.add("ttfc_tail_ms", ttfc_tail.value, "ms");
    report.add("slo_met_frac",
               sent == 0 ? 0.0 : static_cast<double>(slo_met) / static_cast<double>(sent),
               "fraction");
    report.add("train_job_s", median(r.train_job_s), "s");
    const std::size_t attempted = sent + r.jobs_attempted + r.probe_checks;
    const std::size_t all_failed = failed + r.jobs_failed + r.probe_failures;
    report.add("failed_frac",
               attempted == 0 ? 0.0
                              : static_cast<double>(all_failed) / static_cast<double>(attempted),
               "fraction");
    std::vector<double> sorted = latency;
    std::sort(sorted.begin(), sorted.end());
    report.note("req_ms p90 " + json_number(percentile_sorted(sorted, 90)) + " p95 " +
                json_number(percentile_sorted(sorted, 95)) + " p99 " +
                json_number(percentile_sorted(sorted, 99)));
    report.note("requests sent " + std::to_string(sent) + ", verified rows " +
                std::to_string(rows) + ", wall " + json_number(r.wall_s) + " s");
    report.note("req_tail_ms is p" + std::to_string(req_tail.pct) + " over " +
                std::to_string(req_tail.count) + " requests (" + json_number(req_tail.beyond) +
                " beyond it); ttfc_tail_ms is p" + std::to_string(ttfc_tail.pct));
    report.note("slo limit " + json_number(spec.slo_ms) + " ms; train jobs " +
                std::to_string(r.train_job_s.size()) + " ok of " +
                std::to_string(r.jobs_attempted));
}

}  // namespace perfbench
