// kinet_perfbench — the kinetd serving benchmark.
//
//   kinet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--threads <pool size>] [--corrupt-golden]
//   kinet_perfbench --sweep --seed <n> --threads <pool size>
//   kinet_perfbench --calibrate --seconds <s>
//
// Prints "metric <name> <value> <unit>" lines, notes, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1
// when any response fails verification, 2 on a usage or set-up error.
// run.py builds this program and is the documented entry point.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t threads = 4;
    bool corrupt_golden = false;
    bool sweep = false;
    bool calibrate = false;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::runtime_error("missing value for " + flag);
            }
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = value();
        } else if (flag == "--seed") {
            a.seed = std::stoull(value());
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value());
        } else if (flag == "--trace") {
            a.trace = value() != "0";
        } else if (flag == "--threads") {
            a.threads = std::stoul(value());
        } else if (flag == "--corrupt-golden") {
            a.corrupt_golden = true;
        } else if (flag == "--sweep") {
            a.sweep = true;
        } else if (flag == "--calibrate") {
            a.calibrate = true;
        } else {
            throw std::runtime_error("unknown argument " + flag);
        }
    }
    if (a.seconds <= 0.0 || a.threads == 0) {
        throw std::runtime_error("--seconds and --threads must be positive");
    }
    return a;
}

const std::vector<std::string>& end_to_end_names() {
    static const std::vector<std::string> names{
        "setup_s",      "rows_per_s",   "req_p50_ms",  "req_tail_ms", "ttfc_p50_ms",
        "ttfc_tail_ms", "slo_met_frac", "train_job_s", "peak_rss_mb"};
    return names;
}

const std::vector<std::string>& per_layer_names() {
    static const std::vector<std::string> names{
        "sampler.cond_draw_us_per_row", "rng.noise_us_per_row",
        "rng.gumbel_us_per_row",        "nn.generator_us_per_row",
        "gan.activation_us_per_row",    "transformer.decode_us_per_row",
        "table.to_csv_us_per_row",      "csv.serialize_us_per_row",
        "csv.bytes_per_row",            "core.cursor_us_per_row",
        "core.push_us_per_row",         "protocol.parse_us",
        "server.handle_p50_ms",         "service.outside_handler_ms",
        "event_loop.stream_suspensions", "event_loop.queue_full",
        "service.bytes_out_per_row",    "snapshot.write_ms",
        "snapshot.read_ms",             "snapshot.bytes",
        "registry.put_ms",              "cluster.forward_hop_ms",
        "cluster.forwards",             "cluster.forward_errors",
        "cluster.replicate_ms",         "core.fit_epoch_ms",
        "jobs.overhead_ms",             "loadgen.late_p99_ms"};
    return names;
}

/// Verifies every response a window received against its golden output.
void verify_window(const Fleet& fleet, WindowResult& w, bool corrupt_golden) {
    (void)verify_outcomes(fleet, w.outcomes, corrupt_golden);
    (void)verify_outcomes(fleet, w.checks, corrupt_golden);
}

/// Prints failure notes and the result line; the exit code.
int finish(const std::vector<const WindowResult*>& windows, const Report& report,
           const std::vector<std::string>& json_names) {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
    std::size_t shown = 0;
    for (const WindowResult* w : windows) {
        for (const auto* list : {&w->outcomes, &w->checks}) {
            attempted += list->size();
            for (const auto& o : *list) {
                mismatches += o.verified ? 0 : 1;
            }
        }
        attempted += w->jobs_attempted + w->probe_checks;
        failed += w->jobs_failed + w->probe_failures;
        for (const auto& note : w->failure_notes) {
            if (shown++ < 10) {
                std::cout << "failure " << note << "\n";
            }
        }
    }
    failed += mismatches;
    if (mismatches != 0) {
        std::cout << "failure " << mismatches
                  << " responses failed or did not match their golden output\n";
    }
    Report json;
    bool complete = true;
    for (const auto& name : json_names) {
        if (!report.has(name)) {
            complete = false;
            std::cerr << "perfbench: metric " << name << " was not measured\n";
            continue;
        }
        json.add(name, report.value(name), report.unit(name));
    }
    const bool correct = failed == 0 && complete;
    std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
              << attempted << ", \"failed\": " << failed << ", \"metrics\": "
              << json.json_metrics() << "}" << std::endl;
    return correct ? 0 : 1;
}

int run_workload(const Args& args) {
    const WorkloadSpec* spec = find_workload(args.workload);
    if (spec == nullptr) {
        std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
        return 2;
    }
    // Set-up, three times (once when traced); the last fleet serves the run.
    const std::size_t setups = args.trace ? 1 : 3;
    std::vector<double> setup_s;
    std::unique_ptr<Fleet> fleet;
    for (std::size_t i = 0; i < setups; ++i) {
        fleet.reset();
        const auto t0 = Clock::now();
        fleet = Fleet::start();
        setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    fleet->resolve_models();

    WindowResult window;
    if (spec->name == "stream-bulk") {
        window = run_stream_bulk(*fleet, args.seed, args.seconds);
    } else if (spec->name == "framed-mixed-fleet") {
        window = run_framed_mixed_fleet(*fleet, args.seed, args.seconds, kFramedMixedRate);
    } else {
        window = run_train_beside_serve(*fleet, args.seed, args.seconds);
    }
    run_identity_probes(*fleet, args.seed, window);
    if (spec->name != "train-beside-serve") {
        // These mixes train nothing; train_job_s is measured with the
        // fleet otherwise idle, after the serving window.
        run_alone_train_jobs(*fleet, 5, window);
    }

    WindowResult extra;
    Report layers;
    if (args.trace) {
        // The window may have left lab published on B; the layer passes
        // need B to forward it again.
        WireClient(fleet->b().port()).framed("DROP " + fleet->lab.name);
        stage_metrics(*fleet, layers);
        service_metrics(*fleet, args.seed, layers, extra);
        snapshot_cluster_job_metrics(*fleet, layers, extra);
    }

    // Verify before reporting: unverified rows never count.
    verify_window(*fleet, window, args.corrupt_golden);
    verify_window(*fleet, extra, args.corrupt_golden);
    Report e2e;
    e2e.add("setup_s", median(setup_s), "s");
    end_to_end_metrics(*spec, window, e2e);
    e2e.add("peak_rss_mb", peak_rss_mib(), "MiB");

    std::cout << "workload " << spec->name << " seed " << args.seed << " seconds " << args.seconds
              << " KINET_NUM_THREADS " << args.threads << " trace " << args.trace << "\n";
    e2e.print_lines(args.trace ? "traced-metric " : "metric ");
    for (const auto& note : e2e.notes()) {
        std::cout << "note " << note << "\n";
    }
    if (args.trace) {
        layers.print_lines("layer ");
        for (const auto& note : layers.notes()) {
            std::cout << "note " << note << "\n";
        }
    }
    const auto& names = args.trace ? per_layer_names() : end_to_end_names();
    return finish({&window, &extra}, args.trace ? layers : e2e, names);
}

int run_sweep(const Args& args) {
    auto fleet = Fleet::start();
    fleet->resolve_models();
    Report report;
    WindowResult extra;
    sweep_metrics(*fleet, args.seed, report, extra);
    verify_window(*fleet, extra, args.corrupt_golden);
    report.print_lines("sweep-metric ");
    return finish({&extra}, report, {"core.push_rows_per_s", "service.serve_rows_per_s"});
}

int run_calibrate(const Args& args) {
    auto fleet = Fleet::start();
    fleet->resolve_models();
    const double capacity = calibrate_framed_mixed(*fleet, args.seed, args.seconds);
    std::cout << "framed-mixed-fleet closed-loop capacity " << capacity
              << " req/s; the open-loop rate " << kFramedMixedRate << " req/s is "
              << 100.0 * kFramedMixedRate / capacity << "% of it\n";
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    try {
        const Args args = parse_args(argc, argv);
        // The global pool reads KINET_NUM_THREADS once, at first use.
        setenv("KINET_NUM_THREADS", std::to_string(args.threads).c_str(), 1);
        if (args.sweep) {
            return run_sweep(args);
        }
        if (args.calibrate) {
            return run_calibrate(args);
        }
        return run_workload(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
