// The three traffic mixes, the output verification every response goes
// through, and the end-to-end metrics computed from client-side timings.
#ifndef KINET_PERFBENCH_WORKLOADS_H
#define KINET_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "loadgen.hpp"
#include "stats.hpp"

namespace perfbench {

/// Fixed definition of one workload (the numbers spec.json records).
struct WorkloadSpec {
    std::string name;
    /// Highest tail percentile reported (the request count supports it).
    int tail_max_pct = 99;
    /// Latency limit behind slo_met_frac.
    double slo_ms = 0.0;
};

[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();

/// Open-loop arrival rate of framed-mixed-fleet (requests/s): about 28% of
/// the closed-loop capacity of the same mix (~350 requests/s measured with
/// --calibrate on a 4-core host).  At 70% and 40% of capacity, open-loop
/// latency varied by 25-100% between runs on a shared host.
inline constexpr double kFramedMixedRate = 100.0;

enum class ReqKind : std::uint8_t { framed_sample, stream_sample, validate };

/// One request as sent, and what came back.
struct Outcome {
    ReqKind kind = ReqKind::framed_sample;
    bool unsw = false;
    std::size_t n = 0;
    std::uint64_t seed = 0;
    int pin = -1;  // index into ServedModel::minority, -1 = none
    Reply reply;
    double latency_ms = 0.0;  // send (closed) or schedule (open) to last byte
    double ttfc_ms = 0.0;     // to the first CHUNK frame / framed status line
    double late_ms = 0.0;     // open loop: actual send minus scheduled send
    bool verified = false;
};

[[nodiscard]] std::string request_line(const Fleet& fleet, const Outcome& o);

/// Sends `o` on `client` in closed loop: latency from send to last byte.
void send_closed(const Fleet& fleet, WireClient& client, Outcome& o);

/// `count` requests of the framed-mixed-fleet mix (no schedule).
[[nodiscard]] std::vector<Outcome> mix_requests(const Fleet& fleet, std::uint64_t seed,
                                                std::size_t count);

/// What one measured window produced.
struct WindowResult {
    std::vector<Outcome> outcomes;  // timed requests
    std::vector<Outcome> checks;    // warm-up and probe requests (verified, not timed)
    double wall_s = 0.0;
    std::vector<double> train_job_s;
    std::size_t jobs_attempted = 0;
    std::size_t jobs_failed = 0;
    /// Pairwise byte-identity checks (forwarded vs direct, A vs B, ...).
    std::size_t probe_checks = 0;
    std::size_t probe_failures = 0;
    std::vector<std::string> failure_notes;
};

WindowResult run_stream_bulk(Fleet& fleet, std::uint64_t seed, double seconds);
WindowResult run_framed_mixed_fleet(Fleet& fleet, std::uint64_t seed, double seconds,
                                    double rate);
WindowResult run_train_beside_serve(Fleet& fleet, std::uint64_t seed, double seconds);

/// Closed-loop capacity of the framed-mixed-fleet mix (requests/s) with the
/// same four sender threads and connections.
double calibrate_framed_mixed(Fleet& fleet, std::uint64_t seed, double seconds);

/// Post-window probes every workload runs: framed == streamed == golden on
/// S, forwarded == owner-direct for both models.
void run_identity_probes(Fleet& fleet, std::uint64_t seed, WindowResult& result);

/// Back-to-back FEDTRAIN lab jobs on member A with nothing else running.
void run_alone_train_jobs(Fleet& fleet, std::size_t jobs, WindowResult& result);

/// Recomputes every response in process (sample_seeded + csv::serialize,
/// or the VALIDATE kv payload) and marks Outcome::verified.  Returns the
/// number of mismatches.  `corrupt_golden` flips each expected hash — the
/// smoke test uses it to prove a mismatch fails the run.
std::size_t verify_outcomes(const Fleet& fleet, std::vector<Outcome>& outcomes,
                            bool corrupt_golden);

/// One FEDTRAIN of `model` submitted on `client`, long-polled to a terminal
/// state.  Returns seconds from submit to the POLL that shows `done`, or a
/// negative value on failure (message in `error`).
double fedtrain_job(WireClient& client, const std::string& model, std::string& error);
/// Counts one fedtrain_job result into `result` (time, or failure note).
void record_job(WindowResult& result, double seconds, const std::string& error);

/// The end-to-end metrics of one window.
void end_to_end_metrics(const WorkloadSpec& spec, const WindowResult& result, Report& report);

}  // namespace perfbench

#endif  // KINET_PERFBENCH_WORKLOADS_H
