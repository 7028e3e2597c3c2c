// Exact client-side statistics, response hashing and metric reporting for
// the serving benchmark.  Every latency figure comes from the sorted list of
// per-request timings taken at the client; nothing here reads the server's
// log2 histograms.
#ifndef KINET_PERFBENCH_STATS_H
#define KINET_PERFBENCH_STATS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linear-interpolated percentile (q in [0, 100]) of an ascending vector.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// The tail the benchmark reports: the highest of p99, p95 and p90 (no
/// higher than `max_pct`) that still leaves at least ten samples beyond it.
struct Tail {
    double value = 0.0;
    int pct = 0;            // 99, 95 or 90; 0 when fewer than 100 samples
    std::size_t count = 0;  // samples the percentile was taken over
    double beyond = 0.0;    // expected samples above the percentile
};
[[nodiscard]] Tail tail_of(std::vector<double> values, int max_pct);

/// Streaming FNV-1a 64 over response bytes.
class Fnv64 {
public:
    void update(std::string_view bytes) noexcept {
        for (const char c : bytes) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ULL;
        }
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] inline std::uint64_t fnv64(std::string_view bytes) {
    Fnv64 h;
    h.update(bytes);
    return h.value();
}

/// splitmix64: derives independent per-request seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t x);

/// Named metrics in insertion order, printed as "name value unit" lines and
/// as the benchmark's JSON result line.
class Report {
public:
    void add(const std::string& name, double value, const std::string& unit);
    void note(const std::string& line) { notes_.push_back(line); }
    [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }
    [[nodiscard]] bool has(const std::string& name) const;
    [[nodiscard]] double value(const std::string& name) const;
    [[nodiscard]] std::string unit(const std::string& name) const;

    /// Human-readable "metric <name> <value> <unit>" lines.
    void print_lines(const std::string& prefix) const;
    /// {"name": {"value": v, "unit": "u"}, ...}
    [[nodiscard]] std::string json_metrics() const;

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
    std::vector<std::string> notes_;
};

/// Full-precision JSON number (never NaN/inf; those become 0 and are
/// reported as a failed check by the caller).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

/// Parses "key=value" lines and "op_X count=.. mean_us=.." lines of a STATS
/// payload into flat keys ("op_SAMPLE.count", ...).
[[nodiscard]] std::map<std::string, double> parse_stats(const std::string& payload);

/// Process peak resident set size in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench

#endif  // KINET_PERFBENCH_STATS_H
