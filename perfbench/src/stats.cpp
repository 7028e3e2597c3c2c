#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <sstream>

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) {
        return 0.0;
    }
    const double pos = (q / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return percentile_sorted(values, 50.0);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

Tail tail_of(std::vector<double> values, int max_pct) {
    std::sort(values.begin(), values.end());
    Tail t;
    t.count = values.size();
    for (const int pct : {99, 95, 90}) {
        if (pct > max_pct) {
            continue;
        }
        const double beyond = static_cast<double>(values.size()) * (100.0 - pct) / 100.0;
        if (beyond >= 10.0) {
            t.pct = pct;
            t.beyond = beyond;
            t.value = percentile_sorted(values, pct);
            return t;
        }
    }
    // Too few samples for any supported tail: report the maximum, flagged
    // by pct == 0.
    t.value = values.empty() ? 0.0 : values.back();
    return t;
}

std::uint64_t mix_seed(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void Report::add(const std::string& name, double value, const std::string& unit) {
    for (auto& e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back(Entry{name, value, unit});
}

bool Report::has(const std::string& name) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.name == name; });
}

double Report::value(const std::string& name) const {
    for (const auto& e : entries_) {
        if (e.name == name) {
            return e.value;
        }
    }
    return 0.0;
}

std::string Report::unit(const std::string& name) const {
    for (const auto& e : entries_) {
        if (e.name == name) {
            return e.unit;
        }
    }
    return {};
}

void Report::print_lines(const std::string& prefix) const {
    for (const auto& e : entries_) {
        std::cout << prefix << e.name << " " << json_number(e.value) << " " << e.unit << "\n";
    }
}

std::string Report::json_metrics() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (i != 0) {
            out += ", ";
        }
        out += json_string(entries_[i].name) + ": {\"value\": " + json_number(entries_[i].value) +
               ", \"unit\": " + json_string(entries_[i].unit) + "}";
    }
    return out + "}";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

std::map<std::string, double> parse_stats(const std::string& payload) {
    std::map<std::string, double> out;
    std::istringstream lines(payload);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream tokens(line);
        std::string first;
        tokens >> first;
        const auto eq = first.find('=');
        if (eq != std::string::npos) {
            try {
                out[first.substr(0, eq)] = std::stod(first.substr(eq + 1));
            } catch (const std::exception&) {
                // Non-numeric gauge (names, addresses): not a counter.
            }
            continue;
        }
        if (first.rfind("op_", 0) != 0) {
            continue;
        }
        std::string field;
        while (tokens >> field) {
            const auto feq = field.find('=');
            if (feq == std::string::npos) {
                continue;
            }
            try {
                out[first + "." + field.substr(0, feq)] = std::stod(field.substr(feq + 1));
            } catch (const std::exception&) {
            }
        }
    }
    return out;
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
