#include "src/common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "src/common/check.hpp"

namespace kinet {

double Rng::uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

double Rng::laplace(double mu, double b) {
    KINET_CHECK(b > 0.0, "laplace scale must be positive");
    const double u = uniform(-0.5, 0.5);
    return mu - b * ((u < 0.0) ? -1.0 : 1.0) * std::log(1.0 - 2.0 * std::abs(u));
}

double Rng::exponential(double lambda) {
    KINET_CHECK(lambda > 0.0, "exponential rate must be positive");
    std::exponential_distribution<double> dist(lambda);
    return dist(engine_);
}

double Rng::lognormal(double mu, double sigma) {
    std::lognormal_distribution<double> dist(mu, sigma);
    return dist(engine_);
}

std::int64_t Rng::randint(std::int64_t lo, std::int64_t hi) {
    KINET_CHECK(lo <= hi, "randint requires lo <= hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

bool Rng::bernoulli(double p) {
    std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
    return dist(engine_);
}

std::size_t Rng::categorical(std::span<const double> weights) {
    KINET_CHECK(!weights.empty(), "categorical needs at least one weight");
    double total = 0.0;
    for (double w : weights) {
        KINET_CHECK(w >= 0.0, "categorical weights must be non-negative");
        total += w;
    }
    KINET_CHECK(total > 0.0, "categorical weights must not all be zero");
    double r = uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0.0) {
            return i;
        }
    }
    return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
    KINET_CHECK(k <= n, "cannot sample more items than the population");
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    // Partial Fisher–Yates: only the first k positions need to be randomised.
    for (std::size_t i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(
            randint(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
        std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::shuffle(idx.begin(), idx.end(), engine_);
    return idx;
}

Rng Rng::fork() {
    return Rng(engine_());
}

std::string Rng::serialize_state() const {
    std::ostringstream oss;
    oss << engine_;
    return oss.str();
}

void Rng::deserialize_state(const std::string& state) {
    std::istringstream iss(state);
    iss >> engine_;
    KINET_CHECK(!iss.fail(), "Rng::deserialize_state: malformed engine state");
}

}  // namespace kinet
