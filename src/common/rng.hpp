// Deterministic random-number utilities.
//
// Every stochastic component in the library (simulators, GAN training,
// samplers, attacks) takes a kinet::Rng so that experiments are reproducible
// from a single seed.  The class wraps std::mt19937_64 and adds the sampling
// helpers the codebase actually needs.
#ifndef KINETGAN_COMMON_RNG_H
#define KINETGAN_COMMON_RNG_H

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace kinet {

/// Seedable random generator with convenience draws used across the library.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x5eed'0f'c0ffeeULL) : engine_(seed) {}

    /// Uniform real in [lo, hi).
    double uniform(double lo = 0.0, double hi = 1.0);
    /// Standard normal (mean 0, stddev 1) scaled to (mean, stddev).
    double normal(double mean = 0.0, double stddev = 1.0);
    /// Laplace(mu, b) draw — used by PATE aggregation.
    double laplace(double mu, double b);
    /// Exponential with rate lambda — inter-arrival times in the simulators.
    double exponential(double lambda);
    /// Log-normal draw (parameters of the underlying normal).
    double lognormal(double mu, double sigma);
    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t randint(std::int64_t lo, std::int64_t hi);
    /// Bernoulli trial.
    bool bernoulli(double p);

    /// Index drawn from unnormalised non-negative weights.
    std::size_t categorical(std::span<const double> weights);

    /// k distinct indices from [0, n) (k <= n), in random order.
    std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

    /// Random permutation of [0, n).
    std::vector<std::size_t> permutation(std::size_t n);

    template <typename T>
    void shuffle(std::vector<T>& v) {
        std::shuffle(v.begin(), v.end(), engine_);
    }

    /// Uniformly chosen element of a non-empty span.
    template <typename T>
    const T& choice(std::span<const T> items) {
        return items[static_cast<std::size_t>(randint(0, static_cast<std::int64_t>(items.size()) - 1))];
    }

    std::mt19937_64& engine() { return engine_; }

    /// Derives an independent child generator (for per-component seeding).
    Rng fork();

    /// Engine state as a portable decimal string (std::mt19937_64 stream
    /// format) — lets model snapshots resume the exact random stream.
    [[nodiscard]] std::string serialize_state() const;
    /// Restores a serialize_state() string; throws kinet::Error on malformed
    /// input.
    void deserialize_state(const std::string& state);

private:
    std::mt19937_64 engine_;
};

}  // namespace kinet

#endif  // KINETGAN_COMMON_RNG_H
