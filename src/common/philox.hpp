// Counter-based random stream for the sampling path and training's draws.
//
// Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
// 3", SC'11) turns a 128-bit counter and a 64-bit key into four 32-bit words
// with no state carried between calls, so any row of a served sample can be
// drawn on its own.  The float transforms (uniform, log, Box–Muller,
// Gumbel) are written here with a fixed operation order and use neither libm
// nor <random>: this translation unit is compiled with -ffp-contract=off, so
// every value is a sequence of correctly rounded IEEE single-precision
// operations and the stream's bits are the same under any conforming
// compiler, standard library and instruction set.  docs/protocol.md
// ("Sampling stream") specifies the stream for other implementations.
#ifndef KINETGAN_COMMON_PHILOX_H
#define KINETGAN_COMMON_PHILOX_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace kinet::philox {

using Counter = std::array<std::uint32_t, 4>;
using Key = std::array<std::uint32_t, 2>;

/// Words per counter block.
inline constexpr std::size_t kBlockWords = 4;

/// Blocks that hold `words` words.
[[nodiscard]] constexpr std::size_t blocks_for(std::size_t words) noexcept {
    return (words + kBlockWords - 1) / kBlockWords;
}

/// Ten Philox4x32 rounds of `ctr` under `key` (Random123's philox4x32_R
/// with R = 10).
[[nodiscard]] Counter philox4x32_10(Counter ctr, Key key) noexcept;

/// Writes `blocks_per_row` blocks for each row in [row0, row0 + rows) into
/// `out`, row-major: block k of row r is
/// philox4x32_10({k, 0, lo32(r), hi32(r)}, {lo32(key), hi32(key)}).
/// `out` must hold rows * blocks_per_row * kBlockWords words.
void fill_rows(std::uint64_t key, std::uint64_t row0, std::size_t rows,
               std::size_t blocks_per_row, std::uint32_t* out) noexcept;

/// The words of one rows x cols draw under `key` (the training draws:
/// noise, Gumbel and dropout matrices): fill_rows(key, 0, rows,
/// blocks_for(cols), ...), so row r's words start at
/// r * blocks_for(cols) * kBlockWords.
[[nodiscard]] std::vector<std::uint32_t> matrix_words(std::uint64_t key, std::size_t rows,
                                                      std::size_t cols);

/// The open-interval uniform of one word: (int32(w >> 9) + 0.5) * 2^-23.
/// Every value is exact in float, so u is never 0 or 1.
[[nodiscard]] float uniform(std::uint32_t w) noexcept;

/// Natural log of a positive normal float: a logf-style reduction to
/// [sqrt(2)/2, sqrt(2)) * 2^k plus a minimax polynomial, branch-free.
[[nodiscard]] float ln(float x) noexcept;

/// `n` standard normals by Box–Muller, keeping both variates: with
/// h = ceil(n / 2), pair j takes u1 = uniform(words[j]) and
/// u2 = uniform(words[h + j]); out[j] = r cos(2 pi u2) and
/// out[h + j] = r sin(2 pi u2) (when h + j < n), r = sqrt(-2 ln u1).
/// Reads words[0, 2h).
void normals(const std::uint32_t* words, std::size_t n, float* out) noexcept;

/// `n` Gumbel(0, 1) draws, out[i] = -ln(-ln(uniform(words[i]))).
void gumbels(const std::uint32_t* words, std::size_t n, float* out) noexcept;

/// A uniform double in [0, 1) with 53 random bits: the 32 bits of `hi`
/// above the top 21 bits of `lo`.
[[nodiscard]] inline double uniform53(std::uint32_t hi, std::uint32_t lo) noexcept {
    const std::uint64_t bits = (static_cast<std::uint64_t>(hi) << 21) | (lo >> 11);
    return static_cast<double>(bits) * 0x1p-53;
}

/// Multiply-shift pick of an index in [0, n) from one word (n < 2^32).
[[nodiscard]] inline std::size_t pick(std::uint32_t w, std::size_t n) noexcept {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(w) * n) >> 32);
}

}  // namespace kinet::philox

#endif  // KINETGAN_COMMON_PHILOX_H
