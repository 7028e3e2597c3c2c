#include "src/common/philox.hpp"

#include <bit>
#include <cmath>

// Built with -ffp-contract=off and -fno-math-errno (CMakeLists.txt): no
// multiply-add is fused, so each expression below rounds exactly as
// written, and sqrtf lowers to the IEEE square-root instruction.

namespace kinet::philox {

namespace {

constexpr std::uint32_t kMul0 = 0xD2511F53U;
constexpr std::uint32_t kMul1 = 0xCD9E8D57U;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9U;  // golden ratio
constexpr std::uint32_t kWeyl1 = 0xBB67AE85U;  // sqrt(3) - 1

inline Counter rounds(Counter c, std::uint32_t k0, std::uint32_t k1) noexcept {
    for (int i = 0; i < 10; ++i) {
        if (i > 0) {
            k0 += kWeyl0;
            k1 += kWeyl1;
        }
        const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * c[0];
        const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * c[2];
        c = {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k0, static_cast<std::uint32_t>(p1),
             static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k1, static_cast<std::uint32_t>(p0)};
    }
    return c;
}

inline float uniform_of(std::uint32_t w) noexcept {
    return (static_cast<float>(static_cast<std::int32_t>(w >> 9)) + 0.5F) * 0x1p-23F;
}

inline float ln_of(float x) noexcept {
    // x = 2^k * m with m in [sqrt(2)/2, sqrt(2)); log(m) = log(1 + f) is
    // evaluated through s = f / (2 + f) and an odd polynomial in s.
    constexpr float kLn2Hi = 6.9313812256e-01F;  // ln 2, high 16 bits
    constexpr float kLn2Lo = 9.0580006145e-06F;  // ln 2 - kLn2Hi
    constexpr float kLg1 = 0xaaaaaa.0p-24F;
    constexpr float kLg2 = 0xccce13.0p-25F;
    constexpr float kLg3 = 0x91e9ee.0p-25F;
    constexpr float kLg4 = 0xf89e26.0p-26F;
    constexpr std::uint32_t kSqrtHalf = 0x3f3504f3U;  // bits of sqrt(2)/2
    std::uint32_t ix = std::bit_cast<std::uint32_t>(x);
    ix += 0x3f800000U - kSqrtHalf;
    const auto k = static_cast<std::int32_t>(ix >> 23) - 0x7f;
    ix = (ix & 0x007fffffU) + kSqrtHalf;
    const float f = std::bit_cast<float>(ix) - 1.0F;
    const float s = f / (2.0F + f);
    const float z = s * s;
    const float w = z * z;
    const float t1 = w * (kLg2 + w * kLg4);
    const float t2 = z * (kLg1 + w * kLg3);
    const float r = t2 + t1;
    const float hfsq = 0.5F * f * f;
    const auto dk = static_cast<float>(k);
    return s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

/// sin and cos of 2 pi u for u in (0, 1): u is reduced to the nearest
/// quarter turn q and a remainder |t| <= 1/8 turn, both exact; the
/// remainder goes through minimax polynomials on [-pi/4, pi/4] and the
/// quadrant is applied by swapping and sign-flipping bits.
inline void sincos_turn(float u, float& sin_out, float& cos_out) noexcept {
    constexpr float kTwoPi = 6.28318530717958647692F;
    constexpr float kS1 = -1.6666654611e-1F;
    constexpr float kS2 = 8.3321608736e-3F;
    constexpr float kS3 = -1.9515295891e-4F;
    constexpr float kC1 = 4.166664568298827e-2F;
    constexpr float kC2 = -1.388731625493765e-3F;
    constexpr float kC3 = 2.443315711809948e-5F;
    const auto q = static_cast<std::int32_t>(u * 4.0F + 0.5F);
    const float t = u - static_cast<float>(q) * 0.25F;
    const float a = t * kTwoPi;
    const float z = a * a;
    const float s = a + a * z * (kS1 + z * (kS2 + z * kS3));
    const float c = 1.0F - 0.5F * z + z * z * (kC1 + z * (kC2 + z * kC3));
    // sin(a + q pi/2), cos(a + q pi/2): odd q swaps the pair; sin is
    // negated for q = 2, 3 and cos for q = 1, 2.
    const auto uq = static_cast<std::uint32_t>(q);
    const std::uint32_t swap = 0U - (uq & 1U);
    const std::uint32_t sb = std::bit_cast<std::uint32_t>(s);
    const std::uint32_t cb = std::bit_cast<std::uint32_t>(c);
    const std::uint32_t sin_bits = ((cb & swap) | (sb & ~swap)) ^ ((uq & 2U) << 30);
    const std::uint32_t cos_bits = ((sb & swap) | (cb & ~swap)) ^ (((uq + 1U) & 2U) << 30);
    sin_out = std::bit_cast<float>(sin_bits);
    cos_out = std::bit_cast<float>(cos_bits);
}

inline float radius_of(std::uint32_t w) noexcept {
    return std::sqrt(-2.0F * ln_of(uniform_of(w)));
}

}  // namespace

Counter philox4x32_10(Counter ctr, Key key) noexcept { return rounds(ctr, key[0], key[1]); }

void fill_rows(std::uint64_t key, std::uint64_t row0, std::size_t rows,
               std::size_t blocks_per_row, std::uint32_t* out) noexcept {
    const auto k0 = static_cast<std::uint32_t>(key);
    const auto k1 = static_cast<std::uint32_t>(key >> 32);
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t row = row0 + r;
        const auto lo = static_cast<std::uint32_t>(row);
        const auto hi = static_cast<std::uint32_t>(row >> 32);
        std::uint32_t* dst = out + r * blocks_per_row * kBlockWords;
        for (std::size_t b = 0; b < blocks_per_row; ++b) {
            const Counter c = rounds({static_cast<std::uint32_t>(b), 0U, lo, hi}, k0, k1);
            dst[b * kBlockWords + 0] = c[0];
            dst[b * kBlockWords + 1] = c[1];
            dst[b * kBlockWords + 2] = c[2];
            dst[b * kBlockWords + 3] = c[3];
        }
    }
}

std::vector<std::uint32_t> matrix_words(std::uint64_t key, std::size_t rows, std::size_t cols) {
    const std::size_t blocks = blocks_for(cols);
    std::vector<std::uint32_t> words(rows * blocks * kBlockWords);
    fill_rows(key, 0, rows, blocks, words.data());
    return words;
}

float uniform(std::uint32_t w) noexcept { return uniform_of(w); }

float ln(float x) noexcept { return ln_of(x); }

void normals(const std::uint32_t* words, std::size_t n, float* out) noexcept {
    const std::size_t h = (n + 1) / 2;
    const std::size_t pairs = n / 2;  // pairs that keep both variates
    for (std::size_t j = 0; j < pairs; ++j) {
        const float r = radius_of(words[j]);
        float s = 0.0F;
        float c = 0.0F;
        sincos_turn(uniform_of(words[h + j]), s, c);
        out[j] = r * c;
        out[h + j] = r * s;
    }
    if (h > pairs) {  // odd n: the last pair keeps only its cosine
        float s = 0.0F;
        float c = 0.0F;
        sincos_turn(uniform_of(words[h + pairs]), s, c);
        out[pairs] = radius_of(words[pairs]) * c;
    }
}

void gumbels(const std::uint32_t* words, std::size_t n, float* out) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = -ln_of(-ln_of(uniform_of(words[i])));
    }
}

}  // namespace kinet::philox
