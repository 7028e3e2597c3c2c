// The packed GEMM engine template — included only by the per-ISA
// instantiation units (gemm_generic.cpp, gemm_avx2.cpp).  See gemm.hpp for
// the engine-level contract.
//
// Loop structure (BLIS-style, two packing levels):
//
//   for jc over n in NC-wide column panels
//     for pc over k in KC-deep blocks
//       pack B[pc:pc+kc, jc:jc+nc] into NR-wide strips   (zero-padded)
//       parallel over MR-row strips of A:
//         pack A[strip, pc:pc+kc] into an MR-wide strip  (zero-padded)
//         for each NR strip of the B panel:
//           micro-kernel: C tile (+)= A strip * B strip [+ bias on last pc]
//
// The micro-kernel is supplied by the instantiating unit (a `Kernel` policy
// with MR/NR and micro_full), written with explicit fixed-width vector
// types so the accumulator block provably stays in registers.  It loads the
// C tile before a k-block (except the first, which starts from zero) and
// stores it after, so each C element sees one strictly k-ascending chain of
// multiply-adds regardless of blocking or thread partition.
#ifndef KINETGAN_TENSOR_GEMM_ENGINE_H
#define KINETGAN_TENSOR_GEMM_ENGINE_H

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/tensor/gemm.hpp"

namespace kinet::tensor::detail {

// Cache blocking: a KC x NR B strip (16 KiB at NR = 16) stays L1-resident
// across every A strip of the panel; the KC x NC B panel (1 MiB) fits L2.
inline constexpr std::size_t kGemmKC = 256;
inline constexpr std::size_t kGemmNC = 1024;

// kGemmMinFlopsPerChunk (the scheduling rule every drive below applies to
// its parallel_for grain) lives in gemm.hpp, where tests can see it.

#if defined(__GNUC__) || defined(__clang__)
#define KINET_GEMM_VECTOR_EXT 1
/// 8 floats; on ISAs narrower than 256 bits the compiler lowers each
/// operation to the native width (e.g. two SSE ops).  The typedef is
/// byte-aligned (loads/stores may hit unaligned addresses) and may_alias
/// so dereferencing float storage through it is defined.  Direct
/// dereference — not memcpy — is what compiles to a single vmovups; the
/// memcpy form bounces every load through a stack slot.
using vf8 = float __attribute__((vector_size(32), aligned(4), may_alias));

// The helpers pass/return vf8 by value; on baseline-ISA units GCC notes
// that a non-inlined copy would change the calling ABI (-Wpsabi).  They
// are internal and always inlined into the micro-kernels, so the note is
// moot — the baseline unit is compiled with -Wno-psabi (see CMakeLists).

inline vf8 vload8(const float* p) { return *reinterpret_cast<const vf8*>(p); }

inline void vstore8(float* p, vf8 v) { *reinterpret_cast<vf8*>(p) = v; }

inline vf8 vsplat8(float x) { return vf8{x, x, x, x, x, x, x, x}; }
#endif  // __GNUC__ || __clang__

/// Packs B[pc:pc+kc, jc:jc+nc] into NR-wide strips, each laid out
/// [p][0..NR) contiguously; columns past nc are zero-filled so edge tiles
/// run the same micro-kernel as full ones.
template <int NR>
void pack_b_panel(GemmOperand b, std::size_t pc, std::size_t kc, std::size_t jc, std::size_t nc,
                  float* out) {
    const std::size_t jstrips = (nc + NR - 1) / static_cast<std::size_t>(NR);
    for (std::size_t js = 0; js < jstrips; ++js) {
        float* strip = out + js * kc * NR;
        const std::size_t j0 = jc + js * NR;
        const std::size_t jn = std::min<std::size_t>(NR, jc + nc - j0);
        if (b.cs == 1) {
            // Row-major source: copy kc short contiguous runs.
            for (std::size_t p = 0; p < kc; ++p) {
                const float* src = b.data + (pc + p) * b.rs + j0;
                float* dst = strip + p * NR;
                for (std::size_t j = 0; j < jn; ++j) {
                    dst[j] = src[j];
                }
                for (std::size_t j = jn; j < NR; ++j) {
                    dst[j] = 0.0F;
                }
            }
        } else {
            // Column-contiguous source (the nt case): walk each source row
            // once, scattering into the strip at stride NR.
            for (std::size_t j = 0; j < jn; ++j) {
                const float* src = b.data + pc * b.rs + (j0 + j) * b.cs;
                for (std::size_t p = 0; p < kc; ++p) {
                    strip[p * NR + j] = src[p * b.rs];
                }
            }
            for (std::size_t j = jn; j < NR; ++j) {
                for (std::size_t p = 0; p < kc; ++p) {
                    strip[p * NR + j] = 0.0F;
                }
            }
        }
    }
}

/// Packs A[i0:i0+rows, pc:pc+kc] into one MR-wide strip laid out [p][0..MR);
/// rows past `rows` are zero-filled.
template <int MR>
void pack_a_strip(GemmOperand a, std::size_t i0, std::size_t rows, std::size_t pc, std::size_t kc,
                  float* out) {
    if (a.rs == 1) {
        // Column-major-ish source (the tn case): each p reads a contiguous
        // run of MR elements.
        for (std::size_t p = 0; p < kc; ++p) {
            const float* src = a.data + i0 + (pc + p) * a.cs;
            float* dst = out + p * MR;
            for (std::size_t i = 0; i < rows; ++i) {
                dst[i] = src[i];
            }
            for (std::size_t i = rows; i < MR; ++i) {
                dst[i] = 0.0F;
            }
        }
    } else {
        for (std::size_t i = 0; i < rows; ++i) {
            const float* src = a.data + (i0 + i) * a.rs + pc * a.cs;
            for (std::size_t p = 0; p < kc; ++p) {
                out[p * MR + i] = src[p * a.cs];
            }
        }
        for (std::size_t i = rows; i < MR; ++i) {
            for (std::size_t p = 0; p < kc; ++p) {
                out[p * MR + i] = 0.0F;
            }
        }
    }
}

/// Edge tile (rows < MR and/or cols < NR): scalar arithmetic, bounded loads
/// and stores.  The padded accumulator lanes see only packed zeros and are
/// never stored.  The engine drives route edges through micro_edge_staged
/// below; this scalar form remains as KernelGeneric's micro_full on
/// toolchains without vector extensions (see gemm_generic.cpp's
/// !KINET_GEMM_VECTOR_EXT branch — the staged wrapper then stages onto it).
template <int MR, int NR>
void micro_edge(std::size_t kc, const float* __restrict ap, const float* __restrict bp,
                float* __restrict c, std::size_t ldc, std::size_t rows, std::size_t cols,
                bool first, const float* bias) {
    float acc[MR][NR] = {};
    if (!first) {
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                acc[i][j] = c[i * ldc + j];
            }
        }
    }
    for (std::size_t p = 0; p < kc; ++p) {
        const float* a = ap + p * MR;
        const float* b = bp + p * NR;
        for (int i = 0; i < MR; ++i) {
            const float av = a[i];
            for (int j = 0; j < NR; ++j) {
                acc[i][j] += av * b[j];
            }
        }
    }
    if (bias != nullptr) {
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                acc[i][j] += bias[j];
            }
        }
    }
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            c[i * ldc + j] = acc[i][j];
        }
    }
}

/// Edge tile through the *vector* micro-kernel: the tile is staged into a
/// full MR x NR stack buffer (bounded loads/stores against C happen on the
/// copies), so the edge runs the same register-tiled inner loop as a full
/// tile instead of MR*NR scalar multiply-adds per k step.  Per stored
/// element the operation chain is unchanged — load, k-ascending
/// accumulate with the kernel's contraction, bias after the final block —
/// so results are bit-identical to micro_edge; staged lanes beyond
/// (rows, cols) accumulate zeros-initialised garbage-free values that are
/// simply never copied out.  An m % MR != 0 batch (e.g. 128 rows with the
/// 6-row AVX2 kernel) would otherwise spend a third of its GEMM time in
/// the scalar edge.
template <class Kernel>
void micro_edge_staged(std::size_t kc, const float* ap, const float* bp, float* c,
                       std::size_t ldc, std::size_t rows, std::size_t cols, bool first,
                       const float* bias) {
    constexpr int MR = Kernel::MR;
    constexpr int NR = Kernel::NR;
    float tile[static_cast<std::size_t>(MR) * NR] = {};
    if (!first) {
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                tile[i * NR + j] = c[i * ldc + j];
            }
        }
    }
    Kernel::micro_full(kc, ap, bp, tile, NR, first, nullptr);
    if (bias != nullptr) {
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                c[i * ldc + j] = tile[i * NR + j] + bias[j];
            }
        }
    } else {
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                c[i * ldc + j] = tile[i * NR + j];
            }
        }
    }
}

/// No-pad path for n < NR (e.g. the discriminator head's n == 1): the
/// padded engine would spend NR lanes on one useful column and pack a
/// zero-filled strip per k-block.  Each element keeps the engine's
/// determinism contract — one accumulator, k strictly ascending — and
/// Kernel::madd mirrors the micro-kernel's contraction behaviour (FMA on
/// the AVX2 kernel, separate multiply+add on the portable one), so the
/// result is bit-identical to what the padded path produces.
template <class Kernel>
void gemm_smalln(std::size_t m, std::size_t n, std::size_t k, GemmOperand a, GemmOperand b,
                 float* c, std::size_t ldc, const float* bias) {
    // 8 output rows advance together per column, giving 8 *independent*
    // accumulator chains in the inner loop — a single chain is bound by
    // the multiply-add latency, not throughput (measured ~5x slower than
    // even the 16x-padded engine at n = 1).  Each element still owns
    // exactly one k-ascending chain, so the blocking changes nothing
    // numerically.
    constexpr std::size_t RB = 8;
    const std::size_t blocks = (m + RB - 1) / RB;
    const std::size_t flops_per_block = std::max<std::size_t>(2 * RB * n * k, 1);
    const std::size_t grain = kGemmMinFlopsPerChunk / flops_per_block + 1;
    parallel_for(blocks, grain, [&](std::size_t blk0, std::size_t blk1) {
        for (std::size_t blk = blk0; blk < blk1; ++blk) {
            const std::size_t i0 = blk * RB;
            const std::size_t rb = std::min<std::size_t>(RB, m - i0);
            const float* ablock = a.data + i0 * a.rs;
            for (std::size_t j = 0; j < n; ++j) {
                const float* bcol = b.data + j * b.cs;
                float acc[RB] = {};
                if (rb == RB) {
                    for (std::size_t p = 0; p < k; ++p) {
                        const float bv = bcol[p * b.rs];
                        const float* ap = ablock + p * a.cs;
                        for (std::size_t r = 0; r < RB; ++r) {
                            acc[r] = Kernel::madd(acc[r], ap[r * a.rs], bv);
                        }
                    }
                } else {
                    for (std::size_t p = 0; p < k; ++p) {
                        const float bv = bcol[p * b.rs];
                        const float* ap = ablock + p * a.cs;
                        for (std::size_t r = 0; r < rb; ++r) {
                            acc[r] = Kernel::madd(acc[r], ap[r * a.rs], bv);
                        }
                    }
                }
                for (std::size_t r = 0; r < rb; ++r) {
                    c[(i0 + r) * ldc + j] = (bias != nullptr) ? acc[r] + bias[j] : acc[r];
                }
            }
        }
    });
}

/// Column-panel parallel drive (the jc loop): workers own disjoint NR-strip
/// ranges of the output width and pack their own A strips (per-thread
/// panels), so wide-but-short GEMMs scale past the row-strip partition,
/// which runs out of strips when m/MR < lanes.  The B strip for a (pc, js)
/// pair comes from `strip_of(pc, kc, js, scratch)` — packing on demand
/// into the per-thread scratch for the unpacked entry points, or pointing
/// into the persistent PackedGemmB layout — so the packing and pre-packed
/// paths share one drive and can never diverge.  Each C element is still
/// written by exactly one worker with the same k-ascending chain, so the
/// partition changes nothing numerically.
template <class Kernel, class StripFn>
void gemm_jc_drive(std::size_t m, std::size_t n, std::size_t k, GemmOperand a, float* c,
                   std::size_t ldc, const float* bias, const StripFn& strip_of) {
    constexpr int MR = Kernel::MR;
    constexpr int NR = Kernel::NR;
    const std::size_t strips = (m + MR - 1) / static_cast<std::size_t>(MR);
    const std::size_t jstrips = (n + NR - 1) / static_cast<std::size_t>(NR);
    const std::size_t flops_per_jstrip = std::max<std::size_t>(2 * NR * m * k, 1);
    const std::size_t grain = kGemmMinFlopsPerChunk / flops_per_jstrip + 1;
    parallel_for(jstrips, grain, [&](std::size_t js0, std::size_t js1) {
        thread_local std::vector<float> apack;
        thread_local std::vector<float> bstrip;
        for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
            const std::size_t kc = std::min(kGemmKC, k - pc);
            const bool first = pc == 0;
            const float* blk_bias = (pc + kc == k) ? bias : nullptr;
            // All A strips for this k-block, packed once per worker — m is
            // small in the regime that selects this path.
            apack.resize(strips * kc * MR);
            for (std::size_t s = 0; s < strips; ++s) {
                const std::size_t i0 = s * MR;
                pack_a_strip<MR>(a, i0, std::min<std::size_t>(MR, m - i0), pc, kc,
                                 apack.data() + s * kc * MR);
            }
            bstrip.resize(kc * NR);
            for (std::size_t js = js0; js < js1; ++js) {
                const std::size_t j0 = js * NR;
                const std::size_t cols = std::min<std::size_t>(NR, n - j0);
                const float* bp = strip_of(pc, kc, js, bstrip.data());
                const float* strip_bias = (blk_bias != nullptr) ? blk_bias + j0 : nullptr;
                for (std::size_t s = 0; s < strips; ++s) {
                    const std::size_t i0 = s * MR;
                    const std::size_t rows = std::min<std::size_t>(MR, m - i0);
                    float* ctile = c + i0 * ldc + j0;
                    if (rows == MR && cols == NR) {
                        Kernel::micro_full(kc, apack.data() + s * kc * MR, bp, ctile, ldc, first,
                                           strip_bias);
                    } else {
                        micro_edge_staged<Kernel>(kc, apack.data() + s * kc * MR, bp, ctile, ldc,
                                                  rows, cols, first, strip_bias);
                    }
                }
            }
        }
    });
}

template <class Kernel>
void gemm_engine_jc(std::size_t m, std::size_t n, std::size_t k, GemmOperand a, GemmOperand b,
                    float* c, std::size_t ldc, const float* bias) {
    constexpr int NR = Kernel::NR;
    gemm_jc_drive<Kernel>(
        m, n, k, a, c, ldc, bias,
        [&b, n](std::size_t pc, std::size_t kc, std::size_t js, float* scratch) {
            const std::size_t j0 = js * NR;
            pack_b_panel<NR>(b, pc, kc, j0, std::min<std::size_t>(NR, n - j0), scratch);
            return static_cast<const float*>(scratch);
        });
}

/// Drives Kernel::micro_full over packed panels.  Kernel provides:
///   static constexpr int MR, NR;
///   static void micro_full(std::size_t kc, const float* ap, const float* bp,
///                          float* c, std::size_t ldc, bool first,
///                          const float* bias);
///   static float madd(float acc, float a, float b);  // kernel's contraction
template <class Kernel>
void gemm_engine(std::size_t m, std::size_t n, std::size_t k, GemmOperand a, GemmOperand b,
                 float* c, std::size_t ldc, const float* bias) {
    constexpr int MR = Kernel::MR;
    constexpr int NR = Kernel::NR;
    static_assert(kGemmNC % NR == 0, "NC must be a whole number of NR strips");
    if (n < static_cast<std::size_t>(NR)) {
        gemm_smalln<Kernel>(m, n, k, a, b, c, ldc, bias);
        return;
    }
    const std::size_t strips = (m + MR - 1) / static_cast<std::size_t>(MR);
    if (strips * 2 < (n + NR - 1) / static_cast<std::size_t>(NR)) {
        // Short-and-wide: the row partition has too few strips to feed the
        // pool; parallelise over column panels instead.
        gemm_engine_jc<Kernel>(m, n, k, a, b, c, ldc, bias);
        return;
    }

    // Reused across calls on the packing (calling) thread; workers read it.
    thread_local std::vector<float> bpack;

    for (std::size_t jc = 0; jc < n; jc += kGemmNC) {
        const std::size_t nc = std::min(kGemmNC, n - jc);
        const std::size_t jstrips = (nc + NR - 1) / static_cast<std::size_t>(NR);
        for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
            const std::size_t kc = std::min(kGemmKC, k - pc);
            const bool first = pc == 0;
            const float* tile_bias = (pc + kc == k && bias != nullptr) ? bias + jc : nullptr;

            bpack.resize(jstrips * kc * NR);
            pack_b_panel<NR>(b, pc, kc, jc, nc, bpack.data());
            const float* bp = bpack.data();

            const std::size_t flops_per_strip =
                std::max<std::size_t>(2 * static_cast<std::size_t>(MR) * nc * kc, 1);
            const std::size_t grain = kGemmMinFlopsPerChunk / flops_per_strip + 1;
            parallel_for(strips, grain, [&](std::size_t s0, std::size_t s1) {
                thread_local std::vector<float> apack;
                apack.resize(kc * MR);
                for (std::size_t s = s0; s < s1; ++s) {
                    const std::size_t i0 = s * MR;
                    const std::size_t rows = std::min<std::size_t>(MR, m - i0);
                    pack_a_strip<MR>(a, i0, rows, pc, kc, apack.data());
                    for (std::size_t js = 0; js < jstrips; ++js) {
                        const std::size_t j0 = jc + js * NR;
                        const std::size_t cols = std::min<std::size_t>(NR, jc + nc - j0);
                        float* ctile = c + i0 * ldc + j0;
                        const float* strip_bias =
                            (tile_bias != nullptr) ? tile_bias + js * NR : nullptr;
                        if (rows == MR && cols == NR) {
                            Kernel::micro_full(kc, apack.data(), bp + js * kc * NR, ctile, ldc,
                                               first, strip_bias);
                        } else {
                            micro_edge_staged<Kernel>(kc, apack.data(), bp + js * kc * NR, ctile, ldc,
                                               rows, cols, first, strip_bias);
                        }
                    }
                }
            });
        }
    }
}

/// Packs the whole of B (k x n) into the persistent PackedGemmB layout:
/// KC-deep blocks in pc-ascending order, each holding every NR strip of the
/// full width ([pc][js][p][NR], zero-padded columns).  The strip for
/// (pc, js) therefore lives at jstrips*NR*pc + js*kc*NR — the same strips
/// pack_b_panel produces per call, laid out once.
template <int NR>
void pack_b_full(std::size_t k, std::size_t n, GemmOperand b, std::vector<float>& out) {
    const std::size_t jstrips = (n + NR - 1) / static_cast<std::size_t>(NR);
    out.resize(jstrips * NR * k);
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
        const std::size_t kc = std::min(kGemmKC, k - pc);
        pack_b_panel<NR>(b, pc, kc, 0, n, out.data() + jstrips * NR * pc);
    }
}

/// GEMM over a pre-packed B (pack_b_full layout).  Identical arithmetic to
/// the packing engine — same micro-kernels, same KC blocking, same
/// k-ascending accumulation — so results are bit-identical to the unpacked
/// entry points; only the per-call B packing work disappears.  Parallelises
/// over row strips, or over column panels (per-thread A panels) when the
/// row partition is too shallow.
template <class Kernel>
void gemm_packed_engine(std::size_t m, std::size_t n, std::size_t k, GemmOperand a,
                        const float* packed, float* c, std::size_t ldc, const float* bias) {
    constexpr int MR = Kernel::MR;
    constexpr int NR = Kernel::NR;
    if (n < static_cast<std::size_t>(NR)) {
        // A single zero-padded strip per k-block: element (p, j) of B sits
        // at packed[p*NR + j], i.e. an NR-row-strided operand view the
        // no-pad path can read directly.
        gemm_smalln<Kernel>(m, n, k, a, GemmOperand{packed, NR, 1}, c, ldc, bias);
        return;
    }
    const std::size_t strips = (m + MR - 1) / static_cast<std::size_t>(MR);
    const std::size_t jstrips = (n + NR - 1) / static_cast<std::size_t>(NR);

    if (strips * 2 < jstrips) {
        gemm_jc_drive<Kernel>(
            m, n, k, a, c, ldc, bias,
            [packed, jstrips](std::size_t pc, std::size_t kc, std::size_t js,
                              float* /*scratch*/) {
                return packed + jstrips * NR * pc + js * kc * NR;
            });
        return;
    }

    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
        const std::size_t kc = std::min(kGemmKC, k - pc);
        const bool first = pc == 0;
        const float* blk_bias = (pc + kc == k) ? bias : nullptr;
        const float* bblock = packed + jstrips * NR * pc;
        const std::size_t flops_per_strip = std::max<std::size_t>(2 * MR * n * kc, 1);
        const std::size_t grain = kGemmMinFlopsPerChunk / flops_per_strip + 1;
        parallel_for(strips, grain, [&](std::size_t s0, std::size_t s1) {
            thread_local std::vector<float> apack;
            apack.resize(kc * MR);
            for (std::size_t s = s0; s < s1; ++s) {
                const std::size_t i0 = s * MR;
                const std::size_t rows = std::min<std::size_t>(MR, m - i0);
                pack_a_strip<MR>(a, i0, rows, pc, kc, apack.data());
                for (std::size_t js = 0; js < jstrips; ++js) {
                    const std::size_t j0 = js * NR;
                    const std::size_t cols = std::min<std::size_t>(NR, n - j0);
                    float* ctile = c + i0 * ldc + j0;
                    const float* strip_bias = (blk_bias != nullptr) ? blk_bias + j0 : nullptr;
                    if (rows == MR && cols == NR) {
                        Kernel::micro_full(kc, apack.data(), bblock + js * kc * NR, ctile, ldc,
                                           first, strip_bias);
                    } else {
                        micro_edge_staged<Kernel>(kc, apack.data(), bblock + js * kc * NR, ctile, ldc,
                                           rows, cols, first, strip_bias);
                    }
                }
            }
        });
    }
}

}  // namespace kinet::tensor::detail

#endif  // KINETGAN_TENSOR_GEMM_ENGINE_H
