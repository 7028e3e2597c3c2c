// Packed, cache-blocked GEMM engine — the single kernel behind the matmul
// family in src/tensor/ops.hpp.
//
// The engine packs panels of A and B into contiguous, zero-padded tiles
// (KC-deep k-blocks, NC-wide column panels, MR x NR register tiles), then
// drives a fixed-width micro-kernel over the packed panels.  Two
// instantiations are built: a portable one compiled for the baseline ISA
// and an 8-wide AVX2/FMA one (x86-64 with GNU-compatible compilers);
// `gemm` picks the widest kernel the running CPU supports, once, at first
// use.
//
// Determinism contract (shared with src/common/parallel.hpp): each output
// element is produced by exactly one running accumulator that consumes the
// k dimension in ascending order — the micro-kernel loads the C tile,
// accumulates a k-block, and stores it back, so neither the KC blocking
// nor the row partition across threads changes any element's operation
// order.  Results are therefore bit-identical run-to-run at any
// KINET_NUM_THREADS (verified by tests/test_gemm.cpp).
#ifndef KINETGAN_TENSOR_GEMM_H
#define KINETGAN_TENSOR_GEMM_H

#include <cstddef>
#include <vector>

namespace kinet::tensor {

/// A strided read-only view of one GEMM operand: element (i, p) lives at
/// data[i * rs + p * cs].  Plain-transposed access is expressed by swapping
/// the strides, so one engine serves matmul, matmul_tn and matmul_nt.
struct GemmOperand {
    const float* data;
    std::size_t rs;
    std::size_t cs;
};

/// C(m x n, row-major, leading dimension ldc) = A(m x k) * B(k x n), plus
/// an optional bias row added once per output element after the final
/// k-block (bias == nullptr skips it; otherwise bias[j] is added to every
/// C(i, j)).  C's initial contents are ignored and overwritten.
void gemm(std::size_t m, std::size_t n, std::size_t k, GemmOperand a, GemmOperand b, float* c,
          std::size_t ldc, const float* bias);

/// A weight matrix packed once into the dispatched kernel's strip layout
/// (KC-deep k-blocks of zero-padded NR-wide column strips) and reused
/// across gemm_packed calls — the inference fast path's answer to
/// re-packing the same B on every forward pass.  The layout is tied to the
/// kernel dispatched at pack time; dispatch is latched once per process,
/// so a PackedGemmB never outlives its kernel.  Immutable after pack():
/// concurrent gemm_packed readers are safe.
class PackedGemmB {
public:
    PackedGemmB() = default;

    /// Packs B (k x n; element (p, j) at data[p*rs + j*cs]) for the
    /// currently dispatched kernel.
    [[nodiscard]] static PackedGemmB pack(std::size_t k, std::size_t n, GemmOperand b);

    [[nodiscard]] bool empty() const noexcept { return k_ == 0 || n_ == 0; }
    [[nodiscard]] std::size_t k() const noexcept { return k_; }
    [[nodiscard]] std::size_t n() const noexcept { return n_; }
    [[nodiscard]] const float* data() const noexcept { return data_.data(); }
    /// Packed footprint in floats (ceil(n/NR)*NR*k) — surfaced for tests.
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
    void clear() {
        data_.clear();
        k_ = 0;
        n_ = 0;
    }

private:
    std::vector<float> data_;
    std::size_t k_ = 0;
    std::size_t n_ = 0;
};

/// C(m x n) = A(m x k(b)) * B from a pre-packed operand, plus the optional
/// fused bias row — bit-identical to gemm() with the unpacked B (same
/// micro-kernels, same blocking, same per-element accumulation chain).
void gemm_packed(std::size_t m, GemmOperand a, const PackedGemmB& b, float* c, std::size_t ldc,
                 const float* bias);

/// Name of the dispatched micro-kernel ("avx2-fma-6x16" or "generic-4x8")
/// — surfaced in benchmarks and docs, never used for logic.
[[nodiscard]] const char* gemm_kernel_name();

namespace detail {

// The engine's one scheduling rule: a GEMM splits across the pool only when
// every chunk carries at least this many flops (~4 MFLOP); below it,
// parallel_for runs the whole range inline on the caller.  A chunk must
// outweigh waking and joining a pool lane, and on a serving node the lanes
// are already busy with other requests, so batch-sized products (a 128-row
// generator layer, a training step) stay on the calling thread and
// request-level concurrency supplies the parallelism.  Products of 256^3
// and larger still split.  See docs/performance.md.
inline constexpr std::size_t kGemmMinFlopsPerChunk = std::size_t{1} << 22;

/// Instantiation entry points (one per translation unit / ISA).  Same
/// semantics as gemm(); callers must have handled m == 0 || n == 0.
void gemm_generic(std::size_t m, std::size_t n, std::size_t k, GemmOperand a, GemmOperand b,
                  float* c, std::size_t ldc, const float* bias);
void gemm_avx2(std::size_t m, std::size_t n, std::size_t k, GemmOperand a, GemmOperand b,
               float* c, std::size_t ldc, const float* bias);

/// Full-B packing and pre-packed GEMM entry points, one pair per ISA unit
/// (same PackedGemmB layout contract as the engine header's pack_b_full).
void pack_b_generic(std::size_t k, std::size_t n, GemmOperand b, std::vector<float>& out);
void pack_b_avx2(std::size_t k, std::size_t n, GemmOperand b, std::vector<float>& out);
void gemm_packed_generic(std::size_t m, std::size_t n, std::size_t k, GemmOperand a,
                         const float* packed, float* c, std::size_t ldc, const float* bias);
void gemm_packed_avx2(std::size_t m, std::size_t n, std::size_t k, GemmOperand a,
                      const float* packed, float* c, std::size_t ldc, const float* bias);

/// Whether this build carries the AVX2 instantiation at all (x86-64 and a
/// compiler that accepts -mavx2 -mfma).
[[nodiscard]] bool gemm_has_avx2_build();

}  // namespace detail

}  // namespace kinet::tensor

#endif  // KINETGAN_TENSOR_GEMM_H
