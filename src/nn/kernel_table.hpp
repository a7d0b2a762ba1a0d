// Internal per-tier kernel table consumed by the GEMM/GEMV drivers in
// matrix.cpp and by Adam::step. Not installed API: only matrix.cpp,
// matrix_avx2.cpp, simd.cpp and adam.cpp include this.
//
// Every GEMM/GEMV function in a table must keep the ascending-k summation
// chain per C element (the determinism-per-tier contract in simd.hpp): the
// microkernel, gemv_axpy, and gemv_dot all reduce in ascending k with one
// chain per element, starting from +0.0, so for k <= kKernelKc the GEMV
// fast paths, the blocked path, and row-batched forwards agree bit-for-bit
// WITHIN a tier. The scalar tier multiplies-then-adds; the AVX2 tier fuses
// every GEMM/GEMV multiply-add (vector lanes and ragged tails alike) so its
// chains are internally consistent too.
//
// The packs and the Adam step are exact across tiers: packing is a copy,
// and the AVX2 Adam step runs the scalar entry's IEEE operations in the
// same order (separate multiplies and adds, three divides, one square
// root), so every tier yields the same bits.
#pragma once

#include <cstddef>

#include "nn/matrix.hpp"

namespace adsec::detail {

// One Adam step's coefficients, with the bias corrections for the current
// step count already computed.
struct AdamStep {
  double b1, b2;    // moment decay rates
  double bc1, bc2;  // 1 - b1^t, 1 - b2^t
  double lr, eps;
};

struct KernelTable {
  int mr;  // register-tile rows   (A packed [p][mr])
  int nr;  // register-tile cols   (B packed [p][nr])
  // acc (mr x nr, row-major) = sum over kc packed rank-1 updates. Overwrites
  // acc: every chain starts from +0.0 held in registers.
  void (*micro)(int kc, const double* ap, const double* bp, double* acc);
  // Full-panel packs, w = mr (A) or nr (B), dst 32-byte aligned:
  // dst[p * w + c] = lane c of step p, for p < kc and c < w. pack_rows reads
  // it at src[p * ld + c] (lanes contiguous), pack_cols at src[c * ld + p]
  // (steps contiguous, so the pack is a transpose). Ragged edge panels and
  // other strides take the driver's generic zero-padding loop.
  void (*pack_rows)(double* dst, const double* src, std::ptrdiff_t ld, int kc, int w);
  void (*pack_cols)(double* dst, const double* src, std::ptrdiff_t ld, int kc, int w);
  // crow[0..n) += a * brow[0..n)   (one saxpy step of the m < mr GEMV path).
  void (*gemv_axpy)(double* crow, double a, const double* brow, int n);
  // returns s + sum_p arow[p] * bcol[p], ascending p (nt-variant GEMV path).
  double (*gemv_dot)(double s, const double* arow, const double* bcol, int k);
  // row[j] = act(row[j] + bias[j]); bias may be null. Must match the scalar
  // epilogue bitwise on every input (including -0.0 and NaN for ReLU).
  void (*epilogue)(double* row, const double* bias, Activation act, int n);
  // One Adam step over n parameters, then g[0..n) = +0.0. Bit-identical
  // across tiers (see above).
  void (*adam)(double* p, double* g, double* m, double* v, std::size_t n,
               const AdamStep& s);
};

// Upper bounds over all tiers, for stack accumulator tiles in the driver.
inline constexpr int kMaxMr = 4;
inline constexpr int kMaxNr = 8;

const KernelTable& scalar_kernel_table();

// Defined in matrix_avx2.cpp. Returns nullptr when that TU was compiled
// without AVX2+FMA support (non-x86 targets, or a toolchain without
// -mavx2), which is how the default build stays portable with no CMake
// feature defines.
const KernelTable* avx2_kernel_table();

// The table for simd::active_tier(), resolving it on first use.
const KernelTable& active_kernel_table();

}  // namespace adsec::detail
