// Internal per-tier kernel table consumed by the GEMM/GEMV drivers in
// matrix.cpp and by Adam::step. Not installed API: only matrix.cpp, the
// tier TUs (matrix_avx2.cpp, matrix_avx512.cpp), simd.cpp, adam.cpp and
// the kernel parity tests include this.
//
// Every GEMM/GEMV function in a table must keep the ascending-k summation
// chain per C element (the determinism contract in simd.hpp): the
// microkernel, gemv_axpy, and gemv_dot all reduce in ascending k with one
// chain per element, starting from +0.0, so for k <= kKernelKc the GEMV
// fast paths, the blocked path, and row-batched forwards agree bit-for-bit
// WITHIN a tier. The scalar tier multiplies-then-adds; the AVX2 and
// AVX-512 tiers fuse every GEMM/GEMV multiply-add (vector lanes and ragged
// tails alike). The register tile's shape (mr x nr) only decides which C
// elements one microkernel call covers, never the arithmetic of an
// element, so the two fused tiers give the same bits as each other.
//
// The packs and the Adam step are exact across tiers: packing is a copy,
// and the AVX2 Adam step runs the scalar entry's IEEE operations in the
// same order (separate multiplies and adds, three divides, one square
// root), so every tier yields the same bits. The AVX-512 table reuses the
// AVX2 entries that gain nothing from zmm registers (gemv_dot, epilogue,
// adam) and replaces only the tile, the packs and gemv_axpy.
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
  int nr;  // register-tile cols   (B panel rows of nr lanes)
  // One full mr x nr tile: tile(r, c) = sum over p < kc of ap[p * mr + r] *
  // bp[p * ldb + c], each chain from +0.0 in registers, ascending p. Then
  // c[r * ldc + c] = tile(r, c), or c[r * ldc + c] += tile(r, c) when `add`.
  // A is always packed. B is a packed panel (ldb = nr) or, when its rows are
  // contiguous, the operand itself read in place at its leading dimension.
  void (*micro)(int kc, const double* ap, const double* bp, std::ptrdiff_t ldb,
                double* c, std::ptrdiff_t ldc, bool add);
  // Full-panel packs, w = mr (A) or nr (B), dst aligned to min(8 * w, 64)
  // bytes (the pack buffers are 64-byte aligned and hold whole panels):
  // dst[p * w + c] = lane c of step p, for p < kc and c < w. pack_rows reads
  // it at src[p * ld + c] (lanes contiguous), pack_cols at src[c * ld + p]
  // (steps contiguous, so the pack is a transpose). Ragged edge panels and
  // other strides take the driver's generic zero-padding loop.
  void (*pack_rows)(double* dst, const double* src, std::ptrdiff_t ld, int kc, int w);
  void (*pack_cols)(double* dst, const double* src, std::ptrdiff_t ld, int kc, int w);
  // crow[0..n) += a * brow[0..n)   (one saxpy step of the GEMV path).
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

// Upper bounds over all tiers, for the driver's stack tile (ragged edges).
inline constexpr int kMaxMr = 8;
inline constexpr int kMaxNr = 16;

const KernelTable& scalar_kernel_table();

// Defined in matrix_avx2.cpp / matrix_avx512.cpp. Each returns nullptr when
// its TU was compiled without the ISA (non-x86 targets, or a toolchain
// without -mavx2 -mfma / -mavx512f), which is how the default build stays
// portable with no CMake feature defines.
const KernelTable* avx2_kernel_table();
const KernelTable* avx512_kernel_table();

// The table for simd::active_tier(), resolving it on first use.
const KernelTable& active_kernel_table();

}  // namespace adsec::detail
