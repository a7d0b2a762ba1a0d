// AVX2/FMA kernel tier. One of the two translation units in the tree
// allowed to touch <immintrin.h> (with matrix_avx512.cpp; machine-checked
// by the adsec_lint intrinsics-isolation rule): it is compiled with -mavx2
// -mfma while the rest of the build keeps the portable baseline ISA, and
// the dispatcher in simd.cpp only selects this table after a runtime CPUID
// probe. It is the vector tier of hosts without AVX-512F, and the AVX-512
// tier calls this TU's gemv_dot, epilogue and Adam entries.
//
// Determinism within the tier (see kernel_table.hpp): every GEMM/GEMV
// multiply-add — vector lanes in the microkernel and GEMV bodies, and the
// ragged scalar tails via std::fma (a single vfmadd instruction in this
// -mfma TU) — is fused, ascending k, one chain per C element. So the GEMV
// path, a 1 x k row through the blocked path, and the same row inside a
// batched B x k forward all produce bit-identical doubles while this tier
// is active, and the AVX-512 tier reproduces them. Those fusions are all
// explicit: the TU is compiled with -ffp-contract=off, so the compiler
// never fuses a separate multiply and add (the packs, the epilogue and the
// Adam step stay bit-identical to the scalar tier). The fallback stub
// below keeps non-x86 / old-toolchain builds linking without any CMake
// feature defines.
#include "nn/kernel_table.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace adsec {
namespace {

constexpr int kMr = 4;
constexpr int kNr = 8;

// 4 x 8 register tile: 8 ymm accumulators + 2 B vectors + 1 broadcast stay
// inside the 16 architectural ymm registers. A is a packed [p][4] panel; B
// row p is at bp + p * ldb (a packed panel or the operand in place), so B
// loads are unaligned. The accumulators start as +0.0 in registers and are
// stored (or added) straight into C at leading dimension ldc.
void micro_kernel_avx2(int kc, const double* __restrict ap,
                       const double* __restrict bp, std::ptrdiff_t ldb,
                       double* __restrict c, std::ptrdiff_t ldc, bool add) {
  __m256d c00 = _mm256_setzero_pd();
  __m256d c01 = c00, c10 = c00, c11 = c00, c20 = c00, c21 = c00, c30 = c00,
          c31 = c00;
  for (int p = 0; p < kc; ++p) {
    const double* __restrict av = ap + static_cast<std::size_t>(p) * kMr;
    const double* __restrict bv = bp + p * ldb;
    const __m256d b0 = _mm256_loadu_pd(bv);
    const __m256d b1 = _mm256_loadu_pd(bv + 4);
    __m256d a = _mm256_broadcast_sd(av + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(av + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(av + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(av + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  const auto store = [c, ldc, add](int r, int j, __m256d v) {
    double* dst = c + r * ldc + j;
    _mm256_storeu_pd(dst, add ? _mm256_add_pd(_mm256_loadu_pd(dst), v) : v);
  };
  store(0, 0, c00);
  store(0, 4, c01);
  store(1, 0, c10);
  store(1, 4, c11);
  store(2, 0, c20);
  store(2, 4, c21);
  store(3, 0, c30);
  store(3, 4, c31);
}

// Full-panel packs (layout in kernel_table.hpp). dst is 32-byte aligned:
// the pack buffers are, and every panel row is w = kMr or kNr doubles. The
// row copy takes w as a template argument: with a runtime width, GCC turns
// the copy loop into a memcpy call per row.
template <int W>
void pack_rows_fixed(double* __restrict dst, const double* __restrict src,
                     std::ptrdiff_t ld, int kc) {
  for (int p = 0; p < kc; ++p, dst += W, src += ld) {
    for (int c = 0; c < W; c += 4) _mm256_store_pd(dst + c, _mm256_loadu_pd(src + c));
  }
}

void pack_rows_avx2(double* dst, const double* src, std::ptrdiff_t ld, int kc, int w) {
  if (w == kNr) {
    pack_rows_fixed<kNr>(dst, src, ld, kc);
  } else {
    pack_rows_fixed<kMr>(dst, src, ld, kc);
  }
}

// Four lanes at a time: a 4 x 4 register transpose turns four steps of four
// source rows into four packed rows.
void pack_cols_avx2(double* __restrict dst, const double* __restrict src,
                    std::ptrdiff_t ld, int kc, int w) {
  const auto step = static_cast<std::size_t>(w);  // one packed row
  for (int c = 0; c < w; c += 4) {
    const double* __restrict s0 = src + c * ld;
    const double* __restrict s1 = s0 + ld;
    const double* __restrict s2 = s1 + ld;
    const double* __restrict s3 = s2 + ld;
    double* __restrict out = dst + c;
    int p = 0;
    for (; p + 4 <= kc; p += 4, out += 4 * step) {
      const __m256d r0 = _mm256_loadu_pd(s0 + p);
      const __m256d r1 = _mm256_loadu_pd(s1 + p);
      const __m256d r2 = _mm256_loadu_pd(s2 + p);
      const __m256d r3 = _mm256_loadu_pd(s3 + p);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      _mm256_store_pd(out, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_store_pd(out + step, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_store_pd(out + 2 * step, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_store_pd(out + 3 * step, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
    for (; p < kc; ++p, out += step) {
      out[0] = s0[p];
      out[1] = s1[p];
      out[2] = s2[p];
      out[3] = s3[p];
    }
  }
}

// crow/brow are matrix rows at arbitrary leading-dimension offsets:
// unaligned loads. The scalar tail uses std::fma so the per-element chain
// is the same fused op as the vector lanes.
void gemv_axpy_avx2(double* __restrict crow, double a,
                    const double* __restrict brow, int n) {
  const __m256d av = _mm256_set1_pd(a);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d c = _mm256_loadu_pd(crow + j);
    _mm256_storeu_pd(crow + j, _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + j), c));
  }
  for (; j < n; ++j) crow[j] = std::fma(a, brow[j], crow[j]);
}

// Deliberately scalar: one fused chain ascending p, matching the
// microkernel's per-element chain exactly. Only the backward-pass nt
// shapes reach this path, so there is no throughput case for a horizontal
// reduction (which would reassociate the sum and break the contract).
double gemv_dot_avx2(double s, const double* __restrict arow,
                     const double* __restrict bcol, int k) {
  for (int p = 0; p < k; ++p) s = std::fma(arow[p], bcol[p], s);
  return s;
}

// Bias add then activation, per element, exactly like the scalar tier's
// epilogue (vaddpd is bitwise scalar addition per lane; the ReLU mask
// keeps -0.0 and NaN like the scalar `v < 0 ? 0 : v` does; tanh has no
// vector libm here so it stays scalar).
void epilogue_avx2(double* __restrict row, const double* __restrict bias,
                   Activation act, int n) {
  int j = 0;
  if (bias != nullptr) {
    for (; j + 4 <= n; j += 4) {
      const __m256d v = _mm256_add_pd(_mm256_loadu_pd(row + j),
                                      _mm256_loadu_pd(bias + j));
      _mm256_storeu_pd(row + j, v);
    }
    for (; j < n; ++j) row[j] += bias[j];
  }
  switch (act) {
    case Activation::Identity:
      return;
    case Activation::ReLU: {
      const __m256d zero = _mm256_setzero_pd();
      int i = 0;
      for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_loadu_pd(row + i);
        const __m256d neg = _mm256_cmp_pd(v, zero, _CMP_LT_OQ);
        _mm256_storeu_pd(row + i, _mm256_andnot_pd(neg, v));
      }
      for (; i < n; ++i) {
        if (row[i] < 0.0) row[i] = 0.0;
      }
      return;
    }
    case Activation::Tanh:
      for (int i = 0; i < n; ++i) row[i] = std::tanh(row[i]);
      return;
  }
}

// The scalar tier's Adam arithmetic, four lanes at a time, in its order:
// separate multiplies and adds (this TU never contracts them), then IEEE
// divides and square root, correctly rounded per lane like their scalar
// forms. The ragged tail runs the scalar entry itself.
void adam_avx2(double* __restrict p, double* __restrict g, double* __restrict m,
               double* __restrict v, std::size_t n, const detail::AdamStep& s) {
  const __m256d b1 = _mm256_set1_pd(s.b1);
  const __m256d b2 = _mm256_set1_pd(s.b2);
  const __m256d one_b1 = _mm256_set1_pd(1.0 - s.b1);
  const __m256d one_b2 = _mm256_set1_pd(1.0 - s.b2);
  const __m256d bc1 = _mm256_set1_pd(s.bc1);
  const __m256d bc2 = _mm256_set1_pd(s.bc2);
  const __m256d lr = _mm256_set1_pd(s.lr);
  const __m256d eps = _mm256_set1_pd(s.eps);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(one_b1, gi));
    const __m256d vi =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(one_b2, gi), gi));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d vhat = _mm256_div_pd(vi, bc2);
    const __m256d step = _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                                       _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(p + i, _mm256_sub_pd(_mm256_loadu_pd(p + i), step));
    _mm256_storeu_pd(g + i, zero);
  }
  if (i < n) detail::scalar_kernel_table().adam(p + i, g + i, m + i, v + i, n - i, s);
}

}  // namespace

namespace detail {

const KernelTable* avx2_kernel_table() {
  static const KernelTable table{.mr = kMr,
                                 .nr = kNr,
                                 .micro = micro_kernel_avx2,
                                 .pack_rows = pack_rows_avx2,
                                 .pack_cols = pack_cols_avx2,
                                 .gemv_axpy = gemv_axpy_avx2,
                                 .gemv_dot = gemv_dot_avx2,
                                 .epilogue = epilogue_avx2,
                                 .adam = adam_avx2};
  return &table;
}

}  // namespace detail
}  // namespace adsec

#else  // portable stub: tier reported unsupported, dispatcher never selects it

namespace adsec::detail {

const KernelTable* avx2_kernel_table() { return nullptr; }

}  // namespace adsec::detail

#endif
