// AVX-512F/FMA kernel tier. One of the two translation units in the tree
// allowed to touch <immintrin.h> (with matrix_avx2.cpp; machine-checked by
// the adsec_lint intrinsics-isolation rule): it is compiled with -mavx512f
// -mfma while the rest of the build keeps the portable baseline ISA, and
// the dispatcher in simd.cpp only selects this table after a runtime CPUID
// probe (avx512f, avx2 and fma).
//
// Same bits as the AVX2 tier (see kernel_table.hpp). Every GEMM/GEMV
// multiply-add is one fused operation per C element, ascending k from
// +0.0, in the vector lanes and in the std::fma tails alike; the 8 x 16
// tile only changes how many elements one microkernel call covers. The
// packs are copies, and the remaining entries are the AVX2 tier's own
// (see avx512_kernel_table below). Like the AVX2 TU, this one is compiled
// with -ffp-contract=off, so the compiler never fuses a separate multiply
// and add. The fallback stub below keeps non-x86 / old-toolchain builds
// linking without any CMake feature defines.
#include "nn/kernel_table.hpp"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace adsec {
namespace {

constexpr int kMr = 8;
constexpr int kNr = 16;
// All eight lanes. GCC 12's avx512fintrin.h expands the unmasked unpack
// and shuffle intrinsics through an uninitialized pass-through operand
// that trips -Wmaybe-uninitialized (an error in the -Werror build); their
// zero-masked forms under this mask are the same single instructions
// without it.
constexpr __mmask8 kAll = 0xFF;

// 8 x 16 register tile: 16 zmm accumulators (two per row) + 2 B vectors + 1
// broadcast stay inside the 32 zmm registers. A is a packed [p][8] panel; B
// row p is at bp + p * ldb (a packed panel or the operand in place), so B
// loads are unaligned. The accumulators start as +0.0 in registers and are
// stored (or added) straight into C at leading dimension ldc.
void micro_kernel_avx512(int kc, const double* __restrict ap,
                         const double* __restrict bp, std::ptrdiff_t ldb,
                         double* __restrict c, std::ptrdiff_t ldc, bool add) {
  __m512d acc[kMr][2];
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) acc[r][0] = acc[r][1] = _mm512_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const double* __restrict av = ap + static_cast<std::size_t>(p) * kMr;
    const double* __restrict bv = bp + p * ldb;
    const __m512d b0 = _mm512_loadu_pd(bv);
    const __m512d b1 = _mm512_loadu_pd(bv + 8);
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const __m512d a = _mm512_set1_pd(av[r]);
      acc[r][0] = _mm512_fmadd_pd(a, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(a, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
    double* crow = c + r * ldc;
    if (add) {
      acc[r][0] = _mm512_add_pd(_mm512_loadu_pd(crow), acc[r][0]);
      acc[r][1] = _mm512_add_pd(_mm512_loadu_pd(crow + 8), acc[r][1]);
    }
    _mm512_storeu_pd(crow, acc[r][0]);
    _mm512_storeu_pd(crow + 8, acc[r][1]);
  }
}

// Full-panel packs (layout in kernel_table.hpp). Every panel row is w =
// kMr or kNr doubles from a 64-byte-aligned buffer base, so the stores are
// aligned. The row copy takes w as a template argument: with a runtime
// width, GCC turns the copy loop into a memcpy call per row.
template <int W>
void pack_rows_fixed(double* __restrict dst, const double* __restrict src,
                     std::ptrdiff_t ld, int kc) {
  for (int p = 0; p < kc; ++p, dst += W, src += ld) {
    for (int c = 0; c < W; c += 8) _mm512_store_pd(dst + c, _mm512_loadu_pd(src + c));
  }
}

void pack_rows_avx512(double* dst, const double* src, std::ptrdiff_t ld, int kc,
                      int w) {
  if (w == kNr) {
    pack_rows_fixed<kNr>(dst, src, ld, kc);
  } else {
    pack_rows_fixed<kMr>(dst, src, ld, kc);
  }
}

// Second half of an 8 x 8 transpose. ta..td hold, per 128-bit lane, two
// source rows' values at steps q, q + 2, q + 4, q + 6 (the unpacks of rows
// 0-1, 2-3, 4-5, 6-7); this stores packed rows q, q + 2, q + 4, q + 6.
// 0x88 picks 128-bit lanes (0, 2) of each operand, 0xDD lanes (1, 3).
inline void store_transposed_quad(double* out, std::size_t step, __m512d ta,
                                  __m512d tb, __m512d tc, __m512d td) {
  const __m512d u0 = _mm512_maskz_shuffle_f64x2(kAll, ta, tb, 0x88);
  const __m512d u1 = _mm512_maskz_shuffle_f64x2(kAll, ta, tb, 0xDD);
  const __m512d u2 = _mm512_maskz_shuffle_f64x2(kAll, tc, td, 0x88);
  const __m512d u3 = _mm512_maskz_shuffle_f64x2(kAll, tc, td, 0xDD);
  _mm512_store_pd(out, _mm512_maskz_shuffle_f64x2(kAll, u0, u2, 0x88));
  _mm512_store_pd(out + 2 * step, _mm512_maskz_shuffle_f64x2(kAll, u1, u3, 0x88));
  _mm512_store_pd(out + 4 * step, _mm512_maskz_shuffle_f64x2(kAll, u0, u2, 0xDD));
  _mm512_store_pd(out + 6 * step, _mm512_maskz_shuffle_f64x2(kAll, u1, u3, 0xDD));
}

// Eight lanes at a time: an 8 x 8 register transpose turns eight steps of
// eight source rows into eight packed rows; the step tail copies element by
// element.
void pack_cols_avx512(double* __restrict dst, const double* __restrict src,
                      std::ptrdiff_t ld, int kc, int w) {
  const auto step = static_cast<std::size_t>(w);  // one packed row
  for (int c = 0; c < w; c += 8) {
    const double* __restrict s = src + c * ld;
    double* __restrict out = dst + c;
    int p = 0;
    for (; p + 8 <= kc; p += 8, out += 8 * step) {
      const __m512d r0 = _mm512_loadu_pd(s + p);
      const __m512d r1 = _mm512_loadu_pd(s + ld + p);
      const __m512d r2 = _mm512_loadu_pd(s + 2 * ld + p);
      const __m512d r3 = _mm512_loadu_pd(s + 3 * ld + p);
      const __m512d r4 = _mm512_loadu_pd(s + 4 * ld + p);
      const __m512d r5 = _mm512_loadu_pd(s + 5 * ld + p);
      const __m512d r6 = _mm512_loadu_pd(s + 6 * ld + p);
      const __m512d r7 = _mm512_loadu_pd(s + 7 * ld + p);
      // Even steps of each row pair, then odd steps.
      store_transposed_quad(out, step, _mm512_maskz_unpacklo_pd(kAll, r0, r1),
                            _mm512_maskz_unpacklo_pd(kAll, r2, r3),
                            _mm512_maskz_unpacklo_pd(kAll, r4, r5),
                            _mm512_maskz_unpacklo_pd(kAll, r6, r7));
      store_transposed_quad(out + step, step, _mm512_maskz_unpackhi_pd(kAll, r0, r1),
                            _mm512_maskz_unpackhi_pd(kAll, r2, r3),
                            _mm512_maskz_unpackhi_pd(kAll, r4, r5),
                            _mm512_maskz_unpackhi_pd(kAll, r6, r7));
    }
    for (; p < kc; ++p, out += step) {
      for (int i = 0; i < 8; ++i) out[i] = s[i * ld + p];
    }
  }
}

// crow/brow are matrix rows at arbitrary leading-dimension offsets:
// unaligned loads. The scalar tail uses std::fma so the per-element chain
// is the same fused op as the vector lanes.
void gemv_axpy_avx512(double* __restrict crow, double a,
                      const double* __restrict brow, int n) {
  const __m512d av = _mm512_set1_pd(a);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d c = _mm512_loadu_pd(crow + j);
    _mm512_storeu_pd(crow + j, _mm512_fmadd_pd(av, _mm512_loadu_pd(brow + j), c));
  }
  for (; j < n; ++j) crow[j] = std::fma(a, brow[j], crow[j]);
}

}  // namespace

namespace detail {

// The AVX2 table with the entries that gain from zmm registers replaced:
// the tile, the packs and the saxpy-form GEMV. The dot-form GEMV (one
// scalar fused chain), the epilogue and the Adam step (divider-bound: a
// zmm divide or square root takes twice a ymm one) gain nothing from the
// wider registers, so this tier calls the AVX2 entries for them. Every
// AVX-512F CPU has AVX2, and the dispatcher checks both.
const KernelTable* avx512_kernel_table() {
  const KernelTable* const avx2 = avx2_kernel_table();
  if (avx2 == nullptr) return nullptr;
  static const KernelTable table = [avx2] {
    KernelTable t = *avx2;
    t.mr = kMr;
    t.nr = kNr;
    t.micro = micro_kernel_avx512;
    t.pack_rows = pack_rows_avx512;
    t.pack_cols = pack_cols_avx512;
    t.gemv_axpy = gemv_axpy_avx512;
    return t;
  }();
  return &table;
}

}  // namespace detail
}  // namespace adsec

#else  // portable stub: tier reported unsupported, dispatcher never selects it

namespace adsec::detail {

const KernelTable* avx512_kernel_table() { return nullptr; }

}  // namespace adsec::detail

#endif
