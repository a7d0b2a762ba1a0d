#include "nn/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "nn/kernel_table.hpp"
#include "telemetry/metrics.hpp"

namespace adsec {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Matrix: negative shape");
}

Matrix Matrix::randn(int rows, int cols, Rng& rng, double scale) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.normal(0.0, scale);
  return m;
}

Matrix Matrix::from_vector(const std::vector<double>& v) {
  Matrix m(1, static_cast<int>(v.size()));
  m.data_.assign(v.begin(), v.end());
  return m;
}

void Matrix::resize(int rows, int cols) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Matrix::resize: negative shape");
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
}

void Matrix::copy_from(const Matrix& src) {
  resize(src.rows_, src.cols_);
  std::memcpy(data_.data(), src.data_.data(), data_.size() * sizeof(double));
}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void row_into(Matrix& m, std::span<const double> v) {
  m.resize(1, static_cast<int>(v.size()));
  if (!v.empty()) std::memcpy(m.data(), v.data(), v.size() * sizeof(double));
}

void Matrix::add_inplace(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::add_inplace: shape mismatch");
  }
  double* __restrict p = data_.data();
  const double* __restrict q = other.data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) p[i] += q[i];
}

void Matrix::axpy_inplace(double scale, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::axpy_inplace: shape mismatch");
  }
  double* __restrict p = data_.data();
  const double* __restrict q = other.data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) p[i] += scale * q[i];
}

void Matrix::scale_inplace(double s) {
  for (auto& x : data_) x *= s;
}

void Matrix::blend_inplace(double keep, double scale, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::blend_inplace: shape mismatch");
  }
  double* __restrict p = data_.data();
  const double* __restrict q = other.data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = keep * p[i] + scale * q[i];
}

bool Matrix::all_finite() const {
  // Infinities and NaNs are exactly the doubles whose 11 exponent bits are
  // all ones, the one case where adding 1 to that field carries into bit
  // 11. An OR over integer lanes with no early exit vectorizes at -O3; a
  // bool reduction over std::isfinite does not.
  std::uint64_t bad = 0;
  for (const double x : data_) {
    bad |= (((std::bit_cast<std::uint64_t>(x) >> 52) & 0x7FF) + 1) >> 11;
  }
  return bad == 0;
}

void apply_activation(Activation act, Matrix& z) {
  switch (act) {
    case Activation::Identity:
      return;
    case Activation::ReLU:
      for (std::size_t i = 0; i < z.size(); ++i) {
        if (z.data()[i] < 0.0) z.data()[i] = 0.0;
      }
      return;
    case Activation::Tanh:
      for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = std::tanh(z.data()[i]);
      return;
  }
}

void apply_activation_grad(Activation act, const Matrix& h, Matrix& grad) {
  if (h.rows() != grad.rows() || h.cols() != grad.cols()) {
    throw std::invalid_argument("apply_activation_grad: shape mismatch");
  }
  switch (act) {
    case Activation::Identity:
      return;
    case Activation::ReLU: {
      // A select rather than a branch, so -O3 vectorizes it. NaN compares
      // false and keeps its gradient; -0.0 compares true, as before.
      const double* __restrict hv = h.data();
      double* __restrict g = grad.data();
      for (std::size_t i = 0; i < h.size(); ++i) g[i] = hv[i] <= 0.0 ? 0.0 : g[i];
      return;
    }
    case Activation::Tanh:
      for (std::size_t i = 0; i < h.size(); ++i) {
        const double hv = h.data()[i];
        grad.data()[i] *= (1.0 - hv * hv);
      }
      return;
  }
}

// ---- Blocked GEMM internals ------------------------------------------------

namespace {

// Scalar-tier register tile: kMr rows x kNr columns of C held in scalars
// the compiler keeps in vector registers (auto-vectorized at -O3 without
// reassociating any reduction). 4x8 needs 32 accumulator doubles — 4 AVX
// registers per row; the SSE2 baseline gets a 4x4 tile so the accumulators
// still fit the 16 xmm registers. The vector tiers (matrix_avx2.cpp,
// matrix_avx512.cpp) bring their own FMA tiles; the driver below reads
// whichever table the runtime dispatcher selected.
#if defined(__AVX__)
constexpr int kMr = 4;
constexpr int kNr = 8;
#else
constexpr int kMr = 4;
constexpr int kNr = 4;
#endif
static_assert(kMr <= detail::kMaxMr && kNr <= detail::kMaxNr,
              "driver stack tiles size to the max over all tiers");
// Below this many rows of C a product takes the GEMV path. A constant, not
// a tier's mr: an accumulating product on the GEMV path continues C's chain
// instead of adding a fresh chain to C, so the cut must fall at the same m
// on every tier for the tiers to agree bit for bit.
constexpr int kGemvMaxRows = 4;
// Rows of C processed per packed-A block (A block = kMc x kc doubles, well
// inside L2 alongside the B panel being streamed).
constexpr int kMc = 128;

// Logical views letting one packed driver serve all three transpose
// variants: A(i, p) = a[i * si + p * sp], B(p, j) = b[p * sp + j * sj].
struct AView {
  const double* p;
  std::ptrdiff_t si, sp;
};
struct BView {
  const double* p;
  std::ptrdiff_t sp, sj;
};

inline double act_scalar(Activation act, double v) {
  switch (act) {
    case Activation::Identity:
      return v;
    case Activation::ReLU:
      return v < 0.0 ? 0.0 : v;
    case Activation::Tanh:
      return std::tanh(v);
  }
  return v;
}

// kc steps of rank-1 updates into a kMr x kNr tile of C (contract in
// kernel_table.hpp). A is packed as [p][kMr]; B row p starts at bp + p * ldb.
// Chains start from +0.0 and run in ascending p, identical to the reference
// kernels.
void micro_kernel(int kc, const double* __restrict ap, const double* __restrict bp,
                  std::ptrdiff_t ldb, double* __restrict c, std::ptrdiff_t ldc,
                  bool add) {
  double acc[kMr * kNr] = {};
  for (int p = 0; p < kc; ++p) {
    const double* __restrict av = ap + static_cast<std::size_t>(p) * kMr;
    const double* __restrict bv = bp + p * ldb;
    for (int r = 0; r < kMr; ++r) {
      const double a = av[r];
      double* __restrict accr = acc + static_cast<std::size_t>(r) * kNr;
      for (int j = 0; j < kNr; ++j) accr[j] += a * bv[j];
    }
  }
  for (int r = 0; r < kMr; ++r) {
    double* __restrict crow = c + r * ldc;
    const double* __restrict accr = acc + static_cast<std::size_t>(r) * kNr;
    for (int j = 0; j < kNr; ++j) crow[j] = add ? crow[j] + accr[j] : accr[j];
  }
}

// Scalar-tier full-panel packs (see kernel_table.hpp for the layout). The
// row copy takes w (kMr or kNr) as a template argument: with a runtime
// width, GCC turns the copy loop into a memcpy call per row.
template <int W>
void pack_rows_fixed(double* __restrict dst, const double* __restrict src,
                     std::ptrdiff_t ld, int kc) {
  for (int p = 0; p < kc; ++p, dst += W, src += ld) {
    for (int c = 0; c < W; ++c) dst[c] = src[c];
  }
}

void pack_rows_scalar(double* dst, const double* src, std::ptrdiff_t ld, int kc,
                      int w) {
  if (w == kNr) {
    pack_rows_fixed<kNr>(dst, src, ld, kc);
  } else {
    pack_rows_fixed<kMr>(dst, src, ld, kc);
  }
}

void pack_cols_scalar(double* __restrict dst, const double* __restrict src,
                      std::ptrdiff_t ld, int kc, int w) {
  for (int p = 0; p < kc; ++p, dst += w) {
    for (int c = 0; c < w; ++c) dst[c] = src[c * ld + p];
  }
}

// Scalar-tier GEMV inner loops and epilogue: multiply-then-add, ascending
// k, matching micro_kernel's per-element chains (see kernel_table.hpp).
void gemv_axpy_scalar(double* __restrict crow, double a,
                      const double* __restrict brow, int n) {
  for (int j = 0; j < n; ++j) crow[j] += a * brow[j];
}

double gemv_dot_scalar(double s, const double* __restrict arow,
                       const double* __restrict bcol, int k) {
  for (int p = 0; p < k; ++p) s += arow[p] * bcol[p];
  return s;
}

void epilogue_scalar(double* __restrict row, const double* __restrict bias,
                     Activation act, int n) {
  for (int j = 0; j < n; ++j) {
    double v = row[j];
    if (bias != nullptr) v += bias[j];
    row[j] = act_scalar(act, v);
  }
}

// The Adam update. This TU's -ffp-contract=off keeps every multiply and
// add separate, which is the arithmetic the AVX2 entry reproduces lane by
// lane; std::sqrt's errno check keeps this loop scalar.
void adam_scalar(double* __restrict p, double* __restrict g, double* __restrict m,
                 double* __restrict v, std::size_t n, const detail::AdamStep& s) {
  const double b1 = s.b1, b2 = s.b2, bc1 = s.bc1, bc2 = s.bc2, lr = s.lr, eps = s.eps;
  for (std::size_t i = 0; i < n; ++i) {
    const double gi = g[i];
    m[i] = b1 * m[i] + (1.0 - b1) * gi;
    v[i] = b2 * v[i] + (1.0 - b2) * gi * gi;
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    g[i] = 0.0;
  }
}

// Pack buffers grow once and are reused for every subsequent call on the
// thread, so steady-state GEMM performs no heap allocation. thread_local
// keeps parallel-eval workers race-free without locks; the 64-byte-aligned
// base puts every packed panel on a cache line and a zmm boundary.
thread_local AlignedVector tl_pack_a;
thread_local AlignedVector tl_pack_b;

inline void ensure_capacity(AlignedVector& buf, std::size_t need) {
  if (buf.size() < need) buf.resize(need);
}

// Packs one panel as [p][w] for p < kc: lane c < live of step p is
// src[c * s_lane + p * s_step], lanes live..w-1 are zero padding. Full
// panels with a unit stride (every full panel of the three views) go to the
// tier's packs; ragged edge panels are zeroed, then filled.
void pack_panel(const detail::KernelTable& kt, double* __restrict dst,
                const double* __restrict src, std::ptrdiff_t s_lane,
                std::ptrdiff_t s_step, int kc, int w, int live) {
  if (live == w && s_lane == 1) return kt.pack_rows(dst, src, s_step, kc, w);
  if (live == w && s_step == 1) return kt.pack_cols(dst, src, s_lane, kc, w);
  std::fill(dst, dst + static_cast<std::size_t>(kc) * w, 0.0);
  for (int c = 0; c < live; ++c) {
    for (int p = 0; p < kc; ++p) {
      dst[static_cast<std::size_t>(p) * w + c] = src[c * s_lane + p * s_step];
    }
  }
}

struct Epilogue {
  const double* bias{nullptr};  // length n, added before the activation
  Activation act{Activation::Identity};
  bool any() const { return bias != nullptr || act != Activation::Identity; }
};

// Core driver: C (m x n, row-major, leading dim n) = or += A * B with the
// epilogue fused into the final store. The microkernel, GEMV inner loops,
// and fused epilogue come from the dispatch tier's kernel table (resolved
// once per process; see simd.hpp); the packing/blocking strategy is shared
// by every tier. Telemetry tallies calls/FLOPs here so every variant and
// fast path is counted once.
void gemm(double* cdata, int m, int n, int k, AView A, BView B, bool accumulate,
          Epilogue epi) {
  static const auto gemm_calls = telemetry::counter("nn.gemm.calls");
  static const auto gemm_flops = telemetry::counter("nn.gemm.flops");
  static const auto gemv_calls = telemetry::counter("nn.gemv.calls");
  gemm_calls.inc();
  gemm_flops.inc(2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
                 static_cast<std::uint64_t>(k));

  if (m == 0 || n == 0) return;

  const detail::KernelTable& kt = detail::active_kernel_table();

  if (k == 0) {
    // Empty reduction: the product is all zeros; only the epilogue remains.
    for (int i = 0; i < m; ++i) {
      double* __restrict crow = cdata + static_cast<std::size_t>(i) * n;
      if (!accumulate) std::fill(crow, crow + n, 0.0);
      kt.epilogue(crow, epi.bias, epi.act, n);
    }
    return;
  }

  // GEMV fast paths for the 1 x N shapes that dominate rollout stepping: no
  // packing, B streamed once. Both accumulate in ascending k, so they agree
  // bit-for-bit with the blocked path within the active tier.
  if (m < kGemvMaxRows) {
    gemv_calls.inc();
    if (B.sj == 1) {
      // B rows contiguous: saxpy over rows of B.
      for (int i = 0; i < m; ++i) {
        double* __restrict crow = cdata + static_cast<std::size_t>(i) * n;
        if (!accumulate) std::fill(crow, crow + n, 0.0);
        for (int p = 0; p < k; ++p) {
          const double a = A.p[i * A.si + p * A.sp];
          kt.gemv_axpy(crow, a, B.p + static_cast<std::size_t>(p) * B.sp, n);
        }
        if (epi.any()) kt.epilogue(crow, epi.bias, epi.act, n);
      }
      return;
    }
    if (B.sp == 1 && A.sp == 1) {
      // B columns contiguous along k (the nt variant): dot products.
      for (int i = 0; i < m; ++i) {
        const double* __restrict arow = A.p + i * A.si;
        double* __restrict crow = cdata + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          const double* __restrict bcol = B.p + static_cast<std::size_t>(j) * B.sj;
          double s = kt.gemv_dot(accumulate ? crow[j] : 0.0, arow, bcol, k);
          if (epi.bias != nullptr) s += epi.bias[j];
          crow[j] = act_scalar(epi.act, s);
        }
      }
      return;
    }
  }

  // Blocked path: per k-chunk, pack the B panels that cannot be read in
  // place (once, reused by every row block), pack A per kMc-row block, then
  // sweep the microkernel over the tile grid. A full B panel whose rows are
  // contiguous (B.sj == 1) is read in place at stride B.sp; ragged panels
  // and the transposed (nt) panels are packed at stride nr. Full tiles are
  // stored straight into C; ragged ones go through a stack tile.
  const int t_mr = kt.mr;
  const int t_nr = kt.nr;
  const int n_panels = (n + t_nr - 1) / t_nr;
  const int kc_max = std::min(k, kKernelKc);
  // Panels before this one are read in place: every full panel when
  // B.sj == 1, so only a ragged last panel is packed; none in nt products.
  const int first_packed = B.sj == 1 ? n / t_nr : 0;
  ensure_capacity(tl_pack_b,
                  static_cast<std::size_t>(n_panels - first_packed) * t_nr * kc_max);
  ensure_capacity(tl_pack_a,
                  static_cast<std::size_t>((kMc + t_mr - 1) / t_mr) * t_mr * kc_max);
  double* const bbuf = tl_pack_b.data();
  double* const abuf = tl_pack_a.data();

  for (int p0 = 0; p0 < k; p0 += kKernelKc) {
    const int kc = std::min(kKernelKc, k - p0);
    const bool add = accumulate || p0 > 0;
    const bool fuse = p0 + kc == k && epi.any();

    // Packed B panels: panel-major [panel - first_packed][p][nr], ragged
    // last panel zero-padded.
    for (int panel = first_packed; panel < n_panels; ++panel) {
      const int j0 = panel * t_nr;
      pack_panel(kt, bbuf + static_cast<std::size_t>(panel - first_packed) * kc * t_nr,
                 B.p + p0 * B.sp + j0 * B.sj, B.sj, B.sp, kc, t_nr,
                 std::min(t_nr, n - j0));
    }

    for (int i0 = 0; i0 < m; i0 += kMc) {
      const int mb = std::min(kMc, m - i0);
      const int m_panels = (mb + t_mr - 1) / t_mr;
      for (int ip = 0; ip < m_panels; ++ip) {
        const int i1 = i0 + ip * t_mr;
        pack_panel(kt, abuf + static_cast<std::size_t>(ip) * kc * t_mr,
                   A.p + i1 * A.si + p0 * A.sp, A.si, A.sp, kc, t_mr,
                   std::min(t_mr, m - i1));
      }

      for (int ip = 0; ip < m_panels; ++ip) {
        const int i1 = i0 + ip * t_mr;
        const int mr = std::min(t_mr, m - i1);
        const double* ap = abuf + static_cast<std::size_t>(ip) * kc * t_mr;
        for (int panel = 0; panel < n_panels; ++panel) {
          const int j0 = panel * t_nr;
          const int nr = std::min(t_nr, n - j0);
          const bool direct = panel < first_packed;
          const double* bp =
              direct ? B.p + p0 * B.sp + j0
                     : bbuf + static_cast<std::size_t>(panel - first_packed) * kc * t_nr;
          const std::ptrdiff_t ldb = direct ? B.sp : t_nr;
          double* const ctile = cdata + static_cast<std::size_t>(i1) * n + j0;
          if (mr == t_mr && nr == t_nr) {
            kt.micro(kc, ap, bp, ldb, ctile, n, add);
          } else {
            alignas(64) double tile[detail::kMaxMr * detail::kMaxNr];
            kt.micro(kc, ap, bp, ldb, tile, t_nr, false);
            for (int r = 0; r < mr; ++r) {
              double* __restrict crow = ctile + static_cast<std::size_t>(r) * n;
              const double* __restrict trow = tile + static_cast<std::size_t>(r) * t_nr;
              for (int c = 0; c < nr; ++c) crow[c] = add ? crow[c] + trow[c] : trow[c];
            }
          }
          if (fuse) {
            for (int r = 0; r < mr; ++r) {
              kt.epilogue(ctile + static_cast<std::size_t>(r) * n,
                          epi.bias != nullptr ? epi.bias + j0 : nullptr, epi.act, nr);
            }
          }
        }
      }
    }
  }
}

// Debug-only guard: the destination must not alias an operand (the kernels
// read operands while storing into c). Empty matrices share a null data().
inline bool no_alias(const Matrix& c, const Matrix& x) {
  return c.size() == 0 || x.size() == 0 || c.data() != x.data();
}

// Resize-or-check the destination; with `accumulate` the caller must already
// hold the result shape (the product is added into it).
void prep_dest(Matrix& c, int m, int n, bool accumulate, const char* who) {
  if (accumulate) {
    if (c.rows() != m || c.cols() != n) {
      throw std::invalid_argument(std::string(who) + ": accumulate shape mismatch");
    }
  } else {
    c.resize(m, n);
  }
}

}  // namespace

namespace detail {

const KernelTable& scalar_kernel_table() {
  static const KernelTable table{.mr = kMr,
                                 .nr = kNr,
                                 .micro = micro_kernel,
                                 .pack_rows = pack_rows_scalar,
                                 .pack_cols = pack_cols_scalar,
                                 .gemv_axpy = gemv_axpy_scalar,
                                 .gemv_dot = gemv_dot_scalar,
                                 .epilogue = epilogue_scalar,
                                 .adam = adam_scalar};
  return table;
}

}  // namespace detail

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dim mismatch");
  assert(no_alias(c, a) && no_alias(c, b));
  prep_dest(c, a.rows(), b.cols(), accumulate, "matmul_into");
  gemm(c.data(), a.rows(), b.cols(), a.cols(), {a.data(), a.cols(), 1},
       {b.data(), b.cols(), 1}, accumulate, {});
}

void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn: dim mismatch");
  assert(no_alias(c, a) && no_alias(c, b));
  prep_dest(c, a.cols(), b.cols(), accumulate, "matmul_tn_into");
  gemm(c.data(), a.cols(), b.cols(), a.rows(), {a.data(), 1, a.cols()},
       {b.data(), b.cols(), 1}, accumulate, {});
}

void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt: dim mismatch");
  assert(no_alias(c, a) && no_alias(c, b));
  prep_dest(c, a.rows(), b.rows(), accumulate, "matmul_nt_into");
  gemm(c.data(), a.rows(), b.rows(), a.cols(), {a.data(), a.cols(), 1},
       {b.data(), 1, b.cols()}, accumulate, {});
}

void matmul_nt_rows_into(Matrix& c, const Matrix& a, const Matrix& b, int row_begin,
                         int row_end) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt_rows: dim mismatch");
  if (row_begin < 0 || row_begin > row_end || row_end > b.rows()) {
    throw std::invalid_argument("matmul_nt_rows: row range out of bounds");
  }
  assert(no_alias(c, a) && no_alias(c, b));
  c.resize(a.rows(), row_end - row_begin);
  gemm(c.data(), a.rows(), row_end - row_begin, a.cols(), {a.data(), a.cols(), 1},
       {b.data() + static_cast<std::size_t>(row_begin) * b.cols(), 1, b.cols()}, false,
       {});
}

void linear_forward_into(Matrix& y, const Matrix& x, const Matrix& w, const Matrix& b,
                         Activation act) {
  if (x.cols() != w.rows()) throw std::invalid_argument("matmul: inner dim mismatch");
  if (b.rows() != 1 || b.cols() != w.cols()) {
    throw std::invalid_argument("linear_forward: bias shape mismatch");
  }
  assert(no_alias(y, x) && no_alias(y, w) && no_alias(y, b));
  prep_dest(y, x.rows(), w.cols(), false, "linear_forward_into");
  gemm(y.data(), x.rows(), w.cols(), x.cols(), {x.data(), x.cols(), 1},
       {w.data(), w.cols(), 1}, false, {b.data(), act});
}

void column_sum_into(Matrix& s, const Matrix& m, bool accumulate) {
  prep_dest(s, 1, m.cols(), accumulate, "column_sum_into");
  double* __restrict out = s.data();
  const int cols = m.cols();
  if (!accumulate) std::fill(out, out + cols, 0.0);
  for (int i = 0; i < m.rows(); ++i) {
    const double* __restrict row = m.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) out[j] += row[j];
  }
}

void hconcat_into(Matrix& c, const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("hconcat: row mismatch");
  assert(&c != &a && &c != &b);
  c.resize(a.rows(), a.cols() + b.cols());
  const std::size_t abytes = static_cast<std::size_t>(a.cols()) * sizeof(double);
  const std::size_t bbytes = static_cast<std::size_t>(b.cols()) * sizeof(double);
  for (int i = 0; i < a.rows(); ++i) {
    double* dst = c.data() + static_cast<std::size_t>(i) * c.cols();
    std::memcpy(dst, a.data() + static_cast<std::size_t>(i) * a.cols(), abytes);
    std::memcpy(dst + a.cols(), b.data() + static_cast<std::size_t>(i) * b.cols(), bbytes);
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(c, a, b);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_tn_into(c, a, b);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nt_into(c, a, b);
  return c;
}

Matrix linear_forward(const Matrix& x, const Matrix& w, const Matrix& b) {
  Matrix y;
  linear_forward_into(y, x, w, b);
  return y;
}

Matrix column_sum(const Matrix& m) {
  Matrix s;
  column_sum_into(s, m);
  return s;
}

Matrix hconcat(const Matrix& a, const Matrix& b) {
  Matrix c;
  hconcat_into(c, a, b);
  return c;
}

}  // namespace adsec
