// The SIMD dispatch contract (nn/simd.hpp):
//   * every available tier passes GEMM/GEMV parity vs the reference::
//     oracle (exact for scalar, ulp-tolerance for the FMA tiers);
//   * WITHIN a tier, a row pushed through a batched B x k forward is
//     bit-identical to the same row pushed through a 1 x k forward;
//   * the AVX-512 tier reproduces the AVX2 tier bit for bit, through every
//     driver variant and every kernel-table entry;
//   * repeated runs are bit-identical per tier;
//   * ADSEC_SIMD / force_tier validation and the aligned-storage fix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "nn/kernel_table.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"

namespace adsec {
namespace {

// Restores the dispatch default (lazy env/CPUID resolution) however the
// test exits, so test order can't leak a forced tier.
struct TierGuard {
  ~TierGuard() { simd::reset_tier(); }
};

Matrix make_random(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

void expect_bitwise(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << what << " flat index " << i;
  }
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndListedFirst) {
  const auto tiers = simd::available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::Scalar);
  EXPECT_TRUE(simd::tier_supported(simd::Tier::Scalar));
  for (const simd::Tier t : tiers) EXPECT_TRUE(simd::tier_supported(t));
}

TEST(SimdDispatch, TierNamesMatchEnvSpelling) {
  EXPECT_STREQ(simd::tier_name(simd::Tier::Scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx512), "avx512");
}

TEST(SimdDispatch, ForceTierTakesEffectAndResets) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    EXPECT_EQ(simd::active_tier(), t);
  }
  simd::reset_tier();
  // After reset the lazy resolution must still yield a supported tier.
  EXPECT_TRUE(simd::tier_supported(simd::active_tier()));
}

TEST(SimdDispatch, ForceUnsupportedTierThrowsConfig) {
  for (const simd::Tier t : {simd::Tier::Avx2, simd::Tier::Avx512}) {
    if (simd::tier_supported(t)) continue;
    try {
      simd::force_tier(t);
      FAIL() << "expected Error{Config} for " << simd::tier_name(t);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Config);
    }
    return;
  }
  GTEST_SKIP() << "every tier supported here; nothing is unsupported to force";
}

TEST(SimdDispatch, BogusEnvValueThrowsConfig) {
  TierGuard guard;
  simd::reset_tier();
  ASSERT_EQ(setenv("ADSEC_SIMD", "avx512-of-my-dreams", /*overwrite=*/1), 0);
  try {
    (void)simd::active_tier();
    ADD_FAILURE() << "expected Error{Config}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Config);
  }
  unsetenv("ADSEC_SIMD");
  simd::reset_tier();
}

// The parity oracle, per tier. Scalar is pinned -ffp-contract=off so it is
// exactly the reference arithmetic; the FMA tiers round once per
// multiply-add, hence the tolerance branch.
TEST(SimdParity, EveryAvailableTierMatchesReference) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(99);
    for (const auto& [m, n, k] : std::vector<std::tuple<int, int, int>>{
             {1, 8, 64}, {1, 257, 19}, {3, 5, 7}, {8, 8, 8}, {13, 29, 31},
             {64, 64, 64}, {130, 40, 33}}) {
      const Matrix a = make_random(m, k, rng);
      const Matrix b = make_random(k, n, rng);
      const Matrix got = matmul(a, b);
      const Matrix want = reference::matmul(a, b);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (t == simd::Tier::Scalar) {
          EXPECT_EQ(got.data()[i], want.data()[i])
              << simd::tier_name(t) << " " << m << "x" << n << "x" << k
              << " flat " << i;
        } else {
          EXPECT_NEAR(got.data()[i], want.data()[i],
                      1e-12 * (1.0 + std::abs(want.data()[i])))
              << simd::tier_name(t) << " " << m << "x" << n << "x" << k
              << " flat " << i;
        }
      }
    }
  }
}

// Row r of a B x k linear forward is bit-identical to running that row
// alone, for every batch size across the GEMV/blocked path boundary — per
// tier.
TEST(SimdParity, RowBatchedForwardIsBitIdenticalToPerRowPerTier) {
  TierGuard guard;
  const int k = 67;
  const int n = 33;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(4242);
    const Matrix w = make_random(k, n, rng);
    const Matrix bias = make_random(1, n, rng);
    for (const int batch : {1, 2, 3, 4, 5, 8, 16}) {
      const Matrix x = make_random(batch, k, rng);
      Matrix batched;
      linear_forward_into(batched, x, w, bias, Activation::Tanh);
      for (int r = 0; r < batch; ++r) {
        Matrix one_row;
        row_into(one_row, x.row(r));
        Matrix single;
        linear_forward_into(single, one_row, w, bias, Activation::Tanh);
        for (int j = 0; j < n; ++j) {
          EXPECT_EQ(batched(r, j), single(0, j))
              << simd::tier_name(t) << " batch=" << batch << " row=" << r
              << " col=" << j;
        }
      }
    }
  }
}

// The shapes of one zoo SAC update that reach each pack path: critic
// layer 0 forward (A transposed into panels, W rows copied), its weight
// gradient (tn: both panels copied), a hidden-layer input gradient (nt: both
// panels transposed), the actor step's dQ/da (W0 rows 267..268: a ragged
// transposed panel), and two ragged shapes through every variant. Per tier:
// against reference:: (exact on scalar, ulp tolerance on the FMA tiers),
// and each row of the batched product bit-identical to that row alone
// through the GEMV path.
enum class Variant { Nn, Tn, Nt, NtRows };

struct PackCase {
  Variant variant;
  int m, n, k;  // C is m x n (before the nt row range), inner dim k
};

TEST(SimdParity, ZooPackPathsMatchReferenceAndPerRowPerTier) {
  TierGuard guard;
  std::vector<PackCase> cases = {{Variant::Nn, 32, 64, 269},
                                 {Variant::Tn, 269, 64, 32},
                                 {Variant::Nt, 32, 64, 64},
                                 {Variant::NtRows, 32, 269, 64}};
  for (const Variant v : {Variant::Nn, Variant::Tn, Variant::Nt}) {
    cases.push_back({v, 30, 63, 5});
    cases.push_back({v, 7, 9, 13});
  }
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(31);
    for (const PackCase& pc : cases) {
      // A is m x k (k x m for tn); B is k x n (n x k for nt).
      const bool ta = pc.variant == Variant::Tn;
      const bool tb = pc.variant == Variant::Nt || pc.variant == Variant::NtRows;
      const Matrix a = ta ? make_random(pc.k, pc.m, rng) : make_random(pc.m, pc.k, rng);
      const Matrix b = tb ? make_random(pc.n, pc.k, rng) : make_random(pc.k, pc.n, rng);
      const int r0 = pc.variant == Variant::NtRows ? pc.n - 2 : 0;
      const auto product = [&](Matrix& c, const Matrix& x) {
        switch (pc.variant) {
          case Variant::Nn: return matmul_into(c, x, b);
          case Variant::Tn: return matmul_tn_into(c, x, b);
          case Variant::Nt: return matmul_nt_into(c, x, b);
          case Variant::NtRows: return matmul_nt_rows_into(c, x, b, r0, pc.n);
        }
      };
      const Matrix full = ta ? reference::matmul_tn(a, b)
                             : tb ? reference::matmul_nt(a, b) : reference::matmul(a, b);
      Matrix got;
      product(got, a);
      ASSERT_EQ(got.rows(), pc.m);
      ASSERT_EQ(got.cols(), pc.n - r0);
      for (int i = 0; i < pc.m; ++i) {
        // Row i alone: A's row i (column i for tn) as a one-row operand.
        Matrix one = ta ? Matrix(pc.k, 1) : Matrix(1, pc.k);
        for (int p = 0; p < pc.k; ++p) one.data()[p] = ta ? a(p, i) : a(i, p);
        Matrix row;
        product(row, one);
        for (int j = 0; j < pc.n - r0; ++j) {
          const double want = full(i, r0 + j);
          const char* tier = simd::tier_name(t);
          if (t == simd::Tier::Scalar) {
            EXPECT_EQ(got(i, j), want) << tier << " m=" << pc.m << " n=" << pc.n
                                       << " k=" << pc.k << " at (" << i << ", " << j << ")";
          } else {
            EXPECT_NEAR(got(i, j), want, 1e-12 * (1.0 + std::abs(want)))
                << tier << " m=" << pc.m << " n=" << pc.n << " k=" << pc.k << " at (" << i
                << ", " << j << ")";
          }
          EXPECT_EQ(got(i, j), row(0, j)) << tier << " per-row m=" << pc.m << " n=" << pc.n
                                          << " k=" << pc.k << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

// Same bits in both arrays, NaN payloads and signed zeros included.
void expect_same_bits(const double* got, const double* want, std::size_t n,
                      const std::string& what) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(got + i, want + i, sizeof(double)), 0)
        << what << " index " << i << ": " << got[i] << " vs " << want[i];
  }
}

// The AVX-512 tier reproduces the AVX2 tier bit for bit: both run one FMA
// chain per C element in ascending k from +0.0, with the same kKernelKc
// split, so the 8 x 16 tile (vs 4 x 8), the in-place B panels and the
// direct tile stores change no element's arithmetic. Every driver variant
// runs once per tier over the zoo shapes, ragged shapes, in-place B panels
// with n % 16 != 0 (a ragged packed panel beside them), k > kKernelKc, and
// accumulation onto a nonzero C with 4 <= m < 8 (the blocked path on both
// tiers). Then every kernel-table entry is called directly.
TEST(SimdParity, Avx512MatchesAvx2BitForBit) {
  if (!simd::tier_supported(simd::Tier::Avx2) || !simd::tier_supported(simd::Tier::Avx512)) {
    GTEST_SKIP() << "needs both the avx2 and the avx512 tier";
  }
  TierGuard guard;
  const auto both_tiers = [](const std::function<Matrix()>& run, const std::string& what) {
    simd::force_tier(simd::Tier::Avx2);
    const Matrix want = run();
    simd::force_tier(simd::Tier::Avx512);
    const Matrix got = run();
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    expect_same_bits(got.data(), want.data(), got.size(), what);
  };

  // {m, n, k}: C is m x n, inner dimension k.
  const std::vector<std::tuple<int, int, int>> shapes = {
      {32, 64, 269}, {269, 64, 32}, {32, 64, 64},  {32, 269, 64}, {1, 64, 269},
      {32, 2, 64},   {32, 1, 64},   {7, 9, 13},    {30, 63, 5},   {13, 29, 31},
      {130, 40, 33}, {16, 24, 17},  {9, 40, 11},   {24, 33, 70},  {12, 72, 2100},
      {4, 16, 8},    {5, 48, 19},   {7, 20, 1030}, {3, 17, 9}};
  Rng rng(1907);
  for (const auto& [m, n, k] : shapes) {
    const std::string dims = std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k);
    const Matrix a = make_random(m, k, rng);
    const Matrix at = make_random(k, m, rng);
    const Matrix b = make_random(k, n, rng);
    const Matrix bt = make_random(n, k, rng);
    const Matrix c0 = make_random(m, n, rng);
    const Matrix bias = make_random(1, n, rng);
    for (const bool acc : {false, true}) {
      const std::string tag = dims + (acc ? " accumulate" : "");
      const auto product = [&c0, acc](void (*f)(Matrix&, const Matrix&, const Matrix&, bool),
                                      const Matrix& x, const Matrix& y) {
        return [&c0, acc, f, px = &x, py = &y] {
          Matrix c;
          c.copy_from(c0);
          f(c, *px, *py, acc);
          return c;
        };
      };
      both_tiers(product(matmul_into, a, b), "matmul " + tag);
      both_tiers(product(matmul_tn_into, at, b), "matmul_tn " + tag);
      both_tiers(product(matmul_nt_into, a, bt), "matmul_nt " + tag);
    }
    both_tiers(
        [&] {
          Matrix c;
          matmul_nt_rows_into(c, a, bt, n / 3, n);
          return c;
        },
        "matmul_nt_rows " + dims);
    for (const Activation act : {Activation::Identity, Activation::ReLU, Activation::Tanh}) {
      both_tiers(
          [&] {
            Matrix y;
            linear_forward_into(y, a, b, bias, act);
            return y;
          },
          "linear_forward " + dims + " act " + std::to_string(static_cast<int>(act)));
    }
  }

  // The table entries, called directly.
  const detail::KernelTable& t2 = *detail::avx2_kernel_table();
  const detail::KernelTable& t5 = *detail::avx512_kernel_table();
  const detail::KernelTable& ts = detail::scalar_kernel_table();
  EXPECT_EQ(t5.mr, 8);
  EXPECT_EQ(t5.nr, 16);
  // Entries that gain nothing from zmm registers are the AVX2 tier's own.
  EXPECT_EQ(t5.gemv_dot, t2.gemv_dot);
  EXPECT_EQ(t5.epilogue, t2.epilogue);
  EXPECT_EQ(t5.adam, t2.adam);

  // Packs are copies: every tier's output equals the layout at both of its
  // widths (4 and 8 on avx2, 8 and 16 on avx512).
  const int ld = 41;
  const int kc = 27;
  std::vector<double> src(static_cast<std::size_t>(ld) * kc);  // kc rows of ld
  for (double& x : src) x = rng.normal(0.0, 1.0);
  for (const detail::KernelTable* t : {&ts, &t2, &t5}) {
    for (const int w : {t->mr, t->nr}) {
      std::vector<double> rows_want(static_cast<std::size_t>(kc) * w);
      std::vector<double> cols_want(rows_want.size());
      for (int p = 0; p < kc; ++p) {
        for (int c = 0; c < w; ++c) {
          const std::size_t at = static_cast<std::size_t>(p) * w + c;
          rows_want[at] = src[static_cast<std::size_t>(p) * ld + c];
          cols_want[at] = src[static_cast<std::size_t>(c) * ld + p];
        }
      }
      const std::string what = "w=" + std::to_string(w) + " mr=" + std::to_string(t->mr);
      AlignedVector dst(rows_want.size(), -1.0);
      t->pack_rows(dst.data(), src.data(), ld, kc, w);
      expect_same_bits(dst.data(), rows_want.data(), dst.size(), "pack_rows " + what);
      std::fill(dst.begin(), dst.end(), -1.0);
      t->pack_cols(dst.data(), src.data(), ld, kc, w);
      expect_same_bits(dst.data(), cols_want.data(), dst.size(), "pack_cols " + what);
    }
  }

  // GEMV loops: lengths below, at and past one zmm, with ragged tails.
  for (const int n : {1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 64, 67}) {
    std::vector<double> x(static_cast<std::size_t>(n)), y(x.size()), c2(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.normal(0.0, 1.0);
      y[i] = rng.normal(0.0, 1.0);
      c2[i] = rng.normal(0.0, 1.0);
    }
    std::vector<double> c5 = c2;
    const double a = rng.normal(0.0, 1.0);
    t2.gemv_axpy(c2.data(), a, x.data(), n);
    t5.gemv_axpy(c5.data(), a, x.data(), n);
    expect_same_bits(c5.data(), c2.data(), c2.size(), "gemv_axpy n=" + std::to_string(n));
    const double d2 = t2.gemv_dot(0.25, x.data(), y.data(), n);
    const double d5 = t5.gemv_dot(0.25, x.data(), y.data(), n);
    expect_same_bits(&d5, &d2, 1, "gemv_dot k=" + std::to_string(n));
  }

  // Epilogue on the special values, in vector lanes and in the tail; every
  // tier matches the scalar entry.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials = {-0.0, 0.0, nan, inf, -inf, 5e-324, -5e-324,
                                        -1.5, 2.5, -0.0, 0.0, nan, inf,  -inf,
                                        5e-324, -5e-324, 1.0, -2.0, nan};
  std::vector<double> bias(specials.size());
  for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = specials[(i * 7 + 3) % specials.size()];
  for (const Activation act : {Activation::Identity, Activation::ReLU, Activation::Tanh}) {
    for (const double* bp : {static_cast<const double*>(nullptr), static_cast<const double*>(bias.data())}) {
      std::vector<double> want = specials;
      ts.epilogue(want.data(), bp, act, static_cast<int>(want.size()));
      for (const detail::KernelTable* t : {&t2, &t5}) {
        std::vector<double> got = specials;
        t->epilogue(got.data(), bp, act, static_cast<int>(got.size()));
        expect_same_bits(got.data(), want.data(), got.size(),
                         "epilogue mr=" + std::to_string(t->mr) + " act " +
                             std::to_string(static_cast<int>(act)) +
                             (bp != nullptr ? " with bias" : ""));
      }
    }
  }

  // Adam over a length with a ragged vector tail; every tier matches the
  // scalar entry.
  const std::size_t len = 45;
  std::vector<double> p0(len), g0(len), m0(len), v0(len);
  for (std::size_t i = 0; i < len; ++i) {
    p0[i] = rng.normal(0.0, 1.0);
    g0[i] = rng.normal(0.0, 1.0) * std::exp(4.0 * rng.normal(0.0, 1.0));
    m0[i] = rng.normal(0.0, 0.1);
    v0[i] = std::abs(rng.normal(0.0, 0.1));
  }
  const detail::AdamStep step{.b1 = 0.9, .b2 = 0.999, .bc1 = 0.1, .bc2 = 0.001, .lr = 3e-4, .eps = 1e-8};
  std::vector<double> pw = p0, gw = g0, mw = m0, vw = v0;
  ts.adam(pw.data(), gw.data(), mw.data(), vw.data(), len, step);
  for (const detail::KernelTable* t : {&t2, &t5}) {
    std::vector<double> pg = p0, gg = g0, mg = m0, vg = v0;
    t->adam(pg.data(), gg.data(), mg.data(), vg.data(), len, step);
    const std::string what = "adam mr=" + std::to_string(t->mr);
    expect_same_bits(pg.data(), pw.data(), len, what + " p");
    expect_same_bits(gg.data(), gw.data(), len, what + " g");
    expect_same_bits(mg.data(), mw.data(), len, what + " m");
    expect_same_bits(vg.data(), vw.data(), len, what + " v");
  }
}

TEST(SimdParity, RepeatedRunsAreBitIdenticalPerTier) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(7);
    const Matrix a = make_random(13, 31, rng);
    const Matrix b = make_random(31, 29, rng);
    const Matrix first = matmul(a, b);
    const Matrix second = matmul(a, b);
    expect_bitwise(first, second, simd::tier_name(t));
  }
}

// Matrix storage is 64-byte aligned (one cache line, one zmm) for every
// shape and across in-place reshapes, so the vector tiers' aligned panel
// stores are valid and ASan/UBSan can police the contract.
TEST(MatrixAlignment, StorageIsAlignedAcrossShapesAndResizes) {
  static_assert(kMatrixAlign == 64);
  const auto aligned = [](const double* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  for (const auto& [r, c] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 3}, {5, 7}, {3, 19}, {128, 67}, {1, 257}}) {
    Matrix m(r, c);
    EXPECT_TRUE(aligned(m.data())) << r << "x" << c;
    m.resize(c, r);
    EXPECT_TRUE(aligned(m.data())) << "resized " << c << "x" << r;
    m.resize(r * 2 + 1, c * 2 + 1);
    EXPECT_TRUE(aligned(m.data())) << "grown";
  }
  Rng rng(5);
  Matrix m = Matrix::randn(9, 13, rng, 1.0);
  Matrix copy;
  copy.copy_from(m);
  EXPECT_TRUE(aligned(copy.data()));
  const Matrix from_vec = Matrix::from_vector({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_TRUE(aligned(from_vec.data()));
}

// Unaligned-shape inputs (odd leading dimensions put most rows off the
// 64-byte grid) must be handled by the unaligned-load paths — this is the
// shape zoo ASan/UBSan sweep in CI leans on.
TEST(MatrixAlignment, OddLeadingDimensionsComputeCorrectly) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(11);
    const Matrix a = make_random(5, 7, rng);
    const Matrix b = make_random(7, 9, rng);
    const Matrix got = matmul(a, b);
    const Matrix want = reference::matmul(a, b);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got.data()[i], want.data()[i], 1e-12) << simd::tier_name(t);
    }
  }
}

}  // namespace
}  // namespace adsec
