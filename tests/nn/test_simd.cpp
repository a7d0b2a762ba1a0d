// The SIMD dispatch contract (nn/simd.hpp):
//   * every available tier passes GEMM/GEMV parity vs the reference::
//     oracle (exact for scalar, ulp-tolerance for the FMA tier);
//   * WITHIN a tier, a row pushed through a batched B x k forward is
//     bit-identical to the same row pushed through a 1 x k forward;
//   * repeated runs are bit-identical per tier;
//   * ADSEC_SIMD / force_tier validation and the aligned-storage fix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
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
  if (simd::tier_supported(simd::Tier::Avx2)) {
    GTEST_SKIP() << "avx2 supported here; nothing is unsupported to force";
  }
  try {
    simd::force_tier(simd::Tier::Avx2);
    FAIL() << "expected Error{Config}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Config);
  }
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
// exactly the reference arithmetic; the FMA tier rounds once per
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
// against reference:: (exact on scalar, ulp tolerance on the FMA tier),
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

// Satellite fix: Matrix storage is 32-byte aligned for every shape and
// across in-place reshapes, so the AVX2 tier's aligned panel loads are
// valid and ASan/UBSan can police the contract.
TEST(MatrixAlignment, StorageIsAlignedAcrossShapesAndResizes) {
  const auto aligned = [](const double* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kMatrixAlign == 0;
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
// 32-byte grid) must be handled by the unaligned-load paths — this is the
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
