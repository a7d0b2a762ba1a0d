// Parity suite for the blocked GEMM kernels against the reference::
// triple-loop oracles, across the shape zoo the training loops produce:
// 1 x N inference rows (GEMV path), odd/prime dims that exercise the
// zero-padded tile edges, empty reductions, tall/wide panels crossing the
// kMc row-block boundary, and all three transpose variants — plus the
// accumulate and fused-epilogue forms and bit-exact run-to-run determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/simd.hpp"

namespace adsec {
namespace {

Matrix make_random(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

// With the scalar tier active the blocked kernels keep the reference
// summation order AND its multiply-then-add arithmetic (matrix.cpp and
// matrix_reference.cpp are both pinned -ffp-contract=off), so equality is
// exact. The AVX2 tier fuses every multiply-add, which rounds once instead
// of twice per step — same chain, ulp-level difference vs the oracle —
// so it gets a tight relative tolerance. The parity suite runs under every
// available tier via ADSEC_SIMD / the simd-parity CI job.
void expect_same(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  if (simd::active_tier() == simd::Tier::Scalar) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.data()[i], want.data()[i]) << "flat index " << i;
    }
  } else {
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got.data()[i], want.data()[i],
                  1e-12 * (1.0 + std::abs(want.data()[i])))
          << "flat index " << i;
    }
  }
}

// Tolerance form for cases where the association legitimately differs
// (the GEMV paths seed their running sum with the destination value, the
// blocked path adds the finished product once).
void expect_close(const Matrix& got, const Matrix& want, double rel = 1e-12) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], rel * (1.0 + std::abs(want.data()[i])))
        << "flat index " << i;
  }
}

// (m, n, k) result/inner shapes. Chosen to hit: single element, GEMV row
// (m = 1), sub-tile m, prime everything, exact 4x8 tiles, ragged edges in
// both dimensions, k = 0 empty reduction, and m > 128 (two kMc row blocks).
// The last row holds the shapes of one zoo SAC update (batch 32, 267-dim
// observation, 2-dim action, 64 x 64 nets), which take every full-panel pack
// through the variants: 32 x 269 * 269 x 64 (critic layer 0), 269 x 64 with
// k = 32 (its weight gradient), 32 x 64 * 64 x 64 (hidden layers), and
// B = 269 x 64 (the critic's W0 in the nt rows test), plus two ragged ones.
const std::vector<std::tuple<int, int, int>> kShapes = {
    {1, 1, 1},   {1, 8, 64},   {1, 257, 19},  {2, 5, 3},    {3, 3, 0},
    {4, 8, 16},  {5, 9, 17},   {7, 3, 2},     {8, 8, 8},    {13, 29, 31},
    {31, 7, 1},  {64, 64, 64}, {130, 40, 33}, {1, 1, 100},  {32, 64, 269},
    {269, 64, 32}, {32, 64, 64}, {32, 269, 64}, {30, 63, 5}, {7, 9, 13},
};

TEST(GemmParity, MatmulMatchesReference) {
  Rng rng(1234);
  for (const auto& [m, n, k] : kShapes) {
    const Matrix a = make_random(m, k, rng);
    const Matrix b = make_random(k, n, rng);
    Matrix c;
    matmul_into(c, a, b);
    expect_same(c, reference::matmul(a, b));
  }
}

TEST(GemmParity, MatmulTnMatchesReference) {
  Rng rng(1235);
  for (const auto& [m, n, k] : kShapes) {
    const Matrix a = make_random(k, m, rng);  // result is a^T * b: m x n
    const Matrix b = make_random(k, n, rng);
    Matrix c;
    matmul_tn_into(c, a, b);
    expect_same(c, reference::matmul_tn(a, b));
  }
}

TEST(GemmParity, MatmulNtMatchesReference) {
  Rng rng(1236);
  for (const auto& [m, n, k] : kShapes) {
    const Matrix a = make_random(m, k, rng);
    const Matrix b = make_random(n, k, rng);  // result is a * b^T: m x n
    Matrix c;
    matmul_nt_into(c, a, b);
    expect_same(c, reference::matmul_nt(a, b));
  }
}

// A row range of B gives exactly the matching columns of the full nt
// product (same chain per element on every path), for the prefix, suffix,
// interior, last-two-rows (the actor step's dQ/da), single-row and empty
// ranges.
TEST(GemmParity, MatmulNtRowsMatchesFullProductColumns) {
  Rng rng(1237);
  for (const auto& [m, n, k] : kShapes) {
    const Matrix a = make_random(m, k, rng);
    const Matrix b = make_random(n, k, rng);
    Matrix full;
    matmul_nt_into(full, a, b);
    const std::vector<std::pair<int, int>> ranges = {
        {0, n},     {0, n / 2}, {n / 2, n}, {n / 3, (2 * n + 2) / 3},
        {std::max(0, n - 2), n}, {n - 1, n}, {n, n}};
    for (const auto& [r0, r1] : ranges) {
      Matrix c;
      matmul_nt_rows_into(c, a, b, r0, r1);
      ASSERT_EQ(c.rows(), m);
      ASSERT_EQ(c.cols(), r1 - r0);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < r1 - r0; ++j) {
          const double got = c(i, j), want = full(i, r0 + j);
          EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << "m=" << m << " n=" << n << " k=" << k << " rows [" << r0 << ", " << r1
              << ") at (" << i << ", " << j << ")";
        }
      }
    }
  }
  Matrix c;
  EXPECT_THROW(matmul_nt_rows_into(c, Matrix(2, 3), Matrix(4, 3), -1, 2),
               std::invalid_argument);
  EXPECT_THROW(matmul_nt_rows_into(c, Matrix(2, 3), Matrix(4, 3), 3, 2),
               std::invalid_argument);
  EXPECT_THROW(matmul_nt_rows_into(c, Matrix(2, 3), Matrix(4, 3), 0, 5),
               std::invalid_argument);
  EXPECT_THROW(matmul_nt_rows_into(c, Matrix(2, 3), Matrix(4, 2), 0, 4),
               std::invalid_argument);
}

TEST(GemmParity, AccumulateAddsProductOnce) {
  Rng rng(77);
  for (const auto& [m, n, k] : kShapes) {
    const Matrix a = make_random(m, k, rng);
    const Matrix b = make_random(k, n, rng);
    const Matrix c0 = make_random(m, n, rng);

    Matrix c = c0;
    matmul_into(c, a, b, /*accumulate=*/true);

    Matrix want = reference::matmul(a, b);
    for (std::size_t i = 0; i < want.size(); ++i) want.data()[i] += c0.data()[i];
    expect_close(c, want);
  }
}

TEST(GemmParity, AccumulateTransposeVariants) {
  Rng rng(78);
  const int m = 13, n = 21, k = 9;
  const Matrix at = make_random(k, m, rng);
  const Matrix b = make_random(k, n, rng);
  const Matrix bt = make_random(n, k, rng);
  const Matrix a = make_random(m, k, rng);
  const Matrix c0 = make_random(m, n, rng);

  Matrix c = c0;
  matmul_tn_into(c, at, b, true);
  Matrix want = reference::matmul_tn(at, b);
  for (std::size_t i = 0; i < want.size(); ++i) want.data()[i] += c0.data()[i];
  expect_close(c, want);

  c = c0;
  matmul_nt_into(c, a, bt, true);
  want = reference::matmul_nt(a, bt);
  for (std::size_t i = 0; i < want.size(); ++i) want.data()[i] += c0.data()[i];
  expect_close(c, want);
}

TEST(GemmParity, LinearForwardFusedEpilogueMatchesUnfused) {
  Rng rng(42);
  for (const auto& [m, n, k] : kShapes) {
    const Matrix x = make_random(m, k, rng);
    const Matrix w = make_random(k, n, rng);
    const Matrix b = make_random(1, n, rng);
    for (Activation act : {Activation::Identity, Activation::ReLU, Activation::Tanh}) {
      Matrix y;
      linear_forward_into(y, x, w, b, act);
      Matrix want = reference::linear_forward(x, w, b);
      apply_activation(act, want);
      expect_same(y, want);
    }
  }
}

TEST(GemmParity, ColumnSumMatchesReference) {
  Rng rng(43);
  for (int rows : {1, 2, 7, 64, 130}) {
    for (int cols : {1, 3, 8, 33}) {
      const Matrix m = make_random(rows, cols, rng);
      Matrix s;
      column_sum_into(s, m);
      expect_same(s, reference::column_sum(m));

      const Matrix s0 = make_random(1, cols, rng);
      Matrix sa = s0;
      column_sum_into(sa, m, /*accumulate=*/true);
      // Accumulate seeds the running sum with s0, keeping ascending-row
      // order: s0 + row0 + row1 + ...
      Matrix want = s0;
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) want(0, j) += m(i, j);
      }
      expect_same(sa, want);
    }
  }
}

TEST(GemmParity, EmptyOperandsProduceEmptyOrZeroResults) {
  const Matrix a0k(0, 5);
  const Matrix bk0(5, 0);
  Matrix c;
  matmul_into(c, a0k, Matrix(5, 3));
  EXPECT_EQ(c.rows(), 0);
  EXPECT_EQ(c.cols(), 3);
  matmul_into(c, Matrix(3, 5), bk0);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 0);

  // k = 0: an empty reduction is all zeros, not garbage.
  matmul_into(c, Matrix(4, 0), Matrix(0, 6));
  ASSERT_EQ(c.rows(), 4);
  ASSERT_EQ(c.cols(), 6);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0);
}

TEST(GemmParity, ShapeErrorsThrow) {
  Matrix c;
  EXPECT_THROW(matmul_into(c, Matrix(2, 3), Matrix(4, 2)), std::invalid_argument);
  EXPECT_THROW(matmul_tn_into(c, Matrix(2, 3), Matrix(4, 2)), std::invalid_argument);
  EXPECT_THROW(matmul_nt_into(c, Matrix(2, 3), Matrix(4, 2)), std::invalid_argument);
  Matrix y;
  EXPECT_THROW(linear_forward_into(y, Matrix(2, 3), Matrix(3, 4), Matrix(1, 5)),
               std::invalid_argument);
  // Accumulate requires the destination to already hold the result shape.
  Matrix wrong(1, 1);
  EXPECT_THROW(matmul_into(wrong, Matrix(2, 3), Matrix(3, 4), true),
               std::invalid_argument);
}

TEST(GemmParity, DestinationResizedInPlace) {
  Rng rng(7);
  const Matrix a = make_random(6, 4, rng);
  const Matrix b = make_random(4, 9, rng);
  Matrix c(100, 100);  // capacity above the result size: no realloc needed
  const double* before = c.data();
  matmul_into(c, a, b);
  EXPECT_EQ(c.rows(), 6);
  EXPECT_EQ(c.cols(), 9);
  EXPECT_EQ(c.data(), before);
  expect_same(c, reference::matmul(a, b));
}

TEST(GemmDeterminism, RepeatedRunsAreBitIdentical) {
  Rng rng(555);
  const Matrix a = make_random(37, 53, rng);
  const Matrix b = make_random(53, 29, rng);
  const Matrix bias = make_random(1, 29, rng);

  Matrix c1, c2;
  matmul_into(c1, a, b);
  matmul_into(c2, a, b);
  ASSERT_EQ(c1.size(), c2.size());
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(double)), 0);

  Matrix y1, y2;
  linear_forward_into(y1, a, b, bias, Activation::Tanh);
  linear_forward_into(y2, a, b, bias, Activation::Tanh);
  EXPECT_EQ(std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(double)), 0);
}

TEST(GemmDeterminism, AllocatingWrappersMatchIntoVariants) {
  Rng rng(556);
  const Matrix a = make_random(11, 17, rng);
  const Matrix b = make_random(17, 5, rng);
  Matrix c;
  matmul_into(c, a, b);
  expect_same(matmul(a, b), c);

  const Matrix bt = make_random(5, 17, rng);
  matmul_nt_into(c, a, bt);
  expect_same(matmul_nt(a, bt), c);

  const Matrix at = make_random(17, 11, rng);
  matmul_tn_into(c, at, b);
  expect_same(matmul_tn(at, b), c);
}

// Ragged edge panels are zero-padded, so the padding lanes the microkernel
// computes and drops never hold stale pack-buffer data. A GEMM on finite
// inputs run right after one on infinite inputs (whose values are left in
// this thread's pack buffers, at the same panel offsets) raises no invalid
// operation: stale infinities in the padding would meet both signs of the
// live operands and sum to inf - inf.
TEST(GemmKernelConfig, RaggedPanelsPadWithZerosNotStaleData) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(4321);
  for (const auto& [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {30, 63, 5}, {7, 9, 13}, {32, 2, 64}}) {
    const int mp = (m + 7) / 8 * 8, np = (n + 7) / 8 * 8;  // whole panels
    Matrix ia(mp, k), ib(k, np), c;
    ia.fill(kInf);
    ib.fill(kInf);
    const Matrix a = make_random(m, k, rng);
    const Matrix b = make_random(k, n, rng);
    const Matrix at = make_random(k, m, rng);
    const Matrix bt = make_random(n, k, rng);
    for (int variant = 0; variant < 3; ++variant) {
      matmul_into(c, ia, ib);  // leaves infinities in both pack buffers
      std::feclearexcept(FE_ALL_EXCEPT);
      if (variant == 0) matmul_into(c, a, b);
      if (variant == 1) matmul_tn_into(c, at, b);
      if (variant == 2) matmul_nt_into(c, a, bt);
      EXPECT_FALSE(std::fetestexcept(FE_INVALID))
          << "variant " << variant << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(GemmKernelConfig, LargeKCrossesChunkBoundary) {
  // k > kKernelKc exercises the multi-chunk path (first/last flags). The
  // chunked sum associates differently from the reference single chain, so
  // compare with a tolerance scaled to the reduction length.
  Rng rng(999);
  const int k = kKernelKc + 37;
  const Matrix a = make_random(5, k, rng);
  const Matrix b = make_random(k, 6, rng);
  Matrix c;
  matmul_into(c, a, b);
  const Matrix want = reference::matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], want.data()[i], 1e-10 * (1.0 + std::abs(want.data()[i])));
  }
}

}  // namespace
}  // namespace adsec
