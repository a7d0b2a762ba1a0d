#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

namespace adsec {
namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12u);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, FromVectorMakesRow) {
  const Matrix m = Matrix::from_vector({1.0, 2.0, 3.0});
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
}

TEST(Matrix, RandnScaleControlsSpread) {
  Rng rng(1);
  const Matrix small = Matrix::randn(50, 50, rng, 0.01);
  const Matrix big = Matrix::randn(50, 50, rng, 1.0);
  double ss = 0.0, sb = 0.0;
  for (std::size_t i = 0; i < small.size(); ++i) {
    ss += small.data()[i] * small.data()[i];
    sb += big.data()[i] * big.data()[i];
  }
  EXPECT_LT(ss, sb / 100.0);
}

TEST(Matrix, MatmulSmallKnownResult) {
  Matrix a(2, 3), b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(matmul_tn(Matrix(2, 3), Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(matmul_nt(Matrix(2, 3), Matrix(2, 4)), std::invalid_argument);
}

TEST(Matrix, TransposedVariantsAgreeWithPlainMatmul) {
  Rng rng(3);
  const Matrix a = Matrix::randn(4, 3, rng, 1.0);
  const Matrix b = Matrix::randn(4, 5, rng, 1.0);
  // a^T * b via matmul_tn must equal manual transpose.
  Matrix at(3, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  const Matrix c1 = matmul_tn(a, b);
  const Matrix c2 = matmul(at, b);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_NEAR(c1(i, j), c2(i, j), 1e-12);
  }

  const Matrix d = Matrix::randn(6, 3, rng, 1.0);
  // at: 3x4 -> a: 4x3; d * a^T... use matmul_nt(d, x) with x: 6? Keep simple:
  const Matrix e = Matrix::randn(5, 3, rng, 1.0);
  const Matrix f1 = matmul_nt(d, e);  // 6x5
  Matrix et(3, 5);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) et(j, i) = e(i, j);
  }
  const Matrix f2 = matmul(d, et);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_NEAR(f1(i, j), f2(i, j), 1e-12);
  }
}

TEST(Matrix, LinearForwardBroadcastsBias) {
  Matrix x(2, 2), w(2, 3), b(1, 3);
  x(0, 0) = 1.0;
  x(1, 1) = 1.0;
  w(0, 0) = 2.0;
  w(1, 2) = 4.0;
  b(0, 0) = 10.0;
  b(0, 1) = 20.0;
  b(0, 2) = 30.0;
  const Matrix y = linear_forward(x, w, b);
  EXPECT_DOUBLE_EQ(y(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(y(1, 2), 34.0);
}

TEST(Matrix, LinearForwardBadBiasThrows) {
  EXPECT_THROW(linear_forward(Matrix(2, 2), Matrix(2, 3), Matrix(1, 2)),
               std::invalid_argument);
  EXPECT_THROW(linear_forward(Matrix(2, 2), Matrix(2, 3), Matrix(2, 3)),
               std::invalid_argument);
}

TEST(Matrix, ColumnSum) {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 0) = 2.0;
  m(1, 2) = -4.0;
  const Matrix s = column_sum(m);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(s(0, 2), -4.0);
}

TEST(Matrix, Hconcat) {
  Matrix a(2, 2), b(2, 1);
  a(0, 0) = 1.0;
  a(1, 1) = 2.0;
  b(0, 0) = 5.0;
  const Matrix c = hconcat(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_DOUBLE_EQ(c(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 2.0);
  EXPECT_THROW(hconcat(Matrix(2, 2), Matrix(3, 2)), std::invalid_argument);
}

TEST(Matrix, InplaceOps) {
  Matrix a(1, 3), b(1, 3);
  a.fill(2.0);
  b.fill(3.0);
  a.add_inplace(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 5.0);
  a.axpy_inplace(2.0, b);
  EXPECT_DOUBLE_EQ(a(0, 1), 11.0);
  a.scale_inplace(0.5);
  EXPECT_DOUBLE_EQ(a(0, 2), 5.5);
  a.set_zero();
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_THROW(a.add_inplace(Matrix(2, 2)), std::invalid_argument);
}

// The ReLU backward is a select, not a branch: it zeroes exactly the
// gradients the old `if (h <= 0) g = 0` loop zeroed (-0.0 and +0.0, not
// NaN) and keeps every other gradient's bits, NaN and -0.0 included. Sizes
// cover vector bodies and tails.
TEST(Matrix, ReluBackwardMatchesBranchyLoop) {
  const std::vector<double> hs = {-0.0, 0.0, kNaN, -1.0, 1.0, 5e-324};
  const std::vector<double> gs = {0.5, -2.0, -0.0, kNaN, 3e-310, -kInf, 7.0};
  for (const int cols : {1, 5, 6, 42}) {
    Matrix h(3, cols), grad(3, cols);
    for (std::size_t i = 0; i < h.size(); ++i) {
      h.data()[i] = hs[i % hs.size()];
      grad.data()[i] = gs[i % gs.size()];
    }
    Matrix want = grad;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h.data()[i] <= 0.0) want.data()[i] = 0.0;
    }
    apply_activation_grad(Activation::ReLU, h, grad);
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_TRUE(same_bits(grad.data()[i], want.data()[i]))
          << "cols " << cols << " h " << h.data()[i] << " got " << grad.data()[i]
          << " want " << want.data()[i];
    }
  }
}

// blend_inplace is the Polyak blend's two multiplies then one add, never
// fused (this file is compiled with -ffp-contract=off, like the kernels).
TEST(Matrix, BlendInplaceIsMultiplyMultiplyAdd) {
  Rng rng(3);
  for (const int cols : {1, 3, 64, 67}) {
    const Matrix a0 = Matrix::randn(4, cols, rng, 1.0);
    const Matrix b = Matrix::randn(4, cols, rng, 1.0);
    for (const double tau : {0.005, 0.25, 1.0}) {
      const double keep = 1.0 - tau;
      Matrix a = a0;
      a.blend_inplace(keep, tau, b);
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double kp = keep * a0.data()[i];
        const double to = tau * b.data()[i];
        EXPECT_TRUE(same_bits(a.data()[i], kp + to)) << "tau " << tau << " i " << i;
      }
    }
  }
  Matrix a(2, 2);
  EXPECT_THROW(a.blend_inplace(0.5, 0.5, Matrix(2, 3)), std::invalid_argument);
}

// all_finite agrees with std::isfinite over every element, wherever the
// one non-finite value sits (vector body or tail).
TEST(Matrix, AllFiniteMatchesIsfinite) {
  EXPECT_TRUE(Matrix().all_finite());
  const double max = std::numeric_limits<double>::max();
  const double finite[] = {0.0, -0.0, 1.0, -max, max, 5e-324, -2.5e-310};
  for (const int cols : {1, 2, 5, 33}) {
    Matrix m(3, cols);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = finite[i % 7];
    EXPECT_TRUE(m.all_finite()) << "cols " << cols;
    for (const double bad : {kInf, -kInf, kNaN, -kNaN}) {
      for (const std::size_t at : {std::size_t{0}, m.size() / 2, m.size() - 1}) {
        Matrix x = m;
        x.data()[at] = bad;
        EXPECT_FALSE(x.all_finite()) << "cols " << cols << " " << bad << " at " << at;
      }
    }
  }
}

}  // namespace
}  // namespace adsec
