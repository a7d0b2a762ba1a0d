#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace adsec {
namespace {

// Scalar loss used for gradient checking: sum of c[j] * out[i][j].
double weighted_output_sum(Mlp& mlp, const Matrix& x, const Matrix& c) {
  const Matrix y = mlp.forward_inference(x);
  double s = 0.0;
  for (int i = 0; i < y.rows(); ++i) {
    for (int j = 0; j < y.cols(); ++j) s += c(i, j) * y(i, j);
  }
  return s;
}

TEST(Mlp, ForwardMatchesInference) {
  Rng rng(3);
  Mlp mlp({4, 8, 3}, Activation::ReLU, rng);
  Matrix x = Matrix::randn(5, 4, rng, 1.0);
  const Matrix a = mlp.forward(x);
  const Matrix b = mlp.forward_inference(x);
  ASSERT_EQ(a.rows(), 5);
  ASSERT_EQ(a.cols(), 3);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
  }
}

TEST(Mlp, RejectsBadInputDim) {
  Rng rng(3);
  Mlp mlp({4, 8, 3}, Activation::ReLU, rng);
  Matrix x(2, 5);
  EXPECT_THROW(mlp.forward(x), std::invalid_argument);
  EXPECT_THROW(mlp.forward_inference(x), std::invalid_argument);
}

TEST(Mlp, BackwardWithoutForwardThrows) {
  Rng rng(3);
  Mlp mlp({2, 4, 1}, Activation::Tanh, rng);
  Matrix g(1, 1);
  EXPECT_THROW(mlp.backward(g), std::logic_error);
}

class MlpGradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradientCheck, ParameterGradientsMatchFiniteDifferences) {
  Rng rng(7);
  Mlp mlp({3, 6, 5, 2}, GetParam(), rng);
  Matrix x = Matrix::randn(4, 3, rng, 1.0);
  Matrix c = Matrix::randn(4, 2, rng, 1.0);

  mlp.zero_grad();
  mlp.forward(x);
  mlp.backward(c);  // dL/dout = c for L = sum c .* out

  const auto params = mlp.params();
  const auto grads = mlp.grads();
  const double eps = 1e-6;
  int checked = 0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    Matrix& p = *params[k];
    // Probe a few entries per parameter to keep the test fast.
    for (std::size_t idx = 0; idx < p.size(); idx += std::max<std::size_t>(1, p.size() / 5)) {
      const double orig = p.data()[idx];
      p.data()[idx] = orig + eps;
      const double lp = weighted_output_sum(mlp, x, c);
      p.data()[idx] = orig - eps;
      const double lm = weighted_output_sum(mlp, x, c);
      p.data()[idx] = orig;
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(grads[k]->data()[idx], fd, 1e-5)
          << "param " << k << " index " << idx;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST_P(MlpGradientCheck, InputGradientMatchesFiniteDifferences) {
  Rng rng(9);
  Mlp mlp({3, 6, 2}, GetParam(), rng);
  Matrix x = Matrix::randn(2, 3, rng, 0.7);
  Matrix c = Matrix::randn(2, 2, rng, 1.0);

  mlp.forward(x);
  const Matrix gin = mlp.backward(c);

  const double eps = 1e-6;
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      Matrix xp = x, xm = x;
      xp(i, j) += eps;
      xm(i, j) -= eps;
      const double fd =
          (weighted_output_sum(mlp, xp, c) - weighted_output_sum(mlp, xm, c)) / (2 * eps);
      EXPECT_NEAR(gin(i, j), fd, 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradientCheck,
                         ::testing::Values(Activation::ReLU, Activation::Tanh,
                                           Activation::Identity));

TEST(Mlp, SoftUpdateBlendsParameters) {
  Rng rng(5);
  Mlp a({2, 3, 1}, Activation::ReLU, rng);
  Mlp b({2, 3, 1}, Activation::ReLU, rng);
  Mlp a0 = a;
  a.soft_update_from(b, 0.25);
  const auto pa = a.params();
  const auto pa0 = a0.params();
  const auto pb = b.params();
  for (std::size_t k = 0; k < pa.size(); ++k) {
    for (std::size_t i = 0; i < pa[k]->size(); ++i) {
      EXPECT_NEAR(pa[k]->data()[i],
                  0.75 * pa0[k]->data()[i] + 0.25 * pb[k]->data()[i], 1e-12);
    }
  }
}

TEST(Mlp, SoftUpdateShapeMismatchThrows) {
  Rng rng(5);
  Mlp a({2, 3, 1}, Activation::ReLU, rng);
  Mlp b({2, 4, 1}, Activation::ReLU, rng);
  EXPECT_THROW(a.soft_update_from(b, 0.1), std::invalid_argument);
}

TEST(Mlp, SaveLoadRoundTrip) {
  Rng rng(11);
  Mlp mlp({3, 5, 2}, Activation::Tanh, rng);
  BinaryWriter w;
  mlp.save(w);
  BinaryReader r(w.bytes());
  Mlp loaded = Mlp::load(r);
  Matrix x = Matrix::randn(3, 3, rng, 1.0);
  const Matrix a = mlp.forward_inference(x);
  const Matrix b = loaded.forward_inference(x);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
  }
}

TEST(Mlp, HiddenActivationsExposedForPnn) {
  Rng rng(13);
  Mlp mlp({2, 4, 3, 1}, Activation::ReLU, rng);
  Matrix x = Matrix::randn(2, 2, rng, 1.0);
  mlp.forward(x);
  EXPECT_EQ(mlp.hidden(0).cols(), 4);
  EXPECT_EQ(mlp.hidden(1).cols(), 3);
  EXPECT_THROW(mlp.hidden(2), std::out_of_range);
}

TEST(Mlp, ReluClampsNegativePreactivations) {
  Rng rng(1);
  Mlp mlp({1, 2, 1}, Activation::ReLU, rng);
  Matrix x(1, 1);
  x(0, 0) = 100.0;
  mlp.forward(x);
  const Matrix& h = mlp.hidden(0);
  for (int j = 0; j < h.cols(); ++j) EXPECT_GE(h(0, j), 0.0);
}

}  // namespace
}  // namespace adsec
