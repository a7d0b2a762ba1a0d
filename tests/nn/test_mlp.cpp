#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

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
  EXPECT_THROW(mlp.input_grad(g, 0), std::logic_error);
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
  const Matrix gin = mlp.input_grad(c, 0);
  const Matrix tail = mlp.input_grad(c, 1);  // columns 1.. only
  ASSERT_EQ(gin.cols(), 3);
  ASSERT_EQ(tail.cols(), 2);

  const double eps = 1e-6;
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      Matrix xp = x, xm = x;
      xp(i, j) += eps;
      xm(i, j) -= eps;
      const double fd =
          (weighted_output_sum(mlp, xp, c) - weighted_output_sum(mlp, xm, c)) / (2 * eps);
      EXPECT_NEAR(gin(i, j), fd, 1e-5);
      if (j >= 1) {
        EXPECT_NEAR(tail(i, j - 1), fd, 1e-5);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradientCheck,
                         ::testing::Values(Activation::ReLU, Activation::Tanh,
                                           Activation::Identity));

TEST(Mlp, InputGradRejectsBadFirstColumn) {
  Rng rng(3);
  Mlp mlp({2, 4, 1}, Activation::Tanh, rng);
  mlp.forward(Matrix(1, 2));
  Matrix g(1, 1);
  EXPECT_THROW(mlp.input_grad(g, -1), std::invalid_argument);
  EXPECT_THROW(mlp.input_grad(g, 3), std::invalid_argument);
  EXPECT_EQ(mlp.input_grad(g, 2).cols(), 0);
}

// ---- Bit parity of the two backward passes against one full pass ---------
//
// The reference is the combined backward the two passes replace, spelled
// out with the same kernels: per layer, parameter gradients accumulated
// into zeroed matrices, then the full input gradient through every layer.
// Every value the split passes keep must come out bit for bit the same.

struct FullBackward {
  std::vector<Matrix> w_grads, b_grads;
  Matrix input_grad;
};

FullBackward reference_backward(const Mlp& mlp, const Matrix& x, const Matrix& grad_out) {
  const int L = mlp.num_layers();
  FullBackward r;
  r.w_grads.resize(static_cast<std::size_t>(L));
  r.b_grads.resize(static_cast<std::size_t>(L));
  Matrix cur = grad_out, next;
  for (int l = L - 1; l >= 0; --l) {
    const auto ul = static_cast<std::size_t>(l);
    if (l < L - 1) apply_activation_grad(mlp.hidden_activation(), mlp.hidden(l), cur);
    const Matrix& input = l == 0 ? x : mlp.hidden(l - 1);
    r.w_grads[ul] = Matrix(input.cols(), cur.cols());
    r.b_grads[ul] = Matrix(1, cur.cols());
    matmul_tn_into(r.w_grads[ul], input, cur, /*accumulate=*/true);
    column_sum_into(r.b_grads[ul], cur, /*accumulate=*/true);
    matmul_nt_into(next, cur, mlp.weight(l));
    std::swap(cur, next);
  }
  r.input_grad = cur;
  return r;
}

// got == columns [first_col, ...) of want, compared as bit patterns.
void expect_bits_equal(const Matrix& got, const Matrix& want, int first_col,
                       const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols() - first_col) << what;
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      const double g = got(i, j), w = want(i, first_col + j);
      if (std::memcmp(&g, &w, sizeof(double)) != 0) {
        ADD_FAILURE() << what << ": (" << i << ", " << j << ") got " << g << " want " << w;
        return;
      }
    }
  }
}

struct SplitShape {
  std::vector<int> dims;
  int batch;
  int act_dim;  // input_grad is also checked from column in_dim - act_dim
};

// Names the instantiated tests by shape, e.g. "13-7-5-3_batch3".
void PrintTo(const SplitShape& shape, std::ostream* os) {
  for (std::size_t l = 0; l < shape.dims.size(); ++l) *os << (l ? "-" : "") << shape.dims[l];
  *os << "_batch" << shape.batch;
}

class MlpBackwardSplit : public ::testing::TestWithParam<SplitShape> {};

TEST_P(MlpBackwardSplit, PassesMatchFullBackwardBitForBit) {
  const SplitShape& shape = GetParam();
  Rng rng(17);
  Mlp mlp(shape.dims, Activation::ReLU, rng);
  const Matrix x = Matrix::randn(shape.batch, mlp.in_dim(), rng, 1.0);
  const Matrix g = Matrix::randn(shape.batch, mlp.out_dim(), rng, 0.1);

  mlp.forward(x);
  const FullBackward want = reference_backward(mlp, x, g);

  for (const int first_col : {0, mlp.in_dim() - shape.act_dim}) {
    expect_bits_equal(mlp.input_grad(g, first_col), want.input_grad, first_col,
                      "input_grad from column " + std::to_string(first_col));
  }
  for (const Matrix* pg : mlp.grads()) {
    for (std::size_t k = 0; k < pg->size(); ++k) ASSERT_EQ(pg->data()[k], 0.0);
  }

  mlp.backward(g);
  const auto grads = mlp.grads();  // weights, then biases
  const auto L = static_cast<std::size_t>(mlp.num_layers());
  for (std::size_t l = 0; l < L; ++l) {
    expect_bits_equal(*grads[l], want.w_grads[l], 0, "weight grad " + std::to_string(l));
    expect_bits_equal(*grads[L + l], want.b_grads[l], 0, "bias grad " + std::to_string(l));
  }
}

// The zoo's SAC critic (camera observation + action) and actor at batch 64,
// and a batch-3 net whose input-gradient products take the GEMV path and
// whose weight-gradient products have ragged panels.
INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpBackwardSplit,
    ::testing::Values(SplitShape{{269, 64, 64, 1}, 64, 2}, SplitShape{{267, 64, 64, 4}, 64, 2},
                      SplitShape{{13, 7, 5, 3}, 3, 2}));

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
