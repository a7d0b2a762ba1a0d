#include "nn/pnn.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

namespace adsec {
namespace {

Mlp base_net(Rng& rng) { return Mlp({4, 8, 6, 2}, Activation::ReLU, rng); }

TEST(Pnn, WarmStartReproducesBaseExactly) {
  Rng rng(3);
  Mlp base = base_net(rng);
  PnnTrunk pnn(base, /*init_from_base=*/true, rng);
  Matrix x = Matrix::randn(5, 4, rng, 1.0);
  const Matrix yb = base.forward_inference(x);
  const Matrix yp = pnn.forward_inference(x);
  for (int i = 0; i < yb.rows(); ++i) {
    for (int j = 0; j < yb.cols(); ++j) EXPECT_NEAR(yp(i, j), yb(i, j), 1e-12);
  }
}

TEST(Pnn, RandomInitDiffersFromBase) {
  Rng rng(3);
  Mlp base = base_net(rng);
  PnnTrunk pnn(base, /*init_from_base=*/false, rng);
  Matrix x = Matrix::randn(3, 4, rng, 1.0);
  const Matrix yb = base.forward_inference(x);
  const Matrix yp = pnn.forward_inference(x);
  bool differs = false;
  for (int i = 0; i < yb.rows(); ++i) {
    for (int j = 0; j < yb.cols(); ++j) differs |= std::abs(yp(i, j) - yb(i, j)) > 1e-9;
  }
  EXPECT_TRUE(differs);
}

TEST(Pnn, TrainingNeverTouchesBaseColumn) {
  Rng rng(5);
  Mlp base = base_net(rng);
  const Mlp base_copy = base;
  PnnTrunk pnn(base, true, rng);

  // A few "training" steps on the column parameters.
  Matrix x = Matrix::randn(4, 4, rng, 1.0);
  Matrix g = Matrix::randn(4, 2, rng, 1.0);
  for (int it = 0; it < 3; ++it) {
    pnn.zero_grad();
    pnn.forward(x);
    pnn.backward(g);
    auto params = pnn.params();
    auto grads = pnn.grads();
    for (std::size_t k = 0; k < params.size(); ++k) {
      params[k]->axpy_inplace(-0.01, *grads[k]);
    }
  }

  // The frozen column still computes exactly what the original base did.
  Matrix probe = Matrix::randn(2, 4, rng, 1.0);
  const Matrix y0 = base_copy.forward_inference(probe);
  const Matrix y1 = pnn.base().forward_inference(probe);
  for (int i = 0; i < y0.rows(); ++i) {
    for (int j = 0; j < y0.cols(); ++j) EXPECT_DOUBLE_EQ(y1(i, j), y0(i, j));
  }
  // ...and training moved the column output away from the base output.
  const Matrix yp = pnn.forward_inference(probe);
  bool moved = false;
  for (int i = 0; i < y0.rows(); ++i) {
    for (int j = 0; j < y0.cols(); ++j) moved |= std::abs(yp(i, j) - y0(i, j)) > 1e-9;
  }
  EXPECT_TRUE(moved);
}

TEST(Pnn, GradientMatchesFiniteDifferences) {
  Rng rng(7);
  Mlp base({3, 5, 2}, Activation::Tanh, rng);
  PnnTrunk pnn(base, false, rng);
  Matrix x = Matrix::randn(3, 3, rng, 0.8);
  Matrix c = Matrix::randn(3, 2, rng, 1.0);

  auto loss = [&]() {
    const Matrix y = pnn.forward_inference(x);
    double L = 0.0;
    for (int i = 0; i < y.rows(); ++i) {
      for (int j = 0; j < y.cols(); ++j) L += c(i, j) * y(i, j);
    }
    return L;
  };

  pnn.zero_grad();
  pnn.forward(x);
  pnn.backward(c);
  auto params = pnn.params();
  auto grads = pnn.grads();
  const double eps = 1e-6;
  for (std::size_t k = 0; k < params.size(); ++k) {
    Matrix& p = *params[k];
    for (std::size_t idx = 0; idx < p.size(); idx += std::max<std::size_t>(1, p.size() / 4)) {
      const double orig = p.data()[idx];
      p.data()[idx] = orig + eps;
      const double lp = loss();
      p.data()[idx] = orig - eps;
      const double lm = loss();
      p.data()[idx] = orig;
      EXPECT_NEAR(grads[k]->data()[idx], (lp - lm) / (2 * eps), 1e-5);
    }
  }

  // input_grad differentiates the column's own path and holds the frozen
  // column's hiddens constant. With the lateral slices zeroed, x reaches the
  // output through the own path alone, so finite differences must agree.
  const int L = base.num_layers();
  for (int l = 1; l < L; ++l) {
    Matrix& w = *params[static_cast<std::size_t>(l)];
    for (int i = w.rows() / 2; i < w.rows(); ++i) {  // own and lateral halves are equal
      for (int j = 0; j < w.cols(); ++j) w(i, j) = 0.0;
    }
  }
  pnn.forward(x);
  const Matrix gin = pnn.input_grad(c, 0);
  ASSERT_EQ(gin.rows(), x.rows());
  ASSERT_EQ(gin.cols(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      const double orig = x(i, j);
      x(i, j) = orig + eps;
      const double lp = loss();
      x(i, j) = orig - eps;
      const double lm = loss();
      x(i, j) = orig;
      EXPECT_NEAR(gin(i, j), (lp - lm) / (2 * eps), 1e-5);
    }
  }
}

// ---- Bit parity of the two backward passes against one full pass ---------
//
// The reference recomputes the forward with the trunk's own kernel calls and
// runs the combined backward the two passes replace: full input-gradient
// products at every layer, the lateral slice dropped after the fact. The
// split passes compute only the kept columns (the own-column slice of each
// hidden layer, the requested observation columns at layer 0) and must
// match it bit for bit.

struct PnnFullBackward {
  std::vector<Matrix> w_grads, b_grads;
  Matrix input_grad;
};

PnnFullBackward reference_backward(PnnTrunk& pnn, const Matrix& x, const Matrix& grad_out) {
  const Mlp& base = pnn.base();
  const auto params = pnn.params();  // weights, then biases
  const int L = base.num_layers();
  const auto ul = [](int l) { return static_cast<std::size_t>(l); };
  const Activation act = base.hidden_activation();

  std::vector<Matrix> base_h(ul(L - 1)), inputs(ul(L)), out(ul(L));
  const Matrix* h = &x;
  for (int l = 0; l + 1 < L; ++l) {
    linear_forward_into(base_h[ul(l)], *h, base.weight(l), base.bias(l), act);
    h = &base_h[ul(l)];
  }
  inputs[0] = x;
  for (int l = 0; l < L; ++l) {
    if (l > 0) hconcat_into(inputs[ul(l)], out[ul(l - 1)], base_h[ul(l - 1)]);
    linear_forward_into(out[ul(l)], inputs[ul(l)], *params[ul(l)], *params[ul(L + l)],
                        l + 1 == L ? Activation::Identity : act);
  }

  PnnFullBackward r;
  r.w_grads.resize(ul(L));
  r.b_grads.resize(ul(L));
  Matrix cur = grad_out, full;
  for (int l = L - 1; l >= 0; --l) {
    if (l < L - 1) apply_activation_grad(act, out[ul(l)], cur);
    r.w_grads[ul(l)] = Matrix(inputs[ul(l)].cols(), cur.cols());
    r.b_grads[ul(l)] = Matrix(1, cur.cols());
    matmul_tn_into(r.w_grads[ul(l)], inputs[ul(l)], cur, /*accumulate=*/true);
    column_sum_into(r.b_grads[ul(l)], cur, /*accumulate=*/true);
    matmul_nt_into(full, cur, *params[ul(l)]);
    if (l == 0) {
      r.input_grad = full;
    } else {
      const int own = out[ul(l - 1)].cols();
      cur = Matrix(full.rows(), own);
      for (int i = 0; i < full.rows(); ++i) {
        for (int j = 0; j < own; ++j) cur(i, j) = full(i, j);
      }
    }
  }
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

struct PnnSplitShape {
  std::vector<int> dims;  // the frozen base column's layer widths
  int batch;
  int act_dim;  // input_grad is also checked from column in_dim - act_dim
};

// Names the instantiated tests by shape, e.g. "13-7-5-3_batch3".
void PrintTo(const PnnSplitShape& shape, std::ostream* os) {
  for (std::size_t l = 0; l < shape.dims.size(); ++l) *os << (l ? "-" : "") << shape.dims[l];
  *os << "_batch" << shape.batch;
}

class PnnBackwardSplit : public ::testing::TestWithParam<PnnSplitShape> {};

TEST_P(PnnBackwardSplit, PassesMatchFullBackwardBitForBit) {
  const PnnSplitShape& shape = GetParam();
  Rng rng(19);
  Mlp base(shape.dims, Activation::ReLU, rng);
  // Random init: nonzero lateral weights, so the dropped slice is real work.
  PnnTrunk pnn(base, /*init_from_base=*/false, rng);
  const Matrix x = Matrix::randn(shape.batch, pnn.in_dim(), rng, 1.0);
  const Matrix g = Matrix::randn(shape.batch, pnn.out_dim(), rng, 0.1);

  pnn.forward(x);
  const PnnFullBackward want = reference_backward(pnn, x, g);

  for (const int first_col : {0, pnn.in_dim() - shape.act_dim}) {
    expect_bits_equal(pnn.input_grad(g, first_col), want.input_grad, first_col,
                      "input_grad from column " + std::to_string(first_col));
  }
  for (const Matrix* pg : pnn.grads()) {
    for (std::size_t k = 0; k < pg->size(); ++k) ASSERT_EQ(pg->data()[k], 0.0);
  }

  pnn.backward(g);
  const auto grads = pnn.grads();  // weights, then biases
  const auto L = want.w_grads.size();
  for (std::size_t l = 0; l < L; ++l) {
    expect_bits_equal(*grads[l], want.w_grads[l], 0, "weight grad " + std::to_string(l));
    expect_bits_equal(*grads[L + l], want.b_grads[l], 0, "bias grad " + std::to_string(l));
  }
}

// The zoo actor's trunk at batch 64, and a batch-3 net on the GEMV path with
// ragged weight-gradient panels.
INSTANTIATE_TEST_SUITE_P(Shapes, PnnBackwardSplit,
                         ::testing::Values(PnnSplitShape{{267, 64, 64, 4}, 64, 2},
                                           PnnSplitShape{{13, 7, 5, 3}, 3, 2}));

TEST(Pnn, LateralConnectionsCarryBaseSignal) {
  // Zero the column's own-input slices; output must still vary with x via
  // the lateral connections from the frozen base.
  Rng rng(9);
  Mlp base({2, 4, 4, 1}, Activation::ReLU, rng);
  PnnTrunk pnn(base, false, rng);
  auto params = pnn.params();
  // params = weights then biases; zero layer-0 weight entirely so column 2's
  // own path sees nothing of x directly.
  params[0]->set_zero();
  Matrix x1(1, 2), x2(1, 2);
  x1(0, 0) = 1.0;
  x2(0, 0) = -1.0;
  const double y1 = pnn.forward_inference(x1)(0, 0);
  const double y2 = pnn.forward_inference(x2)(0, 0);
  EXPECT_NE(y1, y2);
}

TEST(Pnn, SaveLoadRoundTrip) {
  Rng rng(11);
  Mlp base({3, 6, 2}, Activation::ReLU, rng);
  PnnTrunk pnn(base, true, rng);
  BinaryWriter w;
  pnn.save(w);
  BinaryReader r(w.bytes());
  PnnTrunk loaded = PnnTrunk::load(r);
  Matrix x = Matrix::randn(4, 3, rng, 1.0);
  const Matrix a = pnn.forward_inference(x);
  const Matrix b = loaded.forward_inference(x);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
  }
}

TEST(Pnn, CloneIsIndependent) {
  Rng rng(13);
  Mlp base({2, 4, 2}, Activation::ReLU, rng);
  PnnTrunk pnn(base, true, rng);
  auto clone = pnn.clone();
  Matrix x = Matrix::randn(1, 2, rng, 1.0);
  const double before = clone->forward_inference(x)(0, 0);
  for (auto* p : pnn.params()) p->fill(0.1);
  EXPECT_DOUBLE_EQ(clone->forward_inference(x)(0, 0), before);
}

}  // namespace
}  // namespace adsec
