// Dense row-major matrix of doubles — the only tensor type the NN stack
// needs — plus the compute kernels every training loop bottoms out in.
//
// Two kernel tiers:
//   * The destination-passing `*_into` kernels are the hot path: register
//     and cache-blocked GEMM with packed panels, a GEMV fast path for the
//     1 x N inference shapes that dominate rollout stepping, and fused
//     bias+activation epilogues. They never allocate when the destination
//     already has the right capacity.
//   * `reference::` holds the plain triple-loop kernels. They are the
//     ground truth for the parity test suite and the old-vs-new
//     micro-benchmarks, not for production call sites.
// The allocating wrappers (matmul, linear_forward, ...) forward to the
// blocked kernels, so legacy call sites get the fast path too.
//
// The hot-path kernels are runtime-dispatched over SIMD tiers (scalar
// fallback, AVX2/FMA or AVX-512F/FMA; see nn/simd.hpp). Summation order is ascending-k
// everywhere (microkernel, GEMV path, and reference), with one chain per
// C element, so for k <= kKernelKc the blocked kernels are bit-identical
// to each other and to a row-batched forward WITHIN a tier; the scalar
// tier is additionally bit-identical to `reference::` in builds without
// FP contraction. See DESIGN.md "Compute kernels" and "SIMD dispatch &
// batched inference".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/aligned.hpp"

namespace adsec {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols);  // zero-initialized

  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols); }
  // He-style init scaled by 1/sqrt(fan_in); used for hidden layers.
  static Matrix randn(int rows, int cols, Rng& rng, double scale);
  static Matrix from_vector(const std::vector<double>& v);  // 1 x n row

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double& operator()(int r, int c) { return data_[idx(r, c)]; }
  double operator()(int r, int c) const { return data_[idx(r, c)]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::span<double> row(int r) { return {data_.data() + idx(r, 0), static_cast<std::size_t>(cols_)}; }
  std::span<const double> row(int r) const {
    return {data_.data() + idx(r, 0), static_cast<std::size_t>(cols_)};
  }

  // Reshape in place, reusing the existing heap block whenever the new
  // element count fits its capacity. Element values are unspecified after a
  // shape change (grown storage is zero-filled by vector::resize, but the
  // old elements do not keep their (r, c) positions).
  void resize(int rows, int cols);

  // Become a copy of `src` (resize + memcpy; no allocation at steady state).
  void copy_from(const Matrix& src);

  void fill(double v);
  void set_zero() { fill(0.0); }

  // this += other (same shape).
  void add_inplace(const Matrix& other);
  // this += scale * other.
  void axpy_inplace(double scale, const Matrix& other);
  void scale_inplace(double s);
  // this = keep * this + scale * other: two multiplies, then the add, never
  // fused (Polyak target updates).
  void blend_inplace(double keep, double scale, const Matrix& other);

  // Whether no element is infinite or NaN.
  bool all_finite() const;

  std::vector<double> to_vector() const { return {data_.begin(), data_.end()}; }

 private:
  std::size_t idx(int r, int c) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(c);
  }
  int rows_{0};
  int cols_{0};
  // 64-byte-aligned base regardless of shape, so the SIMD tiers can assume
  // vector-aligned packed panels and sanitizers can check the contract.
  AlignedVector data_;
};

// m = 1 x n row copy of v, reusing m's storage — the allocation-free
// counterpart of Matrix::from_vector for per-step observation staging.
void row_into(Matrix& m, std::span<const double> v);

// Hidden-layer nonlinearities. Lives here (not mlp.hpp) so the kernels can
// fuse the activation epilogue into the GEMM store.
enum class Activation { Identity, ReLU, Tanh };

// Apply activation / its derivative (as a function of the *pre*-activation z
// and post-activation h).
void apply_activation(Activation act, Matrix& z);
void apply_activation_grad(Activation act, const Matrix& h, Matrix& grad);

// K-panel size of the blocked kernels: for inner dimensions up to this the
// whole reduction happens in one packed pass (single summation chain).
inline constexpr int kKernelKc = 1024;

// ---- Destination-passing kernels (the hot path) ----------------------------
//
// Each writes `c` in place, resizing it unless `accumulate` is set (then `c`
// must already have the result shape and the product is added to it). `c`
// must not alias `a` or `b`. Shapes must agree; std::invalid_argument
// otherwise.

// C = A * B (+ C).
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate = false);

// C = A^T * B (+ C).
void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate = false);

// C = A * B^T (+ C).
void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate = false);

// C = A * B[row_begin:row_end)^T: columns row_begin..row_end-1 of A * B^T,
// from a contiguous row range of B. Each element runs the same ascending-k
// chain as in the full product, so the kept columns are bit-identical to
// matmul_nt_into's (backward passes use it to skip input-gradient columns
// nobody reads).
void matmul_nt_rows_into(Matrix& c, const Matrix& a, const Matrix& b, int row_begin,
                         int row_end);

// Y = act(X * W + 1 * b): GEMM with the bias broadcast and activation fused
// into the store epilogue (Y is touched once). b is 1 x out.
void linear_forward_into(Matrix& y, const Matrix& x, const Matrix& w, const Matrix& b,
                         Activation act = Activation::Identity);

// s (1 x cols) = or += column-sum of m (bias gradients).
void column_sum_into(Matrix& s, const Matrix& m, bool accumulate = false);

// c = [a | b] via row-wise memcpy (same row count).
void hconcat_into(Matrix& c, const Matrix& a, const Matrix& b);

// ---- Allocating wrappers (legacy call sites, cold paths) -------------------

// C = A * B. Shapes must agree; throws std::invalid_argument otherwise.
Matrix matmul(const Matrix& a, const Matrix& b);

// C = A^T * B.
Matrix matmul_tn(const Matrix& a, const Matrix& b);

// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

// Y = X * W + 1 * b   (b is 1 x out, broadcast over rows).
Matrix linear_forward(const Matrix& x, const Matrix& w, const Matrix& b);

// Column-sum of grad (for bias gradients): 1 x cols.
Matrix column_sum(const Matrix& m);

// Horizontal concat [a | b] (same row count).
Matrix hconcat(const Matrix& a, const Matrix& b);

// ---- Reference kernels -----------------------------------------------------
//
// Plain triple-loop implementations kept as the oracle for the GEMM parity
// suite and the old-vs-new benchmarks. Same shape checks as the fast path.
namespace reference {
Matrix matmul(const Matrix& a, const Matrix& b);
Matrix matmul_tn(const Matrix& a, const Matrix& b);
Matrix matmul_nt(const Matrix& a, const Matrix& b);
Matrix linear_forward(const Matrix& x, const Matrix& w, const Matrix& b);
Matrix column_sum(const Matrix& m);
}  // namespace reference

}  // namespace adsec
