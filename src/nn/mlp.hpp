// Multi-layer perceptron with hand-rolled backprop, plus the `Trunk`
// interface that lets a Gaussian policy head sit on either a plain MLP or a
// progressive-network column stack (nn/pnn.hpp).
//
// Forward/backward are destination-passing: they return const references to
// internal buffers that are resized in place, so a steady-state training
// loop (fixed batch shape) performs zero heap allocations here. The
// returned references are invalidated by the next forward/backward call on
// the same network.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "nn/matrix.hpp"
#include "nn/workspace.hpp"

namespace adsec {

// Feature-extractor interface used by policy/critic heads.
class Trunk {
 public:
  virtual ~Trunk() = default;

  // Training-mode forward: caches intermediates for a following backward().
  // The returned buffer lives until the next forward()/backward().
  virtual const Matrix& forward(const Matrix& x) = 0;

  // Inference-only forward into a caller buffer: no caching, no allocation
  // at steady state (scratch comes from the thread-local workspace), usable
  // on a const object from parallel-eval workers.
  virtual void forward_inference_into(const Matrix& x, Matrix& out) const = 0;

  // Allocating convenience wrapper over forward_inference_into.
  Matrix forward_inference(const Matrix& x) const {
    Matrix out;
    forward_inference_into(x, out);
    return out;
  }

  // Backprop: accumulates parameter grads, returns grad w.r.t. the input
  // (valid until the next forward()/backward()).
  virtual const Matrix& backward(const Matrix& grad_out) = 0;

  virtual void zero_grad() = 0;
  virtual std::vector<Matrix*> params() = 0;
  virtual std::vector<Matrix*> grads() = 0;

  virtual int in_dim() const = 0;
  virtual int out_dim() const = 0;
  virtual std::unique_ptr<Trunk> clone() const = 0;
  virtual void save(BinaryWriter& w) const = 0;
};

class Mlp : public Trunk {
 public:
  Mlp() = default;

  // `dims` = {in, hidden..., out}; hidden layers use `hidden_act`, the output
  // layer is linear.
  Mlp(std::vector<int> dims, Activation hidden_act, Rng& rng);

  const Matrix& forward(const Matrix& x) override;
  void forward_inference_into(const Matrix& x, Matrix& out) const override;
  const Matrix& backward(const Matrix& grad_out) override;

  void zero_grad() override;
  std::vector<Matrix*> params() override;
  std::vector<Matrix*> grads() override;

  int in_dim() const override { return dims_.empty() ? 0 : dims_.front(); }
  int out_dim() const override { return dims_.empty() ? 0 : dims_.back(); }
  int num_layers() const { return static_cast<int>(weights_.size()); }
  const std::vector<int>& dims() const { return dims_; }
  Activation hidden_activation() const { return act_; }

  // Post-activation output of hidden layer `l` (0-based) from the most
  // recent training-mode forward. Consumed by PNN lateral connections.
  const Matrix& hidden(int l) const;

  // Weights of layer l (in x out) — read access for PNN initialization.
  const Matrix& weight(int l) const { return weights_[static_cast<std::size_t>(l)]; }
  const Matrix& bias(int l) const { return biases_[static_cast<std::size_t>(l)]; }

  std::unique_ptr<Trunk> clone() const override;

  void save(BinaryWriter& w) const override;
  static Mlp load(BinaryReader& r);

  // Polyak blend toward another MLP of identical shape (target networks):
  // param := (1 - tau) * param + tau * other.param.
  void soft_update_from(const Mlp& other, double tau);

 private:
  std::vector<int> dims_;
  Activation act_{Activation::ReLU};
  std::vector<Matrix> weights_;  // layer l: dims[l] x dims[l+1]
  std::vector<Matrix> biases_;   // 1 x dims[l+1]
  std::vector<Matrix> w_grads_;
  std::vector<Matrix> b_grads_;

  // Forward cache, resized in place each training forward. The input to
  // layer l is in0_ for l == 0 and hiddens_[l-1] otherwise.
  Matrix in0_;
  std::vector<Matrix> hiddens_;  // post-activation hidden outputs
  Matrix out_;                   // final linear output
  bool cached_{false};

  // Backward scratch: gradient ping-pong buffers + returned input grad.
  Matrix gbuf_a_;
  Matrix gbuf_b_;
};

}  // namespace adsec
