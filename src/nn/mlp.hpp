// Multi-layer perceptron with hand-rolled backprop, plus the `Trunk`
// interface that lets a Gaussian policy head sit on either a plain MLP or a
// progressive-network column stack (nn/pnn.hpp).
//
// forward() and input_grad() are destination-passing: they return const
// references to internal buffers that are resized in place, so a
// steady-state training loop (fixed batch shape) performs zero heap
// allocations here. A returned reference is invalidated by the next call
// of the same method on the same network.
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

  // Training-mode forward: caches intermediates for the backward passes
  // below. The returned buffer lives until the next forward().
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

  // The two backward passes over the last forward(); each runs only the
  // products its caller reads.
  //
  // backward() accumulates parameter gradients (training) and stops there:
  // the layer-0 input gradient is never formed.
  virtual void backward(const Matrix& grad_out) = 0;

  // input_grad() returns the gradient w.r.t. input columns
  // [first_col, in_dim()) — batch x (in_dim() - first_col) — and leaves the
  // parameter gradients untouched (differentiating through a network
  // without training it: the actor step through a critic, FGSM probes).
  // The result lives until the next input_grad() on this network.
  virtual const Matrix& input_grad(const Matrix& grad_out, int first_col) = 0;

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
  void backward(const Matrix& grad_out) override;
  const Matrix& input_grad(const Matrix& grad_out, int first_col) override;

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
  // Shared descent of both backward passes: the gradient w.r.t. layer 0's
  // pre-activation output. With `param_grads`, the layers above 0
  // accumulate their parameter gradients on the way down.
  const Matrix& layer0_delta(const Matrix& grad_out, bool param_grads);

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

  // Backward scratch: gradient ping-pong buffers, and input_grad()'s result.
  Matrix gbuf_a_;
  Matrix gbuf_b_;
  Matrix gin_;
};

}  // namespace adsec
