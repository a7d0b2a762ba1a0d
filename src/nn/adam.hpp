// Adam optimizer over a set of parameter/gradient matrix pairs.
#pragma once

#include <vector>

#include "common/serialize.hpp"
#include "nn/matrix.hpp"

namespace adsec {

struct AdamConfig {
  double lr = 3e-4;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double grad_clip = 10.0;  // global-norm clip; <= 0 disables
};

class Adam {
 public:
  // `params` and `grads` are parallel non-owning views; the referenced
  // matrices must outlive the optimizer and keep their shapes.
  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
       const AdamConfig& config = {});

  // Apply one update from the accumulated gradients, then zero them.
  // Returns `carry` plus the gradients' pre-clip sum of squares, accumulated
  // in parameter order onto `carry`. Chaining steps, as in
  // `std::sqrt(b.step(a.step()))`, gives the global norm over both
  // optimizers' gradients with the bits of one serial loop over them.
  double step(double carry = 0.0);

  void set_lr(double lr) { config_.lr = lr; }
  double lr() const { return config_.lr; }

  // Checkpoint the optimizer trajectory: step count, current lr (which the
  // divergence guard may have backed off), and both moment estimates.
  // restore() requires the moment shapes to match this optimizer's params
  // and throws adsec::Error{Corrupt} otherwise.
  void save(BinaryWriter& w) const;
  void restore(BinaryReader& r);

 private:
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  AdamConfig config_;
  long t_{0};
};

}  // namespace adsec
