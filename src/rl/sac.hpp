// Soft Actor-Critic (Haarnoja et al., 2018) — the DRL algorithm the paper
// uses for BOTH sides: the end-to-end driving policy pi_v (Sec. III-C) and
// the adversarial policies pi_adv (Sec. IV-E).
//
// Twin Q critics with Polyak-averaged targets, a tanh-Gaussian actor, and
// automatic entropy-temperature tuning toward a target entropy of -|A|.
#pragma once

#include <memory>

#include "nn/adam.hpp"
#include "nn/gaussian_policy.hpp"
#include "rl/replay.hpp"

namespace adsec {

struct SacConfig {
  std::vector<int> actor_hidden{64, 64};
  std::vector<int> critic_hidden{64, 64};
  double gamma = 0.99;
  double tau = 0.01;  // Polyak rate for target critics
  double actor_lr = 1e-3;
  double critic_lr = 1e-3;
  double alpha_lr = 1e-3;
  double init_alpha = 0.1;
  bool auto_alpha = true;
  double target_entropy = 0.0;  // 0 => use -act_dim
  int batch_size = 64;

  // Skip actor/temperature updates for the first N update() calls so that
  // fresh critics stabilize before they steer a (possibly pre-trained)
  // actor — important when fine-tuning from a behaviour-cloned policy.
  int actor_delay_updates = 0;
};

class Sac {
 public:
  // Fresh actor and critics.
  Sac(int obs_dim, int act_dim, const SacConfig& config, Rng& rng);

  // Continue training from an existing actor (adversarial fine-tuning /
  // PNN column training). Critics are fresh.
  Sac(GaussianPolicy actor, const SacConfig& config, Rng& rng);

  // Sample an action for environment interaction (stochastic), or the
  // deterministic mean action for evaluation.
  std::vector<double> act(std::span<const double> obs, Rng& rng,
                          bool deterministic = false) const;

  // One gradient update (critics, actor, temperature, target sync) from a
  // uniformly sampled minibatch. No-op if the buffer is smaller than the
  // batch size.
  void update(const ReplayBuffer& buffer, Rng& rng);

  GaussianPolicy& actor() { return actor_; }
  const GaussianPolicy& actor() const { return actor_; }
  double alpha() const { return std::exp(log_alpha_); }
  long updates_done() const { return updates_; }

  // Diagnostics from the most recent update. Grad norms are the global L2
  // norm over all parameter gradients right before the optimizer step (the
  // actor norm stays at its previous value while actor updates are delayed).
  double last_critic_loss() const { return last_critic_loss_; }
  double last_actor_loss() const { return last_actor_loss_; }
  double last_critic_grad_norm() const { return last_critic_grad_norm_; }
  double last_actor_grad_norm() const { return last_actor_grad_norm_; }

  // Checkpoint the complete trainer-visible state: actor and critic weights
  // (including Polyak targets), all three Adam optimizers' moments and step
  // counts, the entropy temperature, and the update counter. restore()
  // copies weights INTO the existing networks of a Sac built from the same
  // config — the optimizers keep their parameter pointers — and throws
  // adsec::Error{Corrupt} on any architecture mismatch.
  void save(BinaryWriter& w) const;
  void restore(BinaryReader& r);

  // Multiply the actor and critic learning rates by `s` (divergence-guard
  // backoff). The scaled rates persist through save()/restore().
  void scale_lr(double s);

  // False if any actor/critic parameter or last loss is NaN/Inf — the
  // divergence guard's health probe. (Non-const: parameter access goes
  // through Trunk::params().)
  bool state_finite();

 private:
  void init(int obs_dim, int act_dim, Rng& rng);

  SacConfig config_;
  GaussianPolicy actor_;
  Mlp q1_, q2_, q1_target_, q2_target_;
  std::unique_ptr<Adam> actor_opt_;
  std::unique_ptr<Adam> q1_opt_, q2_opt_;
  double log_alpha_{0.0};
  double target_entropy_{-1.0};
  long updates_{0};
  double last_critic_loss_{0.0};
  double last_actor_loss_{0.0};
  double last_critic_grad_norm_{0.0};
  double last_actor_grad_norm_{0.0};

  // update() scratch, resized in place: once the batch shape is warm a
  // steady-state update performs zero heap allocations in the matmul path.
  struct Scratch {
    Batch batch;
    PolicySample next;
    Matrix qin_next, q1n, q2n, y;
    Matrix qin, grad;
    Matrix qin_pi, g1, g2;
    Matrix dL_da, dL_dlogp;
  };
  Scratch scratch_;
  // act() staging, reused across calls (act is logically const but not
  // safe to call concurrently on one instance — same as update()).
  mutable Matrix act_obs_;
  mutable Matrix act_mean_;
  mutable PolicySample act_sample_;
};

}  // namespace adsec
