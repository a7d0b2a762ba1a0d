// PNN-enhanced driving agent with a Simplex-style switcher (paper Sec. VI-B).
//
// Column 1 is the frozen original policy pi_ori; column 2 is a PNN column
// trained under attack. The switcher follows the paper's idealized
// assumption that the attack budget epsilon is known: it drives with pi_ori
// when epsilon <= sigma and with the adversarially trained column otherwise.
// (In practice the switcher input would be an attack-detection proxy; the
// bench harness feeds it the ground-truth budget, as in the paper.)
#pragma once

#include "agents/agent.hpp"
#include "defense/finetune.hpp"
#include "nn/gaussian_policy.hpp"
#include "sensors/camera.hpp"

namespace adsec {

class PnnSwitchedAgent : public DrivingAgent {
 public:
  PnnSwitchedAgent(GaussianPolicy original, GaussianPolicy pnn_column, double sigma,
                   const CameraConfig& camera = {}, int frame_stack = 3);

  void reset(const World& world) override;
  Action decide(const World& world) override;
  std::string name() const override;

  // Simplex switcher input: the (estimated) attack budget for this episode.
  void set_attack_budget_estimate(double eps) { budget_estimate_ = eps; }
  double sigma() const { return sigma_; }
  bool using_adversarial_column() const { return budget_estimate_ > sigma_; }

 private:
  GaussianPolicy original_;
  GaussianPolicy pnn_column_;
  StackedCameraObserver observer_;
  double sigma_;
  double budget_estimate_{0.0};
  Matrix obs_mat_, act_mat_;  // decide() staging, reused every control cycle
};

struct PnnTrainSpec {
  std::vector<double> budgets = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  SacConfig sac;
  TrainConfig train;
};

PnnTrainSpec default_pnn_spec();

// Train the second column: a PnnTrunk laterally connected to (and warm-
// started from) the original actor's trunk, SAC-trained entirely in
// adversarial episodes. The original's weights are frozen by construction.
GaussianPolicy train_pnn_column(const GaussianPolicy& original,
                                const GaussianPolicy& attacker,
                                const ScenarioConfig& scenario,
                                const PnnTrainSpec& spec);

}  // namespace adsec
