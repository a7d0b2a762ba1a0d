// End-to-end DRL driving agent (paper Sec. III-C): a SAC-trained policy
// mapping stacked semantic-camera frames directly to actuation variations
// [nu, gamma]. At deployment the policy is fixed and deterministic (mean
// action), matching the paper's attack assumption of stationary victim
// dynamics.
#pragma once

#include "agents/agent.hpp"
#include "nn/gaussian_policy.hpp"
#include "sensors/camera.hpp"

namespace adsec {

class E2EAgent : public DrivingAgent {
 public:
  E2EAgent(GaussianPolicy policy, const CameraConfig& camera_config = {},
           int frame_stack = 3, std::string name = "e2e");

  void reset(const World& world) override;
  Action decide(const World& world) override;
  std::string name() const override { return name_; }

  const GaussianPolicy& policy() const { return policy_; }
  GaussianPolicy& policy() { return policy_; }
  int obs_dim() const { return observer_.dim(); }

 private:
  GaussianPolicy policy_;
  StackedCameraObserver observer_;
  std::string name_;
  Matrix obs_mat_, act_mat_;  // decide() staging, reused every control cycle
};

}  // namespace adsec
