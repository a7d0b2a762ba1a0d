#include "agents/e2e_agent.hpp"

#include <stdexcept>

namespace adsec {

E2EAgent::E2EAgent(GaussianPolicy policy, const CameraConfig& camera_config,
                   int frame_stack, std::string name)
    : policy_(std::move(policy)),
      observer_(camera_config, frame_stack),
      name_(std::move(name)) {
  if (policy_.obs_dim() != observer_.dim()) {
    throw std::invalid_argument("E2EAgent: policy obs_dim != camera observation dim");
  }
  if (policy_.act_dim() != 2) {
    throw std::invalid_argument("E2EAgent: policy must output [nu, gamma]");
  }
}

void E2EAgent::reset(const World& world) { observer_.reset(world); }

Action E2EAgent::decide(const World& world) {
  obs_mat_.resize(1, observer_.dim());
  observer_.observe_into(world, obs_mat_.row(0));
  policy_.mean_action_into(obs_mat_, act_mat_);
  Action act;
  act.steer_variation = act_mat_(0, 0);
  act.thrust_variation = act_mat_(0, 1);
  return act;
}

}  // namespace adsec
