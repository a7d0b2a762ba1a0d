#include "attack/attacker.hpp"

#include <cmath>
#include <stdexcept>

#include "common/angle.hpp"

namespace adsec {

LearnedCameraAttacker::LearnedCameraAttacker(GaussianPolicy policy, double budget,
                                             const CameraConfig& camera, int frame_stack)
    : policy_(std::move(policy)), observer_(camera, frame_stack), budget_(budget) {
  if (policy_.obs_dim() != observer_.dim()) {
    throw std::invalid_argument("LearnedCameraAttacker: obs dim mismatch");
  }
  if (policy_.act_dim() != 1) {
    throw std::invalid_argument("LearnedCameraAttacker: attacker outputs one delta");
  }
}

void LearnedCameraAttacker::reset(const World& world) { observer_.reset(world); }

double LearnedCameraAttacker::decide(const World& world) {
  obs_mat_.resize(1, observer_.dim());
  observer_.observe_into(world, obs_mat_.row(0));
  policy_.mean_action_into(obs_mat_, act_mat_);
  return budget_ * clamp(act_mat_(0, 0), -1.0, 1.0);
}

DeterministicCameraAttacker::DeterministicCameraAttacker(Mlp policy, double budget,
                                                         const CameraConfig& camera,
                                                         int frame_stack)
    : policy_(std::move(policy)), observer_(camera, frame_stack), budget_(budget) {
  if (policy_.in_dim() != observer_.dim() || policy_.out_dim() != 1) {
    throw std::invalid_argument("DeterministicCameraAttacker: policy dims mismatch");
  }
}

void DeterministicCameraAttacker::reset(const World& world) { observer_.reset(world); }

double DeterministicCameraAttacker::decide(const World& world) {
  obs_mat_.resize(1, observer_.dim());
  observer_.observe_into(world, obs_mat_.row(0));
  policy_.forward_inference_into(obs_mat_, act_mat_);
  return budget_ * std::tanh(act_mat_(0, 0));
}

LearnedImuAttacker::LearnedImuAttacker(GaussianPolicy policy, double budget,
                                       const ImuConfig& imu)
    : policy_(std::move(policy)), imu_(imu), budget_(budget) {
  if (policy_.obs_dim() != imu_.dim()) {
    throw std::invalid_argument("LearnedImuAttacker: obs dim mismatch");
  }
  if (policy_.act_dim() != 1) {
    throw std::invalid_argument("LearnedImuAttacker: attacker outputs one delta");
  }
}

void LearnedImuAttacker::reset(const World& world) { imu_.reset(world); }

double LearnedImuAttacker::decide(const World& world) {
  (void)world;  // the IMU attacker sees only its inertial window
  row_into(obs_mat_, imu_.observation());
  policy_.mean_action_into(obs_mat_, act_mat_);
  return budget_ * clamp(act_mat_(0, 0), -1.0, 1.0);
}

void LearnedImuAttacker::post_step(const World& world) { imu_.update(world); }

}  // namespace adsec
