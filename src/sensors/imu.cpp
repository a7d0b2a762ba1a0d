#include "sensors/imu.hpp"

#include <stdexcept>

#include "common/angle.hpp"

namespace adsec {

ImuSensor::ImuSensor(const ImuConfig& config, std::uint64_t noise_seed)
    : config_(config), noise_seed_(noise_seed), rng_(noise_seed) {
  if (config.window_steps < 1) {
    throw std::invalid_argument("ImuSensor: window_steps must be >= 1");
  }
  accel_.assign(static_cast<std::size_t>(config.window_steps), 0.0);
  gyro_.assign(static_cast<std::size_t>(config.window_steps), 0.0);
}

void ImuSensor::reset(const World& world) {
  std::fill(accel_.begin(), accel_.end(), 0.0);
  std::fill(gyro_.begin(), gyro_.end(), 0.0);
  head_ = 0;
  rng_ = Rng(noise_seed_);
  prev_speed_ = world.ego().state().speed;
  prev_heading_ = world.ego().state().heading;
  has_prev_ = true;
}

void ImuSensor::update(const World& world) {
  const double dt = world.config().dt;
  const double speed = world.ego().state().speed;
  const double heading = world.ego().state().heading;

  double accel = 0.0, yaw_rate = 0.0;
  if (has_prev_) {
    accel = (speed - prev_speed_) / dt;
    yaw_rate = angle_diff(heading, prev_heading_) / dt;
  }
  prev_speed_ = speed;
  prev_heading_ = heading;
  has_prev_ = true;

  accel += rng_.normal(0.0, config_.accel_noise);
  yaw_rate += rng_.normal(0.0, config_.gyro_noise);

  accel_[static_cast<std::size_t>(head_)] = accel / config_.accel_scale;
  gyro_[static_cast<std::size_t>(head_)] = yaw_rate / config_.gyro_scale;
  head_ = (head_ + 1) % config_.window_steps;
}

std::vector<double> ImuSensor::observation() const {
  std::vector<double> obs;
  obs.reserve(static_cast<std::size_t>(dim()));
  const int w = config_.window_steps;
  for (int i = 0; i < w; ++i) obs.push_back(accel_[static_cast<std::size_t>((head_ + i) % w)]);
  for (int i = 0; i < w; ++i) obs.push_back(gyro_[static_cast<std::size_t>((head_ + i) % w)]);
  return obs;
}

}  // namespace adsec
