// IMU substitute (paper Sec. IV-C).
//
// A triaxial IMU mounted at the ego's center records the vehicle's inertial
// motion: forward acceleration (x axis) and yaw rate (z axis). The paper
// feeds the attacker a 3.2 s trace at 20 sps of the x and z channels; here
// each 0.1 s simulator tick contributes one sample (10 sps), so the same
// 3.2 s window is 32 samples x 2 channels = 64 values. The y (lateral) axis
// "provides limited information about steering characteristics" per the
// paper and is likewise omitted.
//
// Crucially, the IMU observes only the ego's own motion — never the NPCs —
// which is why the IMU-based attacker needs the learning-from-teacher
// scheme to identify safety-critical moments.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "sim/world.hpp"

namespace adsec {

struct ImuConfig {
  int window_steps = 32;      // 3.2 s at one sample per 0.1 s tick
  double accel_noise = 0.05;  // stdev, m/s^2
  double gyro_noise = 0.01;   // stdev, rad/s
  double accel_scale = 8.0;   // normalization divisor for accel samples
  double gyro_scale = 1.0;    // normalization divisor for gyro samples
};

class ImuSensor {
 public:
  explicit ImuSensor(const ImuConfig& config = {}, std::uint64_t noise_seed = 7);

  // Call once per simulator tick *after* World::step. The first call after
  // reset seeds the differentiator.
  void update(const World& world);

  // Flattened window: [accel_0..accel_{w-1}, gyro_0..gyro_{w-1}], oldest
  // first, normalized.
  std::vector<double> observation() const;

  // Clears the window and restarts the noise stream from its construction
  // seed, so an episode's readings depend only on that episode.
  void reset(const World& world);

  int dim() const { return 2 * config_.window_steps; }
  const ImuConfig& config() const { return config_; }

 private:
  ImuConfig config_;
  std::uint64_t noise_seed_;
  Rng rng_;
  double prev_speed_{0.0};
  double prev_heading_{0.0};
  bool has_prev_{false};
  std::vector<double> accel_;  // ring buffers, index head_ = oldest
  std::vector<double> gyro_;
  int head_{0};
};

}  // namespace adsec
