// Uniform-sampling replay buffer for off-policy RL (SAC).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "nn/matrix.hpp"

namespace adsec {

struct Batch {
  Matrix obs;       // B x obs_dim
  Matrix act;       // B x act_dim
  Matrix rew;       // B x 1
  Matrix next_obs;  // B x obs_dim
  Matrix done;      // B x 1 (1.0 = terminal)
};

class ReplayBuffer {
 public:
  ReplayBuffer(int capacity, int obs_dim, int act_dim);

  void add(std::span<const double> obs, std::span<const double> act, double rew,
           std::span<const double> next_obs, bool done);

  // Assemble a uniform minibatch into `out` with row-wise memcpy, resizing
  // its matrices in place — a caller that reuses one Batch across a gradient
  // burst triggers no heap allocations after the first call.
  void sample_into(int batch_size, Rng& rng, Batch& out) const;

  // Allocating convenience wrapper over sample_into.
  Batch sample(int batch_size, Rng& rng) const;

  int size() const { return size_; }
  int capacity() const { return capacity_; }
  void clear();

  // Checkpoint the buffer contents and ring position. While the buffer is
  // not yet full only the occupied prefix is written, so early checkpoints
  // stay small. restore() requires matching capacity/dims (it refills a
  // buffer constructed from the same TrainConfig) and throws
  // adsec::Error{Corrupt} otherwise.
  void save(BinaryWriter& w) const;
  void restore(BinaryReader& r);

 private:
  int capacity_;
  int obs_dim_;
  int act_dim_;
  int size_{0};
  int head_{0};
  // Row-major stores with capacity reserved up front; they hold exactly the
  // rows add() has written (size_ rows), so unwritten capacity stays
  // untouched memory.
  std::vector<double> obs_;
  std::vector<double> act_;
  std::vector<double> rew_;
  std::vector<double> next_obs_;
  std::vector<double> done_;
};

}  // namespace adsec
