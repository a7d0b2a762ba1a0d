#include "rl/replay.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/error.hpp"

namespace adsec {

ReplayBuffer::ReplayBuffer(int capacity, int obs_dim, int act_dim)
    : capacity_(capacity), obs_dim_(obs_dim), act_dim_(act_dim) {
  if (capacity < 1 || obs_dim < 1 || act_dim < 1) {
    throw std::invalid_argument("ReplayBuffer: bad dimensions");
  }
  // Reserved, not resized: the rows are appended as add() writes them, so
  // the pages of never-written capacity are never touched.
  obs_.reserve(static_cast<std::size_t>(capacity) * obs_dim);
  act_.reserve(static_cast<std::size_t>(capacity) * act_dim);
  rew_.reserve(static_cast<std::size_t>(capacity));
  next_obs_.reserve(static_cast<std::size_t>(capacity) * obs_dim);
  done_.reserve(static_cast<std::size_t>(capacity));
}

namespace {

// Writes row `row` of a row-major store: appended while the ring is still
// filling (then row is the current row count), overwritten once it wraps.
void put_row(std::vector<double>& v, int row, std::span<const double> x) {
  const auto at = static_cast<std::size_t>(row) * x.size();
  if (at == v.size()) {
    v.insert(v.end(), x.begin(), x.end());
  } else {
    std::copy(x.begin(), x.end(), v.begin() + static_cast<std::ptrdiff_t>(at));
  }
}

}  // namespace

void ReplayBuffer::add(std::span<const double> obs, std::span<const double> act,
                       double rew, std::span<const double> next_obs, bool done) {
  if (static_cast<int>(obs.size()) != obs_dim_ ||
      static_cast<int>(next_obs.size()) != obs_dim_ ||
      static_cast<int>(act.size()) != act_dim_) {
    throw std::invalid_argument("ReplayBuffer::add: dimension mismatch");
  }
  const double r[1] = {rew};
  const double d[1] = {done ? 1.0 : 0.0};
  put_row(obs_, head_, obs);
  put_row(act_, head_, act);
  put_row(next_obs_, head_, next_obs);
  put_row(rew_, head_, r);
  put_row(done_, head_, d);
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

void ReplayBuffer::sample_into(int batch_size, Rng& rng, Batch& b) const {
  if (size_ == 0) throw std::logic_error("ReplayBuffer::sample: buffer empty");
  b.obs.resize(batch_size, obs_dim_);
  b.act.resize(batch_size, act_dim_);
  b.rew.resize(batch_size, 1);
  b.next_obs.resize(batch_size, obs_dim_);
  b.done.resize(batch_size, 1);
  for (int i = 0; i < batch_size; ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(static_cast<std::uint32_t>(size_)));
    std::memcpy(b.obs.data() + static_cast<std::size_t>(i) * obs_dim_,
                obs_.data() + k * obs_dim_, sizeof(double) * obs_dim_);
    std::memcpy(b.act.data() + static_cast<std::size_t>(i) * act_dim_,
                act_.data() + k * act_dim_, sizeof(double) * act_dim_);
    std::memcpy(b.next_obs.data() + static_cast<std::size_t>(i) * obs_dim_,
                next_obs_.data() + k * obs_dim_, sizeof(double) * obs_dim_);
    b.rew(i, 0) = rew_[k];
    b.done(i, 0) = done_[k];
  }
}

Batch ReplayBuffer::sample(int batch_size, Rng& rng) const {
  Batch b;
  sample_into(batch_size, rng, b);
  return b;
}

void ReplayBuffer::clear() {
  size_ = 0;
  head_ = 0;
  for (auto* v : {&obs_, &act_, &rew_, &next_obs_, &done_}) v->clear();
}

void ReplayBuffer::save(BinaryWriter& w) const {
  w.write_string("replay");
  w.write_u32(static_cast<std::uint32_t>(capacity_));
  w.write_u32(static_cast<std::uint32_t>(obs_dim_));
  w.write_u32(static_cast<std::uint32_t>(act_dim_));
  w.write_u32(static_cast<std::uint32_t>(size_));
  w.write_u32(static_cast<std::uint32_t>(head_));
  // While size_ < capacity_ the ring has never wrapped (head_ == size_), so
  // the stores hold exactly rows [0, size_); once full, all rows are live.
  // Either way the stored rows capture the complete state.
  for (const auto* v : {&obs_, &act_, &rew_, &next_obs_, &done_}) w.write_f64_vector(*v);
}

void ReplayBuffer::restore(BinaryReader& r) {
  const std::string tag = r.read_string();
  if (tag != "replay") {
    throw Error(ErrorCode::Corrupt, "ReplayBuffer::restore: bad tag '" + tag + "'");
  }
  const auto capacity = static_cast<int>(r.read_u32());
  const auto obs_dim = static_cast<int>(r.read_u32());
  const auto act_dim = static_cast<int>(r.read_u32());
  const auto size = static_cast<int>(r.read_u32());
  const auto head = static_cast<int>(r.read_u32());
  if (capacity != capacity_ || obs_dim != obs_dim_ || act_dim != act_dim_) {
    throw Error(ErrorCode::Corrupt,
                "ReplayBuffer::restore: checkpoint buffer shape (" +
                    std::to_string(capacity) + ", " + std::to_string(obs_dim) + ", " +
                    std::to_string(act_dim) + ") does not match (" +
                    std::to_string(capacity_) + ", " + std::to_string(obs_dim_) + ", " +
                    std::to_string(act_dim_) + ")");
  }
  // A ring that has not wrapped writes its next row at `size`.
  if (size < 0 || size > capacity || head < 0 || head >= std::max(1, capacity) ||
      (size < capacity && head != size)) {
    throw Error(ErrorCode::Corrupt, "ReplayBuffer::restore: bad ring position");
  }
  auto read_rows = [&](std::vector<double>& dst, int row_dim) {
    const auto rows = r.read_f64_vector();
    if (rows.size() != static_cast<std::size_t>(size) * row_dim) {
      throw Error(ErrorCode::Corrupt, "ReplayBuffer::restore: row count mismatch");
    }
    dst.assign(rows.begin(), rows.end());
  };
  read_rows(obs_, obs_dim_);
  read_rows(act_, act_dim_);
  read_rows(rew_, 1);
  read_rows(next_obs_, obs_dim_);
  read_rows(done_, 1);
  size_ = size;
  head_ = head;
}

}  // namespace adsec
