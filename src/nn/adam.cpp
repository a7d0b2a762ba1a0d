#include "nn/adam.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/error.hpp"
#include "nn/kernel_table.hpp"

namespace adsec {

Adam::Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
           const AdamConfig& config)
    : params_(std::move(params)), grads_(std::move(grads)), config_(config) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Adam: params/grads count mismatch");
  }
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const Matrix* p = params_[k];
    if (grads_[k]->rows() != p->rows() || grads_[k]->cols() != p->cols()) {
      throw std::invalid_argument("Adam: params/grads shape mismatch");
    }
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
  }
}

double Adam::step(double carry) {
  ++t_;

  // One pass feeds two chains: the clip's from 0 and the caller's from
  // `carry`. They are independent, so the second adds no latency.
  double norm2 = 0.0;
  double chained = carry;
  for (const auto* g : grads_) {
    const double* __restrict gd = g->data();
    const std::size_t n = g->size();
    for (std::size_t i = 0; i < n; ++i) {
      const double sq = gd[i] * gd[i];
      norm2 += sq;
      chained += sq;
    }
  }
  if (config_.grad_clip > 0.0) {
    const double norm = std::sqrt(norm2);
    if (norm > config_.grad_clip) {
      const double s = config_.grad_clip / norm;
      for (auto* g : grads_) g->scale_inplace(s);
    }
  }

  // The per-parameter update (and the gradient reset) is the active SIMD
  // tier's kernel; every tier gives the same bits.
  const detail::KernelTable& kt = detail::active_kernel_table();
  const detail::AdamStep s{
      .b1 = config_.beta1,
      .b2 = config_.beta2,
      .bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_)),
      .bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_)),
      .lr = config_.lr,
      .eps = config_.eps};
  for (std::size_t k = 0; k < params_.size(); ++k) {
    kt.adam(params_[k]->data(), grads_[k]->data(), m_[k].data(), v_[k].data(),
            params_[k]->size(), s);
  }
  return chained;
}

void Adam::save(BinaryWriter& w) const {
  w.write_string("adam");
  w.write_i64(t_);
  w.write_f64(config_.lr);
  w.write_u32(static_cast<std::uint32_t>(m_.size()));
  for (const auto& m : m_) w.write_f64_vector(m.to_vector());
  for (const auto& v : v_) w.write_f64_vector(v.to_vector());
}

void Adam::restore(BinaryReader& r) {
  const std::string tag = r.read_string();
  if (tag != "adam") throw Error(ErrorCode::Corrupt, "Adam::restore: bad tag '" + tag + "'");
  const auto t = r.read_i64();
  const double lr = r.read_f64();
  const auto n = r.read_u32();
  if (n != m_.size()) {
    throw Error(ErrorCode::Corrupt, "Adam::restore: expected " +
                                        std::to_string(m_.size()) +
                                        " moment tensors, file has " + std::to_string(n));
  }
  auto read_into = [&r](std::vector<Matrix>& dst) {
    for (auto& m : dst) {
      const auto v = r.read_f64_vector();
      if (v.size() != m.size()) {
        throw Error(ErrorCode::Corrupt, "Adam::restore: moment shape mismatch");
      }
      std::copy(v.begin(), v.end(), m.data());
    }
  };
  read_into(m_);
  read_into(v_);
  t_ = t;
  config_.lr = lr;
}

}  // namespace adsec
