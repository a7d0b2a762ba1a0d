#include "rl/sac.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nn/io.hpp"

namespace adsec {

namespace {

// Copy parameter data from `src` into `dst` without replacing the matrices
// themselves — the Adam optimizers hold raw pointers into `dst`, so the
// storage must stay put across a restore.
void copy_params(std::vector<Matrix*> dst, std::vector<Matrix*> src,
                 const char* what) {
  if (dst.size() != src.size()) {
    throw Error(ErrorCode::Corrupt,
                std::string("Sac::restore: ") + what + " parameter count mismatch");
  }
  for (std::size_t k = 0; k < dst.size(); ++k) {
    if (dst[k]->rows() != src[k]->rows() || dst[k]->cols() != src[k]->cols()) {
      throw Error(ErrorCode::Corrupt,
                  std::string("Sac::restore: ") + what + " parameter shape mismatch");
    }
    std::copy(src[k]->data(), src[k]->data() + src[k]->size(), dst[k]->data());
  }
}

bool params_finite(const std::vector<Matrix*>& params) {
  return std::all_of(params.begin(), params.end(),
                     [](const Matrix* m) { return m->all_finite(); });
}

}  // namespace

Sac::Sac(int obs_dim, int act_dim, const SacConfig& config, Rng& rng)
    : config_(config),
      actor_(GaussianPolicy::make_mlp(obs_dim, config.actor_hidden, act_dim, rng)) {
  init(obs_dim, act_dim, rng);
}

Sac::Sac(GaussianPolicy actor, const SacConfig& config, Rng& rng)
    : config_(config), actor_(std::move(actor)) {
  init(actor_.obs_dim(), actor_.act_dim(), rng);
}

void Sac::init(int obs_dim, int act_dim, Rng& rng) {
  std::vector<int> qdims;
  qdims.push_back(obs_dim + act_dim);
  qdims.insert(qdims.end(), config_.critic_hidden.begin(), config_.critic_hidden.end());
  qdims.push_back(1);
  q1_ = Mlp(qdims, Activation::ReLU, rng);
  q2_ = Mlp(qdims, Activation::ReLU, rng);
  q1_target_ = q1_;
  q2_target_ = q2_;

  AdamConfig a;
  a.lr = config_.actor_lr;
  actor_opt_ = std::make_unique<Adam>(actor_.params(), actor_.grads(), a);
  AdamConfig c;
  c.lr = config_.critic_lr;
  q1_opt_ = std::make_unique<Adam>(q1_.params(), q1_.grads(), c);
  q2_opt_ = std::make_unique<Adam>(q2_.params(), q2_.grads(), c);

  log_alpha_ = std::log(std::max(1e-8, config_.init_alpha));
  target_entropy_ = config_.target_entropy != 0.0 ? config_.target_entropy
                                                  : -static_cast<double>(act_dim);
}

std::vector<double> Sac::act(std::span<const double> obs, Rng& rng,
                             bool deterministic) const {
  act_obs_.resize(1, static_cast<int>(obs.size()));
  std::copy(obs.begin(), obs.end(), act_obs_.data());
  if (deterministic) {
    actor_.mean_action_into(act_obs_, act_mean_);
    return {act_mean_.data(), act_mean_.data() + act_mean_.cols()};
  }
  actor_.sample_inference_into(act_obs_, rng, act_sample_);
  return {act_sample_.action.data(),
          act_sample_.action.data() + act_sample_.action.cols()};
}

void Sac::update(const ReplayBuffer& buffer, Rng& rng) {
  if (buffer.size() < config_.batch_size) return;
  Scratch& s = scratch_;
  buffer.sample_into(config_.batch_size, rng, s.batch);
  const int B = config_.batch_size;
  const double alpha = std::exp(log_alpha_);

  // ---- Critic targets: y = r + gamma * (1-d) * (min Q_target(s',a') - alpha*logp').
  actor_.sample_inference_into(s.batch.next_obs, rng, s.next);
  hconcat_into(s.qin_next, s.batch.next_obs, s.next.action);
  q1_target_.forward_inference_into(s.qin_next, s.q1n);
  q2_target_.forward_inference_into(s.qin_next, s.q2n);
  s.y.resize(B, 1);
  for (int i = 0; i < B; ++i) {
    const double qmin = std::min(s.q1n(i, 0), s.q2n(i, 0));
    s.y(i, 0) = s.batch.rew(i, 0) +
                config_.gamma * (1.0 - s.batch.done(i, 0)) *
                    (qmin - alpha * s.next.log_prob(i, 0));
  }

  // ---- Critic update: MSE toward y.
  hconcat_into(s.qin, s.batch.obs, s.batch.act);
  double closs = 0.0;
  for (Mlp* q : {&q1_, &q2_}) {
    const Matrix& qv = q->forward(s.qin);
    s.grad.resize(B, 1);
    for (int i = 0; i < B; ++i) {
      const double err = qv(i, 0) - s.y(i, 0);
      closs += err * err / (2.0 * B);
      s.grad(i, 0) = 2.0 * err / B;
    }
    q->backward(s.grad);
  }
  last_critic_loss_ = closs;
  // Pre-clip global norm over both critics' gradients, q1's then q2's.
  last_critic_grad_norm_ = std::sqrt(q2_opt_->step(q1_opt_->step()));

  if (updates_ < config_.actor_delay_updates) {
    q1_target_.soft_update_from(q1_, config_.tau);
    q2_target_.soft_update_from(q2_, config_.tau);
    ++updates_;
    return;
  }

  // ---- Actor update: minimize E[alpha * logp - min Q(s, a~)].
  const PolicySample& cur = actor_.sample(s.batch.obs, rng);
  hconcat_into(s.qin_pi, s.batch.obs, cur.action);
  const Matrix& q1v = q1_.forward(s.qin_pi);
  const Matrix& q2v = q2_.forward(s.qin_pi);

  // Per-row, the gradient flows through whichever critic attains the min.
  s.g1.resize(B, 1);
  s.g2.resize(B, 1);
  double aloss = 0.0;
  for (int i = 0; i < B; ++i) {
    const bool first = q1v(i, 0) <= q2v(i, 0);
    // d(-Q)/dQ_k = -1/B on the selected critic.
    s.g1(i, 0) = first ? -1.0 / B : 0.0;
    s.g2(i, 0) = first ? 0.0 : -1.0 / B;
    aloss += (alpha * cur.log_prob(i, 0) - std::min(q1v(i, 0), q2v(i, 0))) / B;
  }
  last_actor_loss_ = aloss;

  // dL/da is the critics' input gradient over the action columns; the
  // critics' parameter gradients stay untouched. The returned references
  // stay valid: each points into its own network.
  const int obs_dim = s.batch.obs.cols();
  const Matrix& ga1 = q1_.input_grad(s.g1, obs_dim);
  const Matrix& ga2 = q2_.input_grad(s.g2, obs_dim);

  const int act_dim = actor_.act_dim();
  s.dL_da.resize(B, act_dim);
  for (int i = 0; i < B; ++i) {
    for (int j = 0; j < act_dim; ++j) s.dL_da(i, j) = ga1(i, j) + ga2(i, j);
  }
  s.dL_dlogp.resize(B, 1);
  for (int i = 0; i < B; ++i) s.dL_dlogp(i, 0) = alpha / B;

  actor_.backward(s.dL_da, s.dL_dlogp);
  last_actor_grad_norm_ = std::sqrt(actor_opt_->step());

  // ---- Temperature update: minimize -log_alpha * E[logp + target_entropy].
  if (config_.auto_alpha) {
    double mean_lp = 0.0;
    for (int i = 0; i < B; ++i) mean_lp += cur.log_prob(i, 0) / B;
    const double grad_log_alpha = -(mean_lp + target_entropy_);
    log_alpha_ -= config_.alpha_lr * grad_log_alpha;
    // Upper clamp keeps a BC-warm-started policy (whose tight action
    // distribution has large log-densities) from inflating alpha until the
    // entropy bonus drowns the task reward.
    log_alpha_ = std::clamp(log_alpha_, std::log(1e-4), std::log(0.3));
  }

  // ---- Target sync.
  q1_target_.soft_update_from(q1_, config_.tau);
  q2_target_.soft_update_from(q2_, config_.tau);
  ++updates_;
}

void Sac::save(BinaryWriter& w) const {
  w.write_string("sac");
  actor_.save(w);
  q1_.save(w);
  q2_.save(w);
  q1_target_.save(w);
  q2_target_.save(w);
  actor_opt_->save(w);
  q1_opt_->save(w);
  q2_opt_->save(w);
  w.write_f64(log_alpha_);
  w.write_i64(updates_);
  w.write_f64(last_critic_loss_);
  w.write_f64(last_actor_loss_);
  w.write_f64(last_critic_grad_norm_);
  w.write_f64(last_actor_grad_norm_);
}

void Sac::restore(BinaryReader& r) {
  const std::string tag = r.read_string();
  if (tag != "sac") throw Error(ErrorCode::Corrupt, "Sac::restore: bad tag '" + tag + "'");
  GaussianPolicy actor = load_gaussian_policy(r);
  Mlp q1 = Mlp::load(r);
  Mlp q2 = Mlp::load(r);
  Mlp q1t = Mlp::load(r);
  Mlp q2t = Mlp::load(r);
  copy_params(actor_.params(), actor.params(), "actor");
  copy_params(q1_.params(), q1.params(), "q1");
  copy_params(q2_.params(), q2.params(), "q2");
  copy_params(q1_target_.params(), q1t.params(), "q1_target");
  copy_params(q2_target_.params(), q2t.params(), "q2_target");
  actor_opt_->restore(r);
  q1_opt_->restore(r);
  q2_opt_->restore(r);
  log_alpha_ = r.read_f64();
  updates_ = r.read_i64();
  last_critic_loss_ = r.read_f64();
  last_actor_loss_ = r.read_f64();
  last_critic_grad_norm_ = r.read_f64();
  last_actor_grad_norm_ = r.read_f64();
}

void Sac::scale_lr(double s) {
  actor_opt_->set_lr(actor_opt_->lr() * s);
  q1_opt_->set_lr(q1_opt_->lr() * s);
  q2_opt_->set_lr(q2_opt_->lr() * s);
}

bool Sac::state_finite() {
  if (!std::isfinite(last_critic_loss_) || !std::isfinite(last_actor_loss_) ||
      !std::isfinite(log_alpha_)) {
    return false;
  }
  return params_finite(actor_.params()) && params_finite(q1_.params()) &&
         params_finite(q2_.params());
}

}  // namespace adsec
