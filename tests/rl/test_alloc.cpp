// Steady-state allocation audit: after a warm-up update, Sac::update (and
// the other hot loops) must perform ZERO heap allocations in the matmul /
// workspace path. Global operator new is replaced with a counting shim —
// this test lives in its own binary so the shim cannot perturb other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

// GCC pairs gtest's inlined `new TestClass` with our replacement sized
// delete, sees the raw std::free inside, and reports a mismatch — but the
// matching replacement operator new routes through std::malloc, so the
// pairing is correct. The diagnostic cannot see through the replacement.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include "agents/e2e_agent.hpp"
#include "attack/attacker.hpp"
#include "nn/pnn.hpp"
#include "nn/simd.hpp"
#include "nn/workspace.hpp"
#include "rl/replay.hpp"
#include "rl/sac.hpp"
#include "rl/td3.hpp"
#include "sensors/camera.hpp"
#include "sim/scenario.hpp"

namespace {

std::atomic<long> g_allocs{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  // The replacement allocator is the one place that must call the C
  // allocator directly. adsec-lint: allow(alloc-hygiene)
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

// adsec-lint: allow(alloc-hygiene)
void operator delete(void* p) noexcept { std::free(p); }
// adsec-lint: allow(alloc-hygiene)
void operator delete[](void* p) noexcept { std::free(p); }
// adsec-lint: allow(alloc-hygiene)
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// adsec-lint: allow(alloc-hygiene)
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adsec {
namespace {

// Count heap allocations across `fn`.
template <typename Fn>
long count_allocs(Fn&& fn) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

void fill_buffer(ReplayBuffer& buffer, int obs_dim, int act_dim, int n, Rng& rng) {
  std::vector<double> obs(static_cast<std::size_t>(obs_dim));
  std::vector<double> next(static_cast<std::size_t>(obs_dim));
  std::vector<double> act(static_cast<std::size_t>(act_dim));
  for (int i = 0; i < n; ++i) {
    for (auto& v : obs) v = rng.normal(0.0, 1.0);
    for (auto& v : next) v = rng.normal(0.0, 1.0);
    for (auto& v : act) v = rng.normal(0.0, 0.5);
    buffer.add(obs, act, rng.normal(0.0, 1.0), next, i % 50 == 49);
  }
}

TEST(SteadyStateAllocations, SacUpdateIsAllocationFreeAfterWarmup) {
  const int obs_dim = 12, act_dim = 2;
  Rng rng(7);
  SacConfig cfg;
  cfg.batch_size = 32;
  cfg.actor_hidden = {32, 32};
  cfg.critic_hidden = {32, 32};
  Sac sac(obs_dim, act_dim, cfg, rng);

  ReplayBuffer buffer(4096, obs_dim, act_dim);
  fill_buffer(buffer, obs_dim, act_dim, 256, rng);

  // Warm-up passes populate every scratch matrix, workspace lease, and the
  // thread-local GEMM pack buffers.
  for (int i = 0; i < 3; ++i) sac.update(buffer, rng);

  const long allocs = count_allocs([&] {
    for (int i = 0; i < 5; ++i) sac.update(buffer, rng);
  });
  EXPECT_EQ(allocs, 0) << "Sac::update allocated on the steady-state path";
}

TEST(SteadyStateAllocations, Td3UpdateIsAllocationFreeAfterWarmup) {
  const int obs_dim = 12, act_dim = 2;
  Rng rng(8);
  Td3Config cfg;
  cfg.batch_size = 32;
  cfg.actor_hidden = {32, 32};
  cfg.critic_hidden = {32, 32};
  Td3 td3(obs_dim, act_dim, cfg, rng);

  ReplayBuffer buffer(4096, obs_dim, act_dim);
  fill_buffer(buffer, obs_dim, act_dim, 256, rng);

  // Warm both the critic-only and the delayed-actor paths.
  for (int i = 0; i < 4; ++i) td3.update(buffer, rng);

  const long allocs = count_allocs([&] {
    for (int i = 0; i < 6; ++i) td3.update(buffer, rng);
  });
  EXPECT_EQ(allocs, 0) << "Td3::update allocated on the steady-state path";
}

// train_pnn_column's update: SAC with a PnnTrunk actor, whose backward
// passes reuse their own-column slice scratch once warm.
TEST(SteadyStateAllocations, PnnColumnSacUpdateIsAllocationFreeAfterWarmup) {
  const int obs_dim = 12, act_dim = 2;
  Rng rng(12);
  const Mlp base({obs_dim, 32, 32, 2 * act_dim}, Activation::ReLU, rng);
  GaussianPolicy column(std::make_unique<PnnTrunk>(base, /*init_from_base=*/true, rng),
                        act_dim);
  SacConfig cfg;
  cfg.batch_size = 32;
  cfg.critic_hidden = {32, 32};
  Sac sac(std::move(column), cfg, rng);

  ReplayBuffer buffer(4096, obs_dim, act_dim);
  fill_buffer(buffer, obs_dim, act_dim, 256, rng);

  for (int i = 0; i < 3; ++i) sac.update(buffer, rng);

  const long allocs = count_allocs([&] {
    for (int i = 0; i < 5; ++i) sac.update(buffer, rng);
  });
  EXPECT_EQ(allocs, 0) << "PNN-column Sac::update allocated on the steady-state path";
}

TEST(SteadyStateAllocations, ReplaySampleIntoReusesBatchStorage) {
  const int obs_dim = 8, act_dim = 2;
  Rng rng(9);
  ReplayBuffer buffer(1024, obs_dim, act_dim);
  fill_buffer(buffer, obs_dim, act_dim, 128, rng);

  Batch batch;
  buffer.sample_into(64, rng, batch);  // warm: matrices sized here
  const long allocs = count_allocs([&] {
    for (int i = 0; i < 10; ++i) buffer.sample_into(64, rng, batch);
  });
  EXPECT_EQ(allocs, 0);
}

// The replay stores reserve their capacity up front, so add() never
// reallocates: not while the ring fills, not once it wraps.
TEST(SteadyStateAllocations, ReplayAddIsAllocationFree) {
  const int capacity = 64, obs_dim = 8, act_dim = 2;
  ReplayBuffer buffer(capacity, obs_dim, act_dim);
  const std::vector<double> obs(obs_dim, 0.25), next(obs_dim, -0.5), act(act_dim, 0.1);
  const long allocs = count_allocs([&] {
    for (int i = 0; i < 3 * capacity + 5; ++i) buffer.add(obs, act, 1.0, next, i % 7 == 0);
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(buffer.size(), capacity);
}

TEST(SteadyStateAllocations, ForwardInferenceIntoIsAllocationFreeAfterWarmup) {
  Rng rng(10);
  const Mlp net({16, 64, 64, 4}, Activation::ReLU, rng);
  Matrix obs(1, 16);
  for (int j = 0; j < 16; ++j) obs(0, j) = 0.05 * j;
  Matrix out;
  net.forward_inference_into(obs, out);  // warm thread-local workspace

  const long allocs = count_allocs([&] {
    for (int i = 0; i < 100; ++i) net.forward_inference_into(obs, out);
  });
  EXPECT_EQ(allocs, 0);
}

// The batched forward must be allocation-free under EVERY dispatch tier:
// the AVX2 micro-kernels share the same thread-local pack buffers and
// per-destination workspaces as the scalar tier, just with different
// panel shapes.
TEST(SteadyStateAllocations, BatchedForwardIsAllocationFreeOnEveryTier) {
  Rng rng(3);
  const Mlp net({64, 128, 128, 8}, Activation::ReLU, rng);
  Matrix obs(16, 64);
  for (int r = 0; r < 16; ++r) {
    for (int j = 0; j < 64; ++j) obs(r, j) = 0.01 * (r - j);
  }
  Matrix out;
  for (const simd::Tier tier : simd::available_tiers()) {
    simd::force_tier(tier);
    // Warm the pack buffers for this tier's panel shape.
    net.forward_inference_into(obs, out);
    const long allocs = count_allocs([&] {
      for (int i = 0; i < 50; ++i) net.forward_inference_into(obs, out);
    });
    EXPECT_EQ(allocs, 0) << "tier " << simd::tier_name(tier);
  }
  simd::reset_tier();
}

// decide() reuses its staging matrices, so a steady-state episode performs
// no per-step policy allocations.
TEST(SteadyStateAllocations, E2EDecideIsAllocationFreeAfterWarmup) {
  Rng rng(42);
  const int obs_dim = StackedCameraObserver({}, 3).dim();
  const GaussianPolicy policy = GaussianPolicy::make_mlp(obs_dim, {32, 32}, 2, rng);
  E2EAgent agent(policy, CameraConfig{}, 3);
  Rng world_rng(7);
  World world = make_scenario(ScenarioConfig{}, world_rng);
  agent.reset(world);
  double sink = 0.0;
  sink += agent.decide(world).steer_variation;  // warm
  const long allocs = count_allocs([&] {
    for (int i = 0; i < 20; ++i) sink += agent.decide(world).steer_variation;
  });
  EXPECT_EQ(allocs, 0) << "decide() allocated on the steady-state path (sink="
                       << sink << ")";
}

// Camera attackers render the stacked frame straight into their staging
// row, like E2EAgent::decide, so a steady-state attacked episode performs
// no per-step attacker allocations.
TEST(SteadyStateAllocations, CameraAttackerDecideIsAllocationFreeAfterWarmup) {
  Rng rng(43);
  const int obs_dim = StackedCameraObserver({}, 3).dim();
  LearnedCameraAttacker learned(GaussianPolicy::make_mlp(obs_dim, {32, 32}, 1, rng), 1.0);
  DeterministicCameraAttacker deterministic(Mlp({obs_dim, 32, 32, 1}, Activation::ReLU, rng),
                                            1.0);
  Rng world_rng(7);
  World world = make_scenario(ScenarioConfig{}, world_rng);
  double sink = 0.0;
  for (Attacker* attacker : {static_cast<Attacker*>(&learned),
                             static_cast<Attacker*>(&deterministic)}) {
    attacker->reset(world);
    sink += attacker->decide(world);  // warm
    const long allocs = count_allocs([&] {
      for (int i = 0; i < 20; ++i) sink += attacker->decide(world);
    });
    EXPECT_EQ(allocs, 0) << attacker->name()
                         << " decide() allocated on the steady-state path (sink=" << sink
                         << ")";
  }
}

// The workspace telemetry byte counter corroborates the allocator shim: the
// pool stops growing once warm.
TEST(SteadyStateAllocations, WorkspacePoolStopsGrowingOnceWarm) {
  Workspace& ws = inference_workspace();
  Rng rng(11);
  const Mlp net({8, 32, 2}, Activation::Tanh, rng);
  Matrix obs(1, 8), out;
  net.forward_inference_into(obs, out);
  const std::size_t bytes = ws.pooled_bytes();
  const std::size_t buffers = ws.pooled_buffers();
  for (int i = 0; i < 50; ++i) net.forward_inference_into(obs, out);
  EXPECT_EQ(ws.pooled_bytes(), bytes);
  EXPECT_EQ(ws.pooled_buffers(), buffers);
}

}  // namespace
}  // namespace adsec
