// Micro-benchmarks (google-benchmark): throughput of the building blocks —
// simulator stepping, Frenet projection, sensor rendering, policy inference,
// SAC gradient updates, and the telemetry hot paths. Not a paper figure;
// used to size training runs and to enforce the telemetry overhead budget
// (disabled-path instrumentation must stay ≤ 5 ns/op — see the
// telemetry_overhead table this binary writes into BENCH_micro.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "agents/modular_agent.hpp"
#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "nn/gaussian_policy.hpp"
#include "nn/simd.hpp"
#include "rl/sac.hpp"
#include "runtime/parallel_eval.hpp"
#include "sensors/camera.hpp"
#include "sensors/imu.hpp"
#include "sim/scenario.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec {
namespace {

World fresh_world(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  Rng rng(seed);
  return make_scenario(cfg, rng);
}

void BM_WorldStep(benchmark::State& state) {
  World w = fresh_world();
  for (auto _ : state) {
    if (w.done()) {
      state.PauseTiming();
      w = fresh_world();
      state.ResumeTiming();
    }
    w.step({0.05, 0.3});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldStep);

void BM_RoadProject(benchmark::State& state) {
  const Road road = Road::freeway();
  Rng rng(2);
  std::vector<Vec2> points;
  for (int i = 0; i < 256; ++i) {
    points.push_back(road.world_at(rng.uniform(0.0, road.length()),
                                   rng.uniform(-5.0, 5.0)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(road.project(points[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoadProject);

void BM_CameraObserve(benchmark::State& state) {
  World w = fresh_world();
  CameraSensor cam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam.observe(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CameraObserve);

void BM_ImuObserve(benchmark::State& state) {
  World w = fresh_world();
  ImuSensor imu;
  imu.reset(w);
  imu.update(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imu.observation());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImuObserve);

void BM_PolicyInference(benchmark::State& state) {
  Rng rng(3);
  const int obs_dim = StackedCameraObserver({}, 3).dim();
  GaussianPolicy pi = GaussianPolicy::make_mlp(obs_dim, {64, 64}, 2, rng);
  Matrix obs = Matrix::randn(1, obs_dim, rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pi.mean_action(obs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyInference);

void BM_ModularDecide(benchmark::State& state) {
  World w = fresh_world();
  ModularAgent agent;
  agent.reset(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.decide(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModularDecide);

// Episode throughput of the parallel rollout runtime vs the serial batch
// loop, on the same 64-episode modular-agent workload. Arg is the worker
// count (0 = the serial run_batch baseline); items/sec == episodes/sec, so
// the per-thread-count speedup reads directly off the report.
void BM_EpisodeBatch(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  constexpr int kEpisodes = 64;
  const ExperimentConfig cfg;
  const AgentFactory make_agent = [] { return std::make_unique<ModularAgent>(); };
  for (auto _ : state) {
    if (jobs == 0) {
      ModularAgent agent;
      benchmark::DoNotOptimize(run_batch(agent, nullptr, cfg, kEpisodes, 1));
    } else {
      benchmark::DoNotOptimize(run_batch_parallel(make_agent, AttackerFactory{}, cfg,
                                                  kEpisodes, 1,
                                                  /*with_reference=*/false, jobs));
    }
  }
  state.SetItemsProcessed(state.iterations() * kEpisodes);
}
BENCHMARK(BM_EpisodeBatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- NN compute kernels --------------------------------------------------
// Blocked GEMM vs the reference:: triple loops, the shapes the training
// loops actually hit. The old-vs-new ratio table in BENCH_micro.json comes
// from write_gemm_kernels_table below; these google-benchmark entries give
// the same numbers in the standard reporter.

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::randn(n, n, rng, 1.0);
  const Matrix b = Matrix::randn(n, n, rng, 1.0);
  Matrix c;
  for (auto _ : state) {
    matmul_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256);

void BM_GemmReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::randn(n, n, rng, 1.0);
  const Matrix b = Matrix::randn(n, n, rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(64)->Arg(256);

void BM_Gemv(benchmark::State& state) {
  // The rollout-stepping shape: one observation row through a 256-wide layer.
  Rng rng(6);
  const Matrix x = Matrix::randn(1, 256, rng, 1.0);
  const Matrix w = Matrix::randn(256, 256, rng, 0.1);
  const Matrix b = Matrix::randn(1, 256, rng, 0.1);
  Matrix y;
  for (auto _ : state) {
    linear_forward_into(y, x, w, b, Activation::ReLU);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Gemv);

void BM_MlpForwardBackward(benchmark::State& state) {
  // The acceptance shape: batch 256 through 64 -> 256 -> 256 -> 1.
  Rng rng(7);
  Mlp net({64, 256, 256, 1}, Activation::ReLU, rng);
  const Matrix x = Matrix::randn(256, 64, rng, 1.0);
  Matrix g(256, 1);
  g.fill(1.0 / 256.0);
  for (auto _ : state) {
    net.forward(x);
    net.backward(g);
    net.zero_grad();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpForwardBackward)->Unit(benchmark::kMillisecond);

void BM_SacUpdate(benchmark::State& state) {
  const int obs_dim = static_cast<int>(state.range(0));
  SacConfig cfg;
  cfg.batch_size = 32;
  Rng rng(4);
  Sac sac(obs_dim, 2, cfg, rng);
  ReplayBuffer buf(4096, obs_dim, 2);
  std::vector<double> obs(static_cast<std::size_t>(obs_dim));
  for (int i = 0; i < 512; ++i) {
    for (auto& v : obs) v = rng.uniform(-1.0, 1.0);
    const double act[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    buf.add(obs, act, rng.uniform(), obs, false);
  }
  for (auto _ : state) {
    sac.update(buf, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SacUpdate)->Arg(64)->Arg(267);

// ---- telemetry hot paths -------------------------------------------------
// The enabled/disabled pairs bound what instrumenting a call site costs. The
// disabled variants are the budget that matters: instrumentation stays
// compiled in everywhere, so its off-state cost is paid by every
// un-instrumented run.

void BM_TelemetryCounterEnabled(benchmark::State& state) {
  telemetry::set_metrics_enabled(true);
  telemetry::Counter c = telemetry::counter("bench.counter");
  for (auto _ : state) c.inc();
  telemetry::set_metrics_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterEnabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  telemetry::set_metrics_enabled(false);
  telemetry::Counter c = telemetry::counter("bench.counter");
  for (auto _ : state) c.inc();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterDisabled);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  telemetry::set_tracing_enabled(true);
  for (auto _ : state) {
    ADSEC_SPAN("bench.span");
  }
  telemetry::set_tracing_enabled(false);
  telemetry::clear_trace();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  telemetry::set_tracing_enabled(false);
  for (auto _ : state) {
    ADSEC_SPAN("bench.span");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanDisabled);

// Manual ns/op measurement for the BENCH_micro.json artifact: a tight loop
// long enough to amortize the clock reads, reported per operation. Simpler
// and more portable than scraping google-benchmark's own reporter.
double measure_ns_per_op(const std::function<void()>& op) {
  constexpr int kWarmup = 1 << 16;
  constexpr int kIters = 1 << 22;  // ~4M ops per timed block
  for (int i = 0; i < kWarmup; ++i) op();
  double best = 1e300;  // best-of-3 filters scheduler noise
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = telemetry::monotonic_ns();
    for (int i = 0; i < kIters; ++i) op();
    const std::uint64_t t1 = telemetry::monotonic_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / kIters);
  }
  return best;
}

// Like measure_ns_per_op but for expensive ops: caller picks the iteration
// count (the 4M-iteration default would take hours on a 256^3 GEMM).
double measure_ns_scaled(const std::function<void()>& op, int iters) {
  const int warmup = std::max(1, iters / 4);
  for (int i = 0; i < warmup; ++i) op();
  double best = 1e300;  // best-of-3 filters scheduler noise
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = telemetry::monotonic_ns();
    for (int i = 0; i < iters; ++i) op();
    const std::uint64_t t1 = telemetry::monotonic_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / iters);
  }
  return best;
}

// The pre-PR compute path, reconstructed from the reference:: kernels: an
// allocating forward (linear_forward + activation per layer) and an
// allocating backward (matmul_tn / column_sum / matmul_nt with add_inplace).
// Like Mlp::backward it stops before the layer-0 input gradient, so both
// sides do the same products. This is the baseline the "speedup" column —
// and the >= 2x acceptance bar on the MLP row — is measured against.
struct RefMlp {
  std::vector<Matrix> w, b, wg, bg;
  Activation act{Activation::ReLU};
  std::vector<Matrix> inputs;  // cached activations, like the old Mlp

  RefMlp(const std::vector<int>& dims, Rng& rng) {
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      const double scale = 1.0 / std::sqrt(static_cast<double>(dims[l]));
      w.push_back(Matrix::randn(dims[l], dims[l + 1], rng, scale));
      b.push_back(Matrix(1, dims[l + 1]));
      wg.push_back(Matrix(dims[l], dims[l + 1]));
      bg.push_back(Matrix(1, dims[l + 1]));
    }
  }

  Matrix forward(const Matrix& x) {
    inputs.clear();
    inputs.push_back(x);
    Matrix h = x;
    for (std::size_t l = 0; l < w.size(); ++l) {
      h = reference::linear_forward(h, w[l], b[l]);
      if (l + 1 < w.size()) apply_activation(act, h);
      if (l + 1 < w.size()) inputs.push_back(h);
    }
    return h;
  }

  void backward(const Matrix& grad_out) {
    Matrix cur = grad_out;
    for (std::size_t i = w.size(); i-- > 0;) {
      if (i + 1 < w.size()) apply_activation_grad(act, inputs[i + 1], cur);
      wg[i].add_inplace(reference::matmul_tn(inputs[i], cur));
      bg[i].add_inplace(reference::column_sum(cur));
      if (i > 0) cur = reference::matmul_nt(cur, w[i]);
    }
  }

  void zero_grad() {
    for (auto& m : wg) m.set_zero();
    for (auto& m : bg) m.set_zero();
  }
};

// Old-vs-new kernel table for BENCH_micro.json: blocked/fused path against
// the pre-PR reference kernels at the shapes that matter. Measured with the
// dispatch tier FORCED to scalar so the gated speedup column compares the
// blocking/fusion work alone and reads the same on any host; the SIMD gain
// on top is the separate simd_kernels table below.
void write_gemm_kernels_table() {
  simd::force_tier(simd::Tier::Scalar);
  Rng rng(21);
  Table t({"op", "new_ns", "ref_ns", "speedup"});
  auto row = [&t](const char* op, double new_ns, double ref_ns) {
    t.add_row({op, fmt(new_ns, 0), fmt(ref_ns, 0), fmt(ref_ns / new_ns, 2)});
    std::printf("kernels: %-18s new %10.0f ns  ref %10.0f ns  speedup %5.2fx\n", op,
                new_ns, ref_ns, ref_ns / new_ns);
  };

  for (const int n : {64, 256}) {
    const Matrix a = Matrix::randn(n, n, rng, 1.0);
    const Matrix b = Matrix::randn(n, n, rng, 1.0);
    Matrix c;
    const int iters = n == 64 ? 256 : 16;
    const double new_ns = measure_ns_scaled([&] { matmul_into(c, a, b); }, iters);
    const double ref_ns =
        measure_ns_scaled([&] { benchmark::DoNotOptimize(reference::matmul(a, b)); },
                          iters);
    row(n == 64 ? "gemm_64" : "gemm_256", new_ns, ref_ns);
  }

  {
    const Matrix x = Matrix::randn(1, 256, rng, 1.0);
    const Matrix w = Matrix::randn(256, 256, rng, 0.1);
    const Matrix bias = Matrix::randn(1, 256, rng, 0.1);
    Matrix y;
    const double new_ns = measure_ns_scaled(
        [&] { linear_forward_into(y, x, w, bias, Activation::ReLU); }, 2048);
    const double ref_ns = measure_ns_scaled(
        [&] {
          Matrix h = reference::linear_forward(x, w, bias);
          apply_activation(Activation::ReLU, h);
          benchmark::DoNotOptimize(h.data());
        },
        2048);
    row("gemv_1x256", new_ns, ref_ns);
  }

  {
    const std::vector<int> dims = {64, 256, 256, 1};
    Rng r1(22), r2(22);
    Mlp net(dims, Activation::ReLU, r1);
    RefMlp ref(dims, r2);
    const Matrix x = Matrix::randn(256, 64, rng, 1.0);
    Matrix g(256, 1);
    g.fill(1.0 / 256.0);
    const double new_ns = measure_ns_scaled(
        [&] {
          net.forward(x);
          net.backward(g);
          net.zero_grad();
        },
        8);
    const double ref_ns = measure_ns_scaled(
        [&] {
          ref.forward(x);
          ref.backward(g);
          ref.zero_grad();
        },
        8);
    row("mlp_fb_256x64-256-256-1", new_ns, ref_ns);
  }

  bench::maybe_write_csv(t, "gemm_kernels");
  simd::reset_tier();
}

// Tier-vs-tier ratio table: the same kernel shapes timed under two dispatch
// tiers in one process via force_tier. The adam_64k row times one
// optimizer step, which gives the same bits on every tier; the optional
// sac_update row times one zoo-shaped Sac::update (obs 267, act 2, batch
// 32, 64 x 64 nets).
void write_tier_table(const char* name, simd::Tier slow, simd::Tier fast, bool sac_row) {
  Rng rng(26);
  const std::string slow_name = simd::tier_name(slow);
  const std::string fast_name = simd::tier_name(fast);
  Table t({"op", slow_name + "_ns", fast_name + "_ns", "speedup"});
  auto row = [&](const char* op, double slow_ns, double fast_ns) {
    t.add_row({op, fmt(slow_ns, 0), fmt(fast_ns, 0), fmt(slow_ns / fast_ns, 2)});
    std::printf("%s: %-14s %s %10.0f ns  %s %10.0f ns  speedup %5.2fx\n", name, op,
                slow_name.c_str(), slow_ns, fast_name.c_str(), fast_ns, slow_ns / fast_ns);
  };
  auto timed = [](simd::Tier tier, const std::function<void()>& op, int iters) {
    simd::force_tier(tier);
    const double ns = measure_ns_scaled(op, iters);
    simd::reset_tier();
    return ns;
  };
  auto both = [&](const char* op, const std::function<void()>& f, int iters) {
    row(op, timed(slow, f, iters), timed(fast, f, iters));
  };

  for (const int n : {64, 256}) {
    const Matrix a = Matrix::randn(n, n, rng, 1.0);
    const Matrix b = Matrix::randn(n, n, rng, 1.0);
    Matrix c;
    both(n == 64 ? "gemm_64" : "gemm_256", [&] { matmul_into(c, a, b); }, n == 64 ? 256 : 16);
  }

  {
    const Matrix x = Matrix::randn(1, 256, rng, 1.0);
    const Matrix w = Matrix::randn(256, 256, rng, 0.1);
    const Matrix bias = Matrix::randn(1, 256, rng, 0.1);
    Matrix y;
    both("gemv_1x256", [&] { linear_forward_into(y, x, w, bias, Activation::ReLU); }, 2048);
  }

  {
    // One Adam::step over the zoo's SAC parameters: the 267-64-64-4 actor
    // and two 269-64-64-1 critics, 64.6k in all. Each step first refills the
    // gradients (Adam zeroes them), so the moments settle instead of
    // decaying into subnormals; their global norm stays under the clip, as
    // in training.
    std::vector<Mlp> nets;
    nets.emplace_back(std::vector<int>{267, 64, 64, 4}, Activation::ReLU, rng);
    for (int q = 0; q < 2; ++q) {
      nets.emplace_back(std::vector<int>{269, 64, 64, 1}, Activation::ReLU, rng);
    }
    std::vector<Matrix*> params, grads;
    for (Mlp& net : nets) {
      const auto p = net.params();
      const auto g = net.grads();
      params.insert(params.end(), p.begin(), p.end());
      grads.insert(grads.end(), g.begin(), g.end());
    }
    std::vector<Matrix> fill;
    for (const Matrix* g : grads) {
      fill.push_back(Matrix::randn(g->rows(), g->cols(), rng, 0.01));
    }
    Adam opt(params, grads);
    both(
        "adam_64k",
        [&] {
          for (std::size_t k = 0; k < grads.size(); ++k) grads[k]->copy_from(fill[k]);
          opt.step();
        },
        64);
  }

  if (sac_row) {
    SacConfig cfg;
    cfg.batch_size = 32;
    Sac sac(267, 2, cfg, rng);
    ReplayBuffer buf(512, 267, 2);
    std::vector<double> obs(267), next(267);
    for (int i = 0; i < 256; ++i) {
      for (std::size_t j = 0; j < obs.size(); ++j) {
        obs[j] = rng.uniform(-1.0, 1.0);
        next[j] = rng.uniform(-1.0, 1.0);
      }
      const double act[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      buf.add(obs, act, rng.uniform(), next, false);
    }
    both("sac_update", [&] { sac.update(buf, rng); }, 64);
  }

  bench::maybe_write_csv(t, name);
}

// AVX2-vs-scalar ratios. Only written when the host can execute the AVX2
// tier — bench_compare.py skips its gates when the recorded simd_tier
// differs from the baseline's, so a scalar-only host neither fakes nor
// fails this table. Acceptance floor: >= 1.8x on gemm_256.
void write_simd_kernels_table() {
  if (!simd::tier_supported(simd::Tier::Avx2)) {
    std::printf(
        "simd kernels: AVX2 tier unavailable on this host — "
        "simd_kernels table skipped\n");
    return;
  }
  write_tier_table("simd_kernels", simd::Tier::Scalar, simd::Tier::Avx2, false);
}

// AVX-512-vs-AVX2 ratios, only where both tiers run. Reported, not gated:
// the committed baseline has no such table, so bench_compare.py ignores it.
void write_simd512_kernels_table() {
  if (!simd::tier_supported(simd::Tier::Avx2) || !simd::tier_supported(simd::Tier::Avx512)) {
    std::printf(
        "simd512 kernels: AVX-512 or AVX2 tier unavailable on this host — "
        "simd512_kernels table skipped\n");
    return;
  }
  write_tier_table("simd512_kernels", simd::Tier::Avx2, simd::Tier::Avx512, true);
}

// Kernel telemetry for one representative gradient step: gemm/gemv call and
// FLOP tallies plus the workspace pool footprint, mirrored into
// BENCH_micro.json so perf regressions show up as count changes too.
void write_nn_counter_table() {
  telemetry::reset_metrics_values();
  telemetry::set_metrics_enabled(true);

  Rng rng(23);
  SacConfig cfg;
  cfg.batch_size = 64;
  Sac sac(64, 2, cfg, rng);
  ReplayBuffer buf(1024, 64, 2);
  std::vector<double> obs(64);
  for (int i = 0; i < 128; ++i) {
    for (auto& v : obs) v = rng.uniform(-1.0, 1.0);
    const double act[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    buf.add(obs, act, rng.uniform(), obs, false);
  }
  sac.update(buf, rng);  // warm (pool growth happens here)
  telemetry::reset_metrics_values();
  sac.update(buf, rng);  // measured update

  const telemetry::MetricsSnapshot snap = telemetry::metrics_snapshot();
  telemetry::set_metrics_enabled(false);

  Table t({"counter", "value"});
  for (const char* name : {"nn.gemm.calls", "nn.gemm.flops", "nn.gemv.calls",
                           "nn.workspace.bytes", "nn.workspace.buffers"}) {
    std::uint64_t value = 0;
    for (const auto& [n, v] : snap.counters) {
      if (n == name) value = v;
    }
    t.add_row({name, std::to_string(value)});
    std::printf("sac update counters: %-22s %llu\n", name,
                static_cast<unsigned long long>(value));
  }
  bench::maybe_write_csv(t, "nn_kernel_counters");
}

void write_overhead_table() {
  telemetry::Counter c = telemetry::counter("bench.overhead_counter");
  telemetry::Histogram h = telemetry::histogram(
      "bench.overhead_hist", {1, 2, 4, 8, 16, 32, 64});

  Table t({"op", "state", "ns_per_op"});
  auto row = [&t](const char* op, const char* on, double ns) {
    t.add_row({op, on, fmt(ns, 2)});
    std::printf("telemetry overhead: %-16s %-8s %6.2f ns/op\n", op, on, ns);
  };

  telemetry::set_metrics_enabled(false);
  telemetry::set_tracing_enabled(false);
  telemetry::set_flight_enabled(false);
  row("counter.inc", "disabled", measure_ns_per_op([&] { c.inc(); }));
  row("histogram.observe", "disabled", measure_ns_per_op([&] { h.observe(7.0); }));
  row("span", "disabled", measure_ns_per_op([] { ADSEC_SPAN("bench.overhead"); }));
  row("flight.note", "disabled",
      measure_ns_per_op([] { telemetry::flight_note("bench.overhead"); }));

  telemetry::set_metrics_enabled(true);
  row("counter.inc", "enabled", measure_ns_per_op([&] { c.inc(); }));
  row("histogram.observe", "enabled", measure_ns_per_op([&] { h.observe(7.0); }));
  telemetry::set_metrics_enabled(false);

  telemetry::set_tracing_enabled(true);
  row("span", "enabled", measure_ns_per_op([] { ADSEC_SPAN("bench.overhead"); }));
  telemetry::set_tracing_enabled(false);
  telemetry::clear_trace();

  telemetry::set_flight_enabled(true);
  row("flight.note", "enabled",
      measure_ns_per_op([] { telemetry::flight_note("bench.overhead"); }));
  telemetry::set_flight_enabled(false);
  telemetry::clear_flight();

  bench::maybe_write_csv(t, "telemetry_overhead");
}

}  // namespace
}  // namespace adsec

// Custom main instead of BENCHMARK_MAIN(): same google-benchmark run, plus
// the telemetry-overhead table and the BENCH_micro.json summary.
int main(int argc, char** argv) {
  adsec::bench::bench_init("micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  adsec::write_gemm_kernels_table();
  adsec::write_simd_kernels_table();
  adsec::write_simd512_kernels_table();
  adsec::write_nn_counter_table();
  adsec::write_overhead_table();
  return 0;
}
