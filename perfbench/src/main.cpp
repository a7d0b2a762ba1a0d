// adsec_perfbench: one workload of the figure pipeline per process.
//
//   adsec_perfbench --workload <train_zoo|eval_e2e_camera|grid_modular_oracle>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress and, for a traced run, the layer table, then one JSON
// object as the last line of stdout. Exits 2 on bad usage and 3 on a set-up
// error (missing inputs, a warm cache inside a timed run).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Name and unit of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"rl.update_burst_ms.p50", "ms"},
      {"rl.update_burst_ms.p99", "ms"},
      {"rl.update_share", "ratio"},
      {"rl.eval_share", "ratio"},
      {"rl.updates", "count"},
      {"rl.env_steps", "count"},
      {"rl.recoveries", "count"},
      {"core.train_s.pi_ori", "s"},
      {"core.train_s.attacker_cam_e2e", "s"},
      {"nn.gemm_calls", "count"},
      {"nn.gemm_flops", "flop"},
      {"nn.gemv_calls", "count"},
      {"nn.policy_forward_us", "us"},
      {"sensors.camera_render_us.p50", "us"},
      {"sensors.camera_render_us.p99", "us"},
      {"sensors.camera_share", "ratio"},
      {"sim.road_project_ns", "ns"},
      {"sim.runner_step_us.p50", "us"},
      {"sim.runner_step_us.p99", "us"},
      {"agents.decide_us.e2e", "us"},
      {"agents.decide_us.modular", "us"},
      {"attack.decide_us.camera", "us"},
      {"attack.decide_us.oracle", "us"},
      {"runtime.idle_share", "ratio"},
      {"runtime.tasks_stolen", "count"},
      {"runtime.episode_ms.p50", "ms"},
      {"runtime.episode_ms.p99", "ms"},
      {"orch.commit_ms.p50", "ms"},
      {"orch.cells_committed", "count"},
      {"serialize.bytes_written", "bytes"},
      {"orch.job_retries", "count"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return names;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "adsec_perfbench: %s\n"
               "usage: adsec_perfbench --workload <train_zoo|eval_e2e_camera|"
               "grid_modular_oracle> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool seen_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
        used = value.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
        seen_seconds = true;
      } else if (flag == "--trace") {
        const int t = std::stoi(value, &used);
        if (t != 0 && t != 1) usage("--trace must be 0 or 1");
        a.trace = t == 1;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
      if (used != value.size()) usage(("malformed value for " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("malformed value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (seen_seconds && !(a.seconds > 0.0 && a.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return a;
}

}  // namespace

namespace perfbench {

void add_per_layer(Result& result, const std::map<std::string, double>& values) {
  std::size_t used = 0;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    if (it != values.end()) ++used;
    result.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  if (used != values.size()) throw std::logic_error("unknown per-layer metric name");
}

void add_end_to_end(Result& result, double setup_s, const std::vector<double>& walls,
                    double episodes_per_rep, double steps_per_rep, double attack_success_rate) {
  std::printf("unit walls (s):");
  for (const double w : walls) std::printf(" %.4f", w);
  std::printf("\n");
  std::vector<double> eps, steps;
  for (const double w : walls) {
    eps.push_back(episodes_per_rep / w);
    steps.push_back(steps_per_rep / w);
  }
  result.add("setup_s", setup_s, "s");
  result.add("wall_s", median(walls), "s");
  result.add("episodes_per_s", median(eps), "1/s");
  result.add("env_steps_per_s", median(steps), "1/s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("attack_success_rate", attack_success_rate, "ratio");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const Clock::time_point t_start = Clock::now();
  const Args args = parse(argc, argv);
  adsec::set_log_level(adsec::LogLevel::Warn);
  // Environment knobs of the program must not change what a workload does.
  adsec::RuntimeConfig& rc = adsec::runtime_config();
  rc.episodes_override.reset();
  rc.checkpoint_every = 0;

  try {
    Result result;
    if (args.workload == "train_zoo") {
      result = run_train_zoo(args, t_start);
    } else if (args.workload == "eval_e2e_camera") {
      result = run_eval_e2e_camera(args, t_start);
    } else if (args.workload == "grid_modular_oracle") {
      result = run_grid_modular_oracle(args, t_start);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
    std::printf("%s\n", result.to_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const SetupError& e) {
    std::fprintf(stderr, "adsec_perfbench: set-up error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adsec_perfbench: %s\n", e.what());
    return 1;
  }
}
