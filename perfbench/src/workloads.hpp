// The benchmark's three workloads. Each returns the end-to-end metrics of
// an untraced run, or, with Args::trace, the per-layer metrics of a traced
// run; see perfbench/NOTES.md for what each one loads and bypasses.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace perfbench {

Result run_train_zoo(const Args& args, Clock::time_point t_start);
Result run_eval_e2e_camera(const Args& args, Clock::time_point t_start);
Result run_grid_modular_oracle(const Args& args, Clock::time_point t_start);

// Fills `result` with every per-layer metric in BENCHMARK.json order.
// Metrics absent from `values` belong to layers the workload bypasses and
// read 0; a name in `values` that is not a per-layer metric throws.
void add_per_layer(Result& result, const std::map<std::string, double>& values);

// End-to-end metrics shared by all workloads. `walls` are the per-repetition
// wall times; `episodes_per_rep`/`steps_per_rep` the work of one repetition.
// Prints the walls before the result line.
void add_end_to_end(Result& result, double setup_s, const std::vector<double>& walls,
                    double episodes_per_rep, double steps_per_rep,
                    double attack_success_rate);

}  // namespace perfbench
