// The simulated-cluster workload (sim_cluster): E21's island cluster at
// 128 and 256 nodes, run serially (the traced run adds a parallel run).
#pragma once

#include <string>

#include "support.hpp"

namespace perfbench {

/// Run sim_cluster; `e21_json` is E21's committed result file, whose
/// event count and fingerprint at each size every run must reproduce.
RunResult run_sim_cluster(const Options& options, const std::string& e21_json);

}  // namespace perfbench
