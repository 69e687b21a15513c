// The benchmark's named workloads (see perfbench/README.md for why each
// exists and which layers it stresses).
//
// Every workload is a list of experiment configurations run back to back
// through core::run_experiment.  Two seeds make the inputs: the workload
// seed draws the requests (entry agent, application, deadline, arrival
// times; the paper's 2003 by default), and the benchmark seed seeds the
// program's own random streams (per-scheduler GA seeds, the message-drop
// plan, the hashed-placement map; the program's 42 by default).  All
// configurations run single-threaded (one engine shard, one GA evaluate
// thread), so host timings measure the code, not thread wake-ups.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<gridlb::core::ExperimentConfig> configs;
  /// The configuration whose output supplies the grid.* metrics and the
  /// inputs of the layer probes.
  std::size_t grid_config = 0;
  /// Table 3 property: total ε, υ and β strictly increase over
  /// configurations 0, 1, 2 (experiments 1, 2, 3).
  bool table3_order = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kDefaultWorkloadSeed = 2003;

/// Builds the named workload; throws std::invalid_argument for an unknown
/// name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     std::uint64_t workload_seed);

}  // namespace perfbench
