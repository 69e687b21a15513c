#include "workloads.hpp"

#include <stdexcept>

#include "core/scenario.hpp"

namespace perfbench {

namespace core = gridlb::core;

namespace {

/// One engine shard, one GA evaluate thread, and the two seeds.
void single_threaded(core::ExperimentConfig& config, std::uint64_t seed,
                     std::uint64_t workload_seed) {
  config.system.sim_shards = 1;
  config.system.ga.eval_threads = 1;
  config.system.seed = seed;
  config.system.fault.seed = seed;
  config.placement_seed = seed;
  config.workload.seed = workload_seed;
}

// The paper's Fig. 7 grid and 600-request case study, five ways: Table 2's
// experiments 1-3, then experiment 3's configuration under the central
// oracle and under CRUSH-style hashed placement.
Workload case_study(std::uint64_t seed, std::uint64_t workload_seed) {
  Workload w;
  w.name = "case_study";
  w.configs = {core::experiment1(), core::experiment2(), core::experiment3()};
  core::ExperimentConfig central = core::experiment3();
  central.name = "Experiment 3 config, central placement";
  central.placement = core::PlacementFamily::kCentralOracle;
  core::ExperimentConfig crush = core::experiment3();
  crush.name = "Experiment 3 config, crush placement";
  crush.placement = core::PlacementFamily::kHashPlacement;
  w.configs.push_back(std::move(central));
  w.configs.push_back(std::move(crush));
  for (auto& config : w.configs) single_threaded(config, seed, workload_seed);
  w.grid_config = 2;
  w.table3_order = true;
  return w;
}

// A 1024-agent fanout-3 discovery grid under light load: 512 requests two
// seconds apart, so advertisement pulls (every 10 s on every agent) and
// their XML traffic dominate the run.
Workload adverts_1024(std::uint64_t seed, std::uint64_t workload_seed) {
  core::ScenarioSpec spec;
  spec.agent_count = 1024;
  spec.fanout = 3;
  spec.workload_seed = workload_seed;
  Workload w;
  w.name = "adverts_1024";
  core::ExperimentConfig config = core::scenario_experiment(spec);
  config.name = "1024-agent discovery grid";
  config.workload.count = 512;
  config.workload.interval = 2.0;
  single_threaded(config, seed, workload_seed);
  w.configs.push_back(std::move(config));
  return w;
}

// A 48-agent grid overloaded by ON/OFF bursts (30 s ON, 90 s OFF, mean
// interval 0.25 s over a cycle), with queued-task migration on and 2% of
// messages dropped, so the reliable-link retry path runs.  Closed loop:
// the fixed arrival schedule is submitted in full and the run ends when
// the last task completes.
Workload burst_48(std::uint64_t seed, std::uint64_t workload_seed) {
  core::ScenarioSpec spec;
  spec.agent_count = 48;
  spec.fanout = 3;
  spec.workload_seed = workload_seed;
  Workload w;
  w.name = "burst_48";
  core::ExperimentConfig config = core::scenario_experiment(spec);
  config.name = "48-agent bursty grid";
  config.workload.count = 1200;
  config.workload.arrival = core::ArrivalProcess::kOnOff;
  config.workload.interval = 0.25;
  config.workload.burst_on = 30.0;
  config.workload.burst_off = 90.0;
  config.system.migration.enabled = true;
  config.system.fault.drop_prob = 0.02;
  config.system.fault_tolerance.enabled = true;
  single_threaded(config, seed, workload_seed);
  w.configs.push_back(std::move(config));
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"case_study", "adverts_1024",
                                                 "burst_48"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t workload_seed) {
  if (name == "case_study") return case_study(seed, workload_seed);
  if (name == "adverts_1024") return adverts_1024(seed, workload_seed);
  if (name == "burst_48") return burst_48(seed, workload_seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected case_study, adverts_1024 or "
                              "burst_48)");
}

}  // namespace perfbench
