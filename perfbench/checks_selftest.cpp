// Self-test of the benchmark's output checks: each check must pass on real
// output and fail on a corrupted copy of it; the statistics helpers must
// match hand-computed values.  Exits 0 when every expectation holds.
//
//   .bench_build/perfbench/checks_selftest     (or: ctest in that dir)
#include <algorithm>
#include <bit>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "pace/paper_applications.hpp"
#include "workloads.hpp"

namespace {

namespace core = gridlb::core;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << '\n';
  if (!ok) ++g_failures;
}

bool mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
  return std::any_of(problems.begin(), problems.end(), [&](const auto& p) {
    return p.find(needle) != std::string::npos;
  });
}

void helpers() {
  using perfbench::median;
  using perfbench::nearest_rank;
  expect(median({3, 1, 2}) == 2.0, "median of an odd sample");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even sample");
  expect(median({}) == 0.0, "median of an empty sample");
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  expect(nearest_rank(ten, 50) == 5.0, "p50 of 1..10 is 5");
  expect(nearest_rank(ten, 98) == 10.0, "p98 of 1..10 is 10");
  expect(nearest_rank(ten, 0) == 1.0, "p0 is the minimum");
  expect(nearest_rank(ten, 100) == 10.0, "p100 is the maximum");
  std::vector<double> many;
  for (int i = 512; i >= 1; --i) many.push_back(i);
  expect(nearest_rank(many, 98) == 502.0, "p98 of 512 samples is rank 502");
  expect(nearest_rank({}, 50) == 0.0, "percentile of an empty sample");
}

}  // namespace

int main() {
  helpers();

  // Real output: Table 2's experiments 1-3 on the default seeds.
  const perfbench::Workload w = perfbench::make_workload(
      "case_study", perfbench::kDefaultSeed, perfbench::kDefaultWorkloadSeed);
  const gridlb::pace::ApplicationCatalogue catalogue =
      gridlb::pace::paper_catalogue();
  std::vector<core::ExperimentResult> results;
  std::vector<std::vector<core::RequestSpec>> inputs;
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& config = w.configs[c];
    inputs.push_back(core::generate_workload(
        config.workload, catalogue,
        static_cast<int>(config.system.resources.size())));
    results.push_back(core::run_experiment(config));
    expect(perfbench::check_run(config, inputs[c], results[c]).empty(),
           "real output of " + config.name + " passes");
  }
  expect(perfbench::check_table3_order(results).empty(),
         "real experiments 1-3 pass the table 3 order");

  const core::ExperimentConfig& config = w.configs[2];
  const auto corrupted = [&](const std::string& what, const std::string& needle,
                             const std::function<void(core::ExperimentResult&)>& edit) {
    core::ExperimentResult copy = results[2];
    edit(copy);
    const auto problems = perfbench::check_run(config, inputs[2], copy);
    expect(mentions(problems, needle), what + " is caught");
  };
  corrupted("a dropped task", "never completed",
            [](auto& r) { r.completions.erase(r.completions.begin() + 17); });
  corrupted("a duplicated task", "more than once",
            [](auto& r) { r.completions.push_back(r.completions[42]); });
  corrupted("a shifted end time", "PACE predicts",
            [](auto& r) { r.completions[99].end += 1.0; });
  corrupted("overlapping tasks on one node", "at once", [](auto& r) {
    // Move a task onto another's nodes and start time on the same resource.
    auto& c = r.completions;
    for (std::size_t i = 0; i < c.size(); ++i) {
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        if (c[i].resource == c[j].resource && c[i].app_name == c[j].app_name &&
            c[i].mask != c[j].mask &&
            std::popcount(c[i].mask) == std::popcount(c[j].mask)) {
          const double run = c[j].end - c[j].start;
          c[j].mask = c[i].mask;
          c[j].start = c[i].start;
          c[j].end = c[i].start + run;
          return;
        }
      }
    }
  });
  corrupted("a wrong utilisation report", "utilisation",
            [](auto& r) { r.report.total.utilisation += 0.01; });

  std::vector<core::ExperimentResult> swapped = results;
  std::swap(swapped[1], swapped[2]);
  expect(!perfbench::check_table3_order(swapped).empty(),
         "a swapped experiment order is caught");

  std::cout << (g_failures == 0 ? "all checks behave\n" : "SELF-TEST FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
