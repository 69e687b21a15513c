// Output checks and statistics helpers of the campaign benchmark.
//
// Every check recomputes what it verifies from the completion records and
// the generated workload, apart from the program's own bookkeeping, and
// returns one line per violation (empty = the run is correct).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/workload.hpp"

namespace perfbench {

/// Checks one configuration's run against its generated workload:
///   * every generated task completes exactly once (ids 1..N);
///   * scheduled submission ≤ arrival at the scheduler ≤ start < end;
///   * no node of a resource runs two tasks at overlapping times;
///   * end − start equals the PACE prediction for (application, |mask|,
///     hardware) — the paper's test mode with prediction_error = 0;
///   * ε, υ, β and deadlines met per resource and in total (eqs. 11–15),
///     and the program's latency percentiles (nearest rank), match the
///     program's Report and ExperimentResult.
[[nodiscard]] std::vector<std::string> check_run(
    const gridlb::core::ExperimentConfig& config,
    const std::vector<gridlb::core::RequestSpec>& workload,
    const gridlb::core::ExperimentResult& result);

/// Table 3 property over experiments 1, 2, 3 (the first three results):
/// total ε, υ and β strictly increase from each to the next.
[[nodiscard]] std::vector<std::string> check_table3_order(
    const std::vector<gridlb::core::ExperimentResult>& results);

/// What a user of the grid sees, recomputed from the records.
struct GridMetrics {
  double makespan_s = 0.0;       ///< virtual time of the last completion
  double latency_p50_s = 0.0;    ///< completion − scheduled submission
  double latency_p98_s = 0.0;
  double utilisation_pct = 0.0;  ///< υ over the grid (eqs. 12–13)
  double deadlines_met = 0.0;    ///< tasks completing by δ
};

[[nodiscard]] GridMetrics grid_metrics(
    const gridlb::core::ExperimentConfig& config,
    const std::vector<gridlb::core::RequestSpec>& workload,
    const gridlb::core::ExperimentResult& result);

/// Digest of everything a repetition must reproduce exactly: every
/// completion record and the run's counts.
[[nodiscard]] std::uint64_t result_digest(
    const gridlb::core::ExperimentResult& result);

/// Median (mean of the two middle values for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest value with at least p% of the
/// sample at or below it; 0 if empty.
[[nodiscard]] double nearest_rank(std::vector<double> values, double p);

}  // namespace perfbench
