// Layer probes: median host cost of one call into a layer's public
// function, on inputs rebuilt from a workload's own run.  Each probe
// returns per-call costs in nanoseconds; the caller takes medians and
// means.
#pragma once

#include <vector>

#include "core/experiment.hpp"
#include "core/workload.hpp"
#include "sched/task.hpp"

namespace perfbench {

/// One scheduler queue as the run saw it when a task arrived: the tasks
/// submitted to the resource but not yet started (the arrival included)
/// and each node's earliest free time, rebuilt from completion records.
struct QueueSnapshot {
  std::size_t resource = 0;
  double now = 0.0;
  std::vector<gridlb::sched::Task> tasks;
  std::size_t arriving = 0;  ///< index of the arriving task in `tasks`
  std::vector<double> node_free;
};

struct ProbeInputs {
  const gridlb::core::ExperimentConfig* config = nullptr;
  const std::vector<gridlb::core::RequestSpec>* workload = nullptr;
  const gridlb::core::ExperimentResult* result = nullptr;
  const gridlb::pace::ApplicationCatalogue* catalogue = nullptr;
};

/// Up to `limit` snapshots spread evenly over the run's arrivals.
[[nodiscard]] std::vector<QueueSnapshot> queue_snapshots(
    const ProbeInputs& in, std::size_t limit);

/// GaScheduler::optimize, one call per snapshot (one warm GA per resource).
[[nodiscard]] std::vector<double> probe_ga_optimize(
    const ProbeInputs& in, const std::vector<QueueSnapshot>& snapshots);
/// ScheduleBuilder::evaluate of random genomes (full decodes).
[[nodiscard]] std::vector<double> probe_evaluate(
    const ProbeInputs& in, const std::vector<QueueSnapshot>& snapshots);
/// ScheduleBuilder::evaluate_from on mutated genomes (suffix repair).
[[nodiscard]] std::vector<double> probe_evaluate_from(
    const ProbeInputs& in, const std::vector<QueueSnapshot>& snapshots);
/// FifoScheduler::place of every fourth snapshot's arriving task.
[[nodiscard]] std::vector<double> probe_fifo_place(
    const ProbeInputs& in, const std::vector<QueueSnapshot>& snapshots);
/// HashPlacement::place over the grid's resources, keyed by task id.
[[nodiscard]] std::vector<double> probe_straw_select(const ProbeInputs& in);
/// CachedEvaluator::evaluate on the run's (application, hardware, |mask|).
[[nodiscard]] std::vector<double> probe_predict(const ProbeInputs& in);
/// sim::Engine schedule + step with `pending` events queued (hold model).
[[nodiscard]] std::vector<double> probe_event(std::size_t pending);
/// ServiceInfo to_xml + service_info_from_xml; also reports document bytes.
[[nodiscard]] std::vector<double> probe_service_xml(const ProbeInputs& in,
                                                    double& bytes);
/// Request to_xml + request_from_xml; also reports document bytes.
[[nodiscard]] std::vector<double> probe_request_xml(const ProbeInputs& in,
                                                    double& bytes);
/// MetricsCollector fed with the run's records, then report().
[[nodiscard]] std::vector<double> probe_report(const ProbeInputs& in);

}  // namespace perfbench
