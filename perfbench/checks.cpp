#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>

#include "pace/evaluation_engine.hpp"
#include "pace/paper_applications.hpp"

namespace perfbench {

namespace core = gridlb::core;
namespace pace = gridlb::pace;
namespace sched = gridlb::sched;

namespace {

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

template <class... Args>
std::string say(const Args&... args) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << args);
  return os.str();
}

struct Row {
  int tasks = 0;
  int met = 0;
  double advance = 0.0;
  double utilisation = 0.0;
  double balance = 0.0;
};

/// Mean and balance β = 1 − d/ῡ of per-node rates (eqs. 13–15).
void fill_spread(const std::vector<double>& rates, Row& row) {
  if (rates.empty()) return;
  double mean = 0.0;
  for (const double r : rates) mean += r;
  mean /= static_cast<double>(rates.size());
  double sum_sq = 0.0;
  for (const double r : rates) sum_sq += (r - mean) * (r - mean);
  const double d = std::sqrt(sum_sq / static_cast<double>(rates.size()));
  row.utilisation = mean;
  row.balance = mean > 0.0 ? 1.0 - d / mean : 0.0;
}

void compare_row(const std::string& label, const Row& mine,
                 const gridlb::metrics::MetricsRow& theirs,
                 std::vector<std::string>& out) {
  if (mine.tasks != theirs.tasks) {
    out.push_back(say(label, ": ", mine.tasks, " tasks, report says ",
                      theirs.tasks));
  }
  if (mine.met != theirs.deadlines_met) {
    out.push_back(say(label, ": ", mine.met, " deadlines met, report says ",
                      theirs.deadlines_met));
  }
  const double eps = mine.tasks > 0 ? mine.advance / mine.tasks : 0.0;
  if (!close(eps, theirs.advance_time)) {
    out.push_back(say(label, ": epsilon ", eps, ", report says ",
                      theirs.advance_time));
  }
  if (!close(mine.utilisation, theirs.utilisation)) {
    out.push_back(say(label, ": utilisation ", mine.utilisation,
                      ", report says ", theirs.utilisation));
  }
  if (!close(mine.balance, theirs.balance)) {
    out.push_back(say(label, ": balance ", mine.balance, ", report says ",
                      theirs.balance));
  }
}

std::size_t resource_index(const core::ExperimentConfig& config,
                           const sched::CompletionRecord& record) {
  // Agent ids are 1-based in resource-list order.
  const std::uint64_t id = record.resource.value();
  return id >= 1 && id <= config.system.resources.size()
             ? static_cast<std::size_t>(id - 1)
             : config.system.resources.size();
}

/// Per-node busy rates (eq. 12), one vector per resource, over the window
/// from the first scheduled submission to the last completion.
std::vector<std::vector<double>> node_rates(
    const core::ExperimentConfig& config,
    const std::vector<core::RequestSpec>& workload,
    const core::ExperimentResult& result) {
  double start = workload.empty() ? 0.0 : workload.front().at;
  for (const auto& spec : workload) start = std::min(start, spec.at);
  double end = 0.0;
  for (const auto& record : result.completions) end = std::max(end, record.end);
  const double window = std::max(0.0, end - start);
  std::vector<std::vector<double>> rates;
  for (const auto& spec : config.system.resources) {
    rates.emplace_back(static_cast<std::size_t>(spec.node_count), 0.0);
  }
  for (const auto& record : result.completions) {
    const std::size_t r = resource_index(config, record);
    if (r >= rates.size()) continue;
    for (std::size_t node = 0; node < rates[r].size(); ++node) {
      if ((record.mask >> node) & 1U) rates[r][node] += record.end - record.start;
    }
  }
  for (auto& nodes : rates) {
    for (double& busy : nodes) busy = window > 0.0 ? busy / window : 0.0;
  }
  return rates;
}

}  // namespace

std::vector<std::string> check_run(const core::ExperimentConfig& config,
                                   const std::vector<core::RequestSpec>& workload,
                                   const core::ExperimentResult& result) {
  std::vector<std::string> out;
  const std::string& name = config.name;
  const auto& resources = config.system.resources;
  const std::size_t n = workload.size();

  // Every generated task completes exactly once.
  if (result.tasks_completed != n || result.completions.size() != n) {
    out.push_back(say(name, ": ", result.completions.size(),
                      " completion records / ", result.tasks_completed,
                      " completed for ", n, " generated tasks"));
  }
  std::vector<int> seen(n, 0);
  for (const auto& record : result.completions) {
    const std::uint64_t id = record.task.value();
    if (id < 1 || id > n) {
      out.push_back(say(name, ": completion of unknown task ", id));
      continue;
    }
    if (++seen[id - 1] == 2) {
      out.push_back(say(name, ": task ", id, " completed more than once"));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i] == 0) out.push_back(say(name, ": task ", i + 1, " never completed"));
  }

  // Timing order and PACE test-mode execution times.
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::EvaluationEngine engine;
  std::vector<std::vector<std::vector<std::pair<double, double>>>> spans(
      resources.size());
  for (std::size_t r = 0; r < resources.size(); ++r) {
    spans[r].resize(static_cast<std::size_t>(resources[r].node_count));
  }
  for (const auto& record : result.completions) {
    const std::uint64_t id = record.task.value();
    const std::size_t r = resource_index(config, record);
    if (r >= resources.size()) {
      out.push_back(say(name, ": task ", id, " ran on unknown resource ",
                        record.resource.value()));
      continue;
    }
    if (id >= 1 && id <= n && workload[id - 1].at > record.submitted) {
      out.push_back(say(name, ": task ", id, " reached its scheduler at ",
                        record.submitted, " before its submission at ",
                        workload[id - 1].at));
    }
    if (!(record.submitted <= record.start && record.start < record.end)) {
      out.push_back(say(name, ": task ", id, " has submitted ",
                        record.submitted, ", start ", record.start, ", end ",
                        record.end));
    }
    const int nodes = resources[r].node_count;
    if (record.mask == 0 ||
        (nodes < 32 && (record.mask >> nodes) != 0)) {
      out.push_back(say(name, ": task ", id, " has node mask ", record.mask,
                        " on a ", nodes, "-node resource"));
      continue;
    }
    const pace::ApplicationModelPtr app = catalogue.find(record.app_name);
    if (app == nullptr) {
      out.push_back(say(name, ": task ", id, " ran unknown application ",
                        record.app_name));
      continue;
    }
    const double predicted =
        engine.evaluate(*app, pace::ResourceModel::of(resources[r].hardware),
                        std::popcount(record.mask));
    if (!close(record.end - record.start, predicted)) {
      out.push_back(say(name, ": task ", id, " ran ",
                        record.end - record.start, " s, PACE predicts ",
                        predicted, " s"));
    }
    for (int node = 0; node < nodes; ++node) {
      if ((record.mask >> node) & 1U) {
        spans[r][static_cast<std::size_t>(node)].emplace_back(record.start,
                                                              record.end);
      }
    }
  }

  // No node runs two tasks at once.
  for (std::size_t r = 0; r < resources.size(); ++r) {
    for (std::size_t node = 0; node < spans[r].size(); ++node) {
      auto& list = spans[r][node];
      std::sort(list.begin(), list.end());
      for (std::size_t i = 1; i < list.size(); ++i) {
        if (list[i].first < list[i - 1].second) {
          out.push_back(say(name, ": ", resources[r].name, " node ", node,
                            " runs [", list[i - 1].first, ", ",
                            list[i - 1].second, ") and [", list[i].first,
                            ", ", list[i].second, ") at once"));
        }
      }
    }
  }

  // ε / υ / β / deadlines met, per resource and in total.
  const std::vector<std::vector<double>> rates =
      node_rates(config, workload, result);
  std::vector<Row> rows(resources.size());
  for (const auto& record : result.completions) {
    const std::size_t r = resource_index(config, record);
    if (r >= resources.size()) continue;
    ++rows[r].tasks;
    rows[r].advance += record.deadline - record.end;
    if (record.end <= record.deadline) ++rows[r].met;
  }
  Row total;
  std::vector<double> all_rates;
  for (std::size_t r = 0; r < resources.size(); ++r) {
    fill_spread(rates[r], rows[r]);
    all_rates.insert(all_rates.end(), rates[r].begin(), rates[r].end());
    total.tasks += rows[r].tasks;
    total.met += rows[r].met;
    total.advance += rows[r].advance;
  }
  fill_spread(all_rates, total);
  if (result.report.resources.size() != resources.size()) {
    out.push_back(say(name, ": report has ", result.report.resources.size(),
                      " resource rows for ", resources.size(), " resources"));
  } else {
    for (std::size_t r = 0; r < resources.size(); ++r) {
      compare_row(name + " " + resources[r].name, rows[r],
                  result.report.resources[r], out);
    }
  }
  compare_row(name + " total", total, result.report.total, out);

  // The program's sojourn percentiles (arrival at the scheduler → end).
  std::vector<double> sojourn;
  for (const auto& record : result.completions) {
    sojourn.push_back(record.end - record.submitted);
  }
  const double p50 = nearest_rank(sojourn, 50.0);
  const double p90 = nearest_rank(sojourn, 90.0);
  const double p99 = nearest_rank(sojourn, 99.0);
  if (p50 != result.latency_p50 || p90 != result.latency_p90 ||
      p99 != result.latency_p99) {
    out.push_back(say(name, ": latency p50/p90/p99 ", p50, "/", p90, "/", p99,
                      ", result says ", result.latency_p50, "/",
                      result.latency_p90, "/", result.latency_p99));
  }
  return out;
}

std::vector<std::string> check_table3_order(
    const std::vector<core::ExperimentResult>& results) {
  std::vector<std::string> out;
  if (results.size() < 3) {
    out.push_back("table 3 order needs experiments 1, 2 and 3");
    return out;
  }
  for (std::size_t e = 1; e < 3; ++e) {
    const auto& before = results[e - 1].report.total;
    const auto& after = results[e].report.total;
    const auto order = [&](const char* what, double a, double b) {
      if (!(a < b)) {
        out.push_back(say("table 3 order: ", what, " of experiment ", e, " (",
                          a, ") is not below experiment ", e + 1, " (", b,
                          ")"));
      }
    };
    order("epsilon", before.advance_time, after.advance_time);
    order("utilisation", before.utilisation, after.utilisation);
    order("balance", before.balance, after.balance);
  }
  return out;
}

GridMetrics grid_metrics(const core::ExperimentConfig& config,
                         const std::vector<core::RequestSpec>& workload,
                         const core::ExperimentResult& result) {
  GridMetrics m;
  std::vector<double> latency;
  for (const auto& record : result.completions) {
    m.makespan_s = std::max(m.makespan_s, record.end);
    const std::uint64_t id = record.task.value();
    if (id >= 1 && id <= workload.size()) {
      latency.push_back(record.end - workload[id - 1].at);
    }
    if (record.end <= record.deadline) m.deadlines_met += 1.0;
  }
  std::vector<double> rates;
  for (const auto& nodes : node_rates(config, workload, result)) {
    rates.insert(rates.end(), nodes.begin(), nodes.end());
  }
  Row row;
  fill_spread(rates, row);
  m.utilisation_pct = 100.0 * row.utilisation;
  m.latency_p50_s = nearest_rank(latency, 50.0);
  m.latency_p98_s = nearest_rank(std::move(latency), 98.0);
  return m;
}

std::uint64_t result_digest(const core::ExperimentResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_u64 = [&mix](std::uint64_t v) { mix(&v, sizeof v); };
  const auto mix_f64 = [&mix_u64](double v) {
    mix_u64(std::bit_cast<std::uint64_t>(v));
  };
  for (const auto& record : result.completions) {
    mix_u64(record.task.value());
    mix_u64(record.resource.value());
    mix_u64(record.mask);
    mix(record.app_name.data(), record.app_name.size());
    mix_f64(record.submitted);
    mix_f64(record.start);
    mix_f64(record.end);
    mix_f64(record.deadline);
  }
  for (const std::uint64_t count :
       {result.tasks_completed, result.ga_decodes, result.ga_memo_hits,
        result.ga_delta_evals, result.ga_full_evals, result.sim_events,
        result.network_messages, result.network_bytes, result.cache.hits,
        result.cache.misses, result.table_reads, result.migrations,
        result.message_retries, result.duplicates_suppressed,
        result.fifo_subsets, result.placement_decisions}) {
    mix_u64(count);
  }
  return h;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
