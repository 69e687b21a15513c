#include "probes.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>

#include "agents/request.hpp"
#include "agents/service_info.hpp"
#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "pace/evaluation_engine.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/ga_scheduler.hpp"
#include "sched/hash_placement.hpp"
#include "sched/schedule_builder.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace agents = gridlb::agents;
namespace pace = gridlb::pace;
namespace sched = gridlb::sched;
using gridlb::AgentId;
using gridlb::Rng;
using gridlb::TaskId;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps probe results observable so the optimiser cannot drop the calls.
volatile double g_sink = 0.0;

double elapsed_ns(Clock::time_point since) {
  return std::chrono::duration<double, std::nano>(Clock::now() - since)
      .count();
}

/// Runs `call` in `batches` timed batches of `per_batch` calls and returns
/// the per-call cost of each batch.
template <class Fn>
std::vector<double> batched(int batches, std::size_t per_batch, Fn&& call) {
  std::vector<double> out;
  for (std::size_t i = 0; i < per_batch; ++i) call(i);  // warm-up pass
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) call(i);
    out.push_back(elapsed_ns(t0) / static_cast<double>(per_batch));
  }
  return out;
}

const agents::ResourceSpec& spec_of(const ProbeInputs& in, std::size_t r) {
  return in.config->system.resources[r];
}

pace::ResourceModel model_of(const ProbeInputs& in, std::size_t r) {
  return pace::ResourceModel::of(spec_of(in, r).hardware);
}

sched::Task task_of(const ProbeInputs& in,
                    const sched::CompletionRecord& record) {
  sched::Task task;
  task.id = record.task;
  task.app = in.catalogue->find(record.app_name);
  task.arrival = record.submitted;
  task.deadline = record.deadline;
  return task;
}

/// One ScheduleBuilder per resource, built on first use.
class Builders {
 public:
  explicit Builders(const ProbeInputs& in)
      : in_(in), cache_(engine_), builders_(in.config->system.resources.size()) {}
  sched::ScheduleBuilder& at(std::size_t r) {
    if (!builders_[r]) {
      builders_[r] = std::make_unique<sched::ScheduleBuilder>(
          cache_, model_of(in_, r), spec_of(in_, r).node_count);
    }
    return *builders_[r];
  }
  pace::CachedEvaluator& cache() { return cache_; }

 private:
  const ProbeInputs& in_;
  pace::EvaluationEngine engine_;
  pace::CachedEvaluator cache_;
  std::vector<std::unique_ptr<sched::ScheduleBuilder>> builders_;
};

}  // namespace

std::vector<QueueSnapshot> queue_snapshots(const ProbeInputs& in,
                                           std::size_t limit) {
  const auto& resources = in.config->system.resources;
  std::vector<std::vector<const sched::CompletionRecord*>> by_resource(
      resources.size());
  std::vector<const sched::CompletionRecord*> arrivals;
  for (const auto& record : in.result->completions) {
    const std::uint64_t id = record.resource.value();
    if (id < 1 || id > resources.size()) continue;
    by_resource[id - 1].push_back(&record);
    arrivals.push_back(&record);
  }
  std::sort(arrivals.begin(), arrivals.end(), [](const auto* a, const auto* b) {
    return a->submitted != b->submitted ? a->submitted < b->submitted
                                        : a->task < b->task;
  });
  const std::size_t picks = std::min(limit, arrivals.size());
  std::vector<QueueSnapshot> out;
  out.reserve(picks);
  for (std::size_t p = 0; p < picks; ++p) {
    const sched::CompletionRecord& arrival =
        *arrivals[p * arrivals.size() / picks];
    QueueSnapshot snap;
    snap.resource = arrival.resource.value() - 1;
    snap.now = arrival.submitted;
    const double t = snap.now;
    snap.node_free.assign(
        static_cast<std::size_t>(resources[snap.resource].node_count), t);
    for (const auto* record : by_resource[snap.resource]) {
      if (record == &arrival) continue;
      if (record->submitted <= t && record->start > t) {
        snap.tasks.push_back(task_of(in, *record));
      } else if (record->start <= t && record->end > t) {
        for (std::size_t node = 0; node < snap.node_free.size(); ++node) {
          if ((record->mask >> node) & 1U) {
            snap.node_free[node] = std::max(snap.node_free[node], record->end);
          }
        }
      }
    }
    snap.tasks.push_back(task_of(in, arrival));
    std::sort(snap.tasks.begin(), snap.tasks.end(),
              [](const sched::Task& a, const sched::Task& b) {
                return a.arrival != b.arrival ? a.arrival < b.arrival
                                              : a.id < b.id;
              });
    for (std::size_t i = 0; i < snap.tasks.size(); ++i) {
      if (snap.tasks[i].id == arrival.task) snap.arriving = i;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<double> probe_ga_optimize(
    const ProbeInputs& in, const std::vector<QueueSnapshot>& snapshots) {
  Builders builders(in);
  std::vector<std::unique_ptr<sched::GaScheduler>> gas(
      in.config->system.resources.size());
  sched::GaConfig config = in.config->system.ga;
  config.eval_threads = 1;
  std::vector<double> out;
  for (const auto& snap : snapshots) {
    auto& ga = gas[snap.resource];
    if (!ga) {
      ga = std::make_unique<sched::GaScheduler>(builders.at(snap.resource),
                                                config, 0x9a + snap.resource);
    }
    const auto t0 = Clock::now();
    const sched::GaResult result =
        ga->optimize(snap.tasks, snap.node_free, snap.now);
    out.push_back(elapsed_ns(t0));
    g_sink = g_sink + result.best_cost;
  }
  return out;
}

std::vector<double> probe_evaluate(const ProbeInputs& in,
                                   const std::vector<QueueSnapshot>& snapshots) {
  Builders builders(in);
  std::vector<double> out;
  sched::DecodeContext context;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    const QueueSnapshot& snap = snapshots[s];
    sched::ScheduleBuilder& builder = builders.at(snap.resource);
    const int nodes = builder.node_count();
    builder.prepare(context, snap.tasks, snap.node_free, snap.now,
                    sched::full_mask(nodes));
    sched::DecodeScratch scratch;
    Rng rng(s + 1);
    std::vector<sched::SolutionString> genomes;
    for (int g = 0; g < 8; ++g) {
      genomes.push_back(sched::SolutionString::random(
          static_cast<int>(snap.tasks.size()), nodes, rng));
    }
    const std::size_t calls = genomes.size() * 32;
    const std::vector<double> batch =
        batched(1, calls, [&](std::size_t i) {
          g_sink = g_sink +
                   builder.evaluate(context, genomes[i % genomes.size()],
                                    scratch)
                       .makespan;
        });
    out.push_back(batch.front());
  }
  return out;
}

std::vector<double> probe_evaluate_from(
    const ProbeInputs& in, const std::vector<QueueSnapshot>& snapshots) {
  Builders builders(in);
  std::vector<double> out;
  sched::DecodeContext context;
  const sched::GaConfig& ga = in.config->system.ga;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    const QueueSnapshot& snap = snapshots[s];
    sched::ScheduleBuilder& builder = builders.at(snap.resource);
    const int nodes = builder.node_count();
    builder.prepare(context, snap.tasks, snap.node_free, snap.now,
                    sched::full_mask(nodes));
    sched::DecodeScratch scratch;
    Rng rng(s + 1);
    const sched::SolutionString parent = sched::SolutionString::random(
        static_cast<int>(snap.tasks.size()), nodes, rng);
    sched::SolutionString child = parent;
    const int span = child.mutate(ga.order_swap_rate, ga.bit_flip_rate, rng);
    g_sink = g_sink + builder.evaluate_from(context, parent, scratch, 0).makespan;
    // Alternating child and parent: each call repairs the suffix from the
    // shared dirty span against the other's recorded stream.
    const std::vector<double> batch = batched(1, 256, [&](std::size_t i) {
      g_sink = g_sink + builder
                            .evaluate_from(context, i % 2 == 0 ? child : parent,
                                           scratch, span)
                            .makespan;
    });
    out.push_back(batch.front());
  }
  return out;
}

std::vector<double> probe_fifo_place(
    const ProbeInputs& in, const std::vector<QueueSnapshot>& snapshots) {
  // A FIFO placement searches node subsets (about a millisecond on 16
  // nodes), so every fourth snapshot is enough.
  Builders builders(in);
  std::vector<double> out;
  for (std::size_t s = 0; s < snapshots.size(); s += 4) {
    const QueueSnapshot& snap = snapshots[s];
    sched::FifoScheduler fifo(builders.cache(), model_of(in, snap.resource),
                              spec_of(in, snap.resource).node_count,
                              in.config->system.fifo_objective);
    const sched::Task& task = snap.tasks[snap.arriving];
    const std::vector<double> batch = batched(1, 1, [&](std::size_t) {
      g_sink = g_sink + fifo.place(task, snap.node_free, snap.now).end;
    });
    out.push_back(batch.front());
  }
  return out;
}

std::vector<double> probe_straw_select(const ProbeInputs& in) {
  std::vector<sched::PlacementTarget> targets;
  const auto& resources = in.config->system.resources;
  for (std::size_t r = 0; r < resources.size(); ++r) {
    targets.push_back(sched::PlacementTarget{
        AgentId(r + 1), sched::HashPlacement::hardware_weight(
                            model_of(in, r), resources[r].node_count)});
  }
  sched::HashPlacement::Config config;
  config.seed = in.config->placement_seed;
  const sched::HashPlacement placement(config, std::move(targets));
  const std::size_t keys = std::max<std::size_t>(in.workload->size(), 1);
  return batched(5, std::max<std::size_t>(keys, 4096), [&](std::size_t i) {
    g_sink = g_sink + placement.place(i % keys, 0.0).draw;
  });
}

std::vector<double> probe_predict(const ProbeInputs& in) {
  struct Lookup {
    pace::ApplicationModelPtr app;
    pace::ResourceModel resource;
    int nproc = 1;
  };
  std::vector<Lookup> lookups;
  for (const auto& record : in.result->completions) {
    const std::size_t r = record.resource.value() - 1;
    lookups.push_back(Lookup{in.catalogue->find(record.app_name),
                             model_of(in, r), std::popcount(record.mask)});
  }
  if (lookups.empty()) return {};
  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  return batched(5, std::max<std::size_t>(lookups.size(), 4096),
                 [&](std::size_t i) {
                   const Lookup& l = lookups[i % lookups.size()];
                   g_sink = g_sink + cache.evaluate(*l.app, l.resource, l.nproc);
                 });
}

std::vector<double> probe_event(std::size_t pending) {
  // Hold model: every executed event schedules one replacement a random
  // delay ahead, so the queue stays at `pending` entries.
  gridlb::sim::Engine engine;
  Rng rng(7);
  constexpr double kHorizon = 20.0;
  struct Hold {
    gridlb::sim::Engine* engine;
    Rng* rng;
    void operator()() const {
      engine->schedule_in(rng->uniform(0.0, kHorizon), *this);
    }
  };
  const Hold hold{&engine, &rng};
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    engine.schedule_at(rng.uniform(0.0, kHorizon), hold);
  }
  return batched(5, 50000, [&](std::size_t) { engine.step(); });
}

std::vector<double> probe_service_xml(const ProbeInputs& in, double& bytes) {
  std::vector<agents::ServiceInfo> infos;
  const auto& resources = in.config->system.resources;
  for (std::size_t r = 0; r < std::min<std::size_t>(resources.size(), 64); ++r) {
    agents::ServiceInfo info;
    info.agent_address = "agent-" + resources[r].name + ".grid";
    info.agent_port = 1000 + static_cast<int>(r);
    info.local_address = info.agent_address;
    info.local_port = info.agent_port + 9000;
    info.hardware_type = std::string(pace::hardware_name(resources[r].hardware));
    info.nproc = resources[r].node_count;
    info.environments = {"mpi", "pvm", "test"};
    info.freetime = in.result->finished_at * static_cast<double>(r + 1) /
                    static_cast<double>(resources.size());
    infos.push_back(std::move(info));
  }
  double total = 0.0;
  for (const auto& info : infos) total += static_cast<double>(agents::to_xml(info).size());
  bytes = total / static_cast<double>(infos.size());
  return batched(5, 2048, [&](std::size_t i) {
    const agents::ServiceInfo back =
        agents::service_info_from_xml(agents::to_xml(infos[i % infos.size()]));
    g_sink = g_sink + back.freetime;
  });
}

std::vector<double> probe_request_xml(const ProbeInputs& in, double& bytes) {
  std::vector<agents::Request> requests;
  const auto& workload = *in.workload;
  for (std::size_t i = 0; i < std::min<std::size_t>(workload.size(), 256); ++i) {
    const auto& spec = workload[i];
    agents::Request request;
    request.task = TaskId(i + 1);
    request.app_name = spec.app_name;
    request.binary_file = "/gridlb/binary/" + spec.app_name;
    request.input_file = request.binary_file + ".input";
    request.model_name = "/gridlb/model/" + spec.app_name;
    request.deadline = spec.at + spec.deadline_offset;
    request.email = "user@portal.grid";
    request.visited = {AgentId(static_cast<std::uint64_t>(spec.agent_index) + 1)};
    request.origin = 0;
    requests.push_back(std::move(request));
  }
  if (requests.empty()) return {};
  double total = 0.0;
  for (const auto& request : requests) total += static_cast<double>(agents::to_xml(request).size());
  bytes = total / static_cast<double>(requests.size());
  return batched(5, 2048, [&](std::size_t i) {
    const agents::Request back =
        agents::request_from_xml(agents::to_xml(requests[i % requests.size()]));
    g_sink = g_sink + back.deadline;
  });
}

std::vector<double> probe_report(const ProbeInputs& in) {
  const auto& resources = in.config->system.resources;
  std::vector<double> out;
  for (int rep = 0; rep < 6; ++rep) {
    const auto t0 = Clock::now();
    gridlb::metrics::MetricsCollector collector;
    for (std::size_t r = 0; r < resources.size(); ++r) {
      collector.add_resource(AgentId(r + 1), resources[r].name,
                             resources[r].node_count);
    }
    if (!in.workload->empty()) collector.on_submission(in.workload->front().at);
    for (const auto& record : in.result->completions) collector.record(record);
    const gridlb::metrics::Report report = collector.report();
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + report.total.utilisation;
    if (rep > 0) out.push_back(ns);  // the first pass warms the allocator
  }
  return out;
}

}  // namespace perfbench
