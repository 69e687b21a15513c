// Microbenchmarks (google-benchmark) for the scheduling kernels:
//   * PACE evaluation — raw engine vs cached path,
//   * schedule decoding (the GA's inner loop), both as the legacy
//     self-contained full decode and as the DESIGN.md §11 hot path
//     (prepared context + metrics-only evaluate),
//   * one GA generation at the paper's settings,
//   * one FIFO placement (best of the 2^16−1 subsets, one candidate per
//     width),
//   * agent matchmaking (eq. 10),
//   * XML round-trip of the agent documents.
// These back the performance discussion in §2.2 of the paper with
// measured numbers on this machine.  `--json <path>` writes the decode vs
// evaluate comparison (plus the PACE layer costs and peak RSS) as a
// machine-readable report.

#include <benchmark/benchmark.h>

#include <fstream>

#include "gridlb.hpp"
#include "json_bench.hpp"

namespace {

using namespace gridlb;

std::vector<sched::Task> make_tasks(int count) {
  static const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  Rng rng(5);
  std::vector<sched::Task> tasks;
  for (int i = 0; i < count; ++i) {
    sched::Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i));
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    const auto domain = task.app->deadline_domain();
    task.deadline = rng.uniform(domain.lo, domain.hi);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

void BM_PaceEvaluateRaw(benchmark::State& state) {
  pace::EvaluationEngine engine;
  const auto model = pace::make_paper_application("sweep3d");
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  int nproc = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(*model, sgi, nproc));
    nproc = nproc % 16 + 1;
  }
}
BENCHMARK(BM_PaceEvaluateRaw);

void BM_PaceEvaluateCached(benchmark::State& state) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto model = pace::make_paper_application("sweep3d");
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  int nproc = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.evaluate(*model, sgi, nproc));
    nproc = nproc % 16 + 1;
  }
}
BENCHMARK(BM_PaceEvaluateCached);

void BM_ScheduleDecode(benchmark::State& state) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);
  const auto tasks = make_tasks(static_cast<int>(state.range(0)));
  Rng rng(9);
  const auto solution =
      sched::SolutionString::random(static_cast<int>(tasks.size()), 16, rng);
  const std::vector<SimTime> idle(16, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.decode(tasks, solution, idle, 0.0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_ScheduleDecode)->Arg(5)->Arg(20)->Arg(50)->Arg(200)->Arg(600);

// The GA's steady-state evaluation (DESIGN.md §11): prediction rows and
// node availability hoisted into a prepared context, metrics-only decode
// into a reusable scratch — no allocations, no lock acquisitions.
void BM_ScheduleEvaluate(benchmark::State& state) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);
  const auto tasks = make_tasks(static_cast<int>(state.range(0)));
  Rng rng(9);
  const auto solution =
      sched::SolutionString::random(static_cast<int>(tasks.size()), 16, rng);
  const std::vector<SimTime> idle(16, 0.0);
  sched::DecodeContext context;
  sched::DecodeScratch scratch;
  builder.prepare(context, tasks, idle, 0.0, sched::full_mask(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.evaluate(context, solution, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_ScheduleEvaluate)->Arg(5)->Arg(20)->Arg(50)->Arg(200)->Arg(600);

void BM_GaGeneration(benchmark::State& state) {
  // One optimize() call with a single generation at the paper's settings
  // (population 50); ~50 decodes ≈ the paper's "1000 evaluations per
  // generation" once the 20-task decode loop is unrolled.
  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);
  const auto tasks = make_tasks(20);
  sched::GaConfig config;
  config.generations = 1;
  sched::GaScheduler scheduler(builder, config, 11);
  const std::vector<SimTime> idle(16, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.optimize(tasks, idle, 0.0));
  }
}
BENCHMARK(BM_GaGeneration);

void BM_FifoPlacement(benchmark::State& state) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::FifoScheduler fifo(cache, sgi, 16);
  const auto tasks = make_tasks(1);
  std::vector<SimTime> free(16, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo.place(tasks[0], free, 0.0));
  }
  // Items are the candidate allocations actually costed.
  state.SetItemsProcessed(static_cast<std::int64_t>(fifo.subsets_tried()));
}
BENCHMARK(BM_FifoPlacement);

void BM_AgentMatchmaking(benchmark::State& state) {
  // eq. 10: n evaluation calls + comparison, through the cache.
  sim::Engine engine;
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  agents::SystemConfig config;
  config.resources = {{"S1", pace::HardwareType::kSgiOrigin2000, 16, -1}};
  agents::AgentSystem system(engine, catalogue, std::move(config), nullptr);
  const agents::Agent& agent = system.agent(0);
  const agents::ServiceInfo info = agent.service_snapshot();
  agents::Request request;
  request.app_name = "jacobi";
  request.environment = "test";
  request.deadline = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.estimate_completion(info, request));
  }
}
BENCHMARK(BM_AgentMatchmaking);

void BM_ServiceInfoXmlRoundTrip(benchmark::State& state) {
  agents::ServiceInfo info;
  info.agent_address = "gem.dcs.warwick.ac.uk";
  info.agent_port = 1000;
  info.local_address = "gem.dcs.warwick.ac.uk";
  info.local_port = 10000;
  info.hardware_type = "SunUltra10";
  info.nproc = 16;
  info.environments = {"mpi", "pvm", "test"};
  info.freetime = 4312.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agents::service_info_from_xml(to_xml(info)));
  }
}
BENCHMARK(BM_ServiceInfoXmlRoundTrip);

void BM_RequestXmlRoundTrip(benchmark::State& state) {
  agents::Request request;
  request.task = TaskId(42);
  request.app_name = "sweep3d";
  request.binary_file = "/gridlb/binary/sweep3d";
  request.input_file = "/gridlb/binary/sweep3d.input";
  request.model_name = "/gridlb/model/sweep3d";
  request.deadline = 437.25;
  request.email = "user@gridlb.sim";
  request.visited = {AgentId(3), AgentId(1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(agents::request_from_xml(to_xml(request)));
  }
}
BENCHMARK(BM_RequestXmlRoundTrip);

// The `--json` report: decode vs evaluate ns at three queue depths, the
// PACE layer costs, and peak RSS — steady_clock, independent of
// google-benchmark's own reporters.
void write_json_report(const std::string& path) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);
  const std::vector<SimTime> idle(16, 0.0);

  std::ofstream out(path);
  benchjson::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "micro_schedulers");
  json.field("schema_version", 1);
  json.begin_array("schedule");
  for (const int count : {20, 200, 600}) {
    const auto tasks = make_tasks(count);
    Rng rng(9);
    const auto solution = sched::SolutionString::random(count, 16, rng);
    const double decode_ns =
        benchjson::measure_ns_per_op([&](std::int64_t iters) {
          for (std::int64_t i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(
                builder.decode(tasks, solution, idle, 0.0));
          }
        });
    sched::DecodeContext context;
    sched::DecodeScratch scratch;
    builder.prepare(context, tasks, idle, 0.0, sched::full_mask(16));
    (void)builder.evaluate(context, solution, scratch);
    const double evaluate_ns =
        benchjson::measure_ns_per_op([&](std::int64_t iters) {
          for (std::int64_t i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(
                builder.evaluate(context, solution, scratch));
          }
        });
    json.begin_object();
    json.field("tasks", count);
    json.field("full_decode_ns", decode_ns);
    json.field("evaluate_ns", evaluate_ns);
    json.field("speedup_vs_full_decode", decode_ns / evaluate_ns);
    json.end_object();
  }
  json.end_array();
  const auto model = pace::make_paper_application("sweep3d");
  int nproc = 1;
  const double raw_ns = benchjson::measure_ns_per_op([&](std::int64_t iters) {
    for (std::int64_t i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(engine.evaluate(*model, sgi, nproc));
      nproc = nproc % 16 + 1;
    }
  });
  const double cached_ns =
      benchjson::measure_ns_per_op([&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(cache.evaluate(*model, sgi, nproc));
          nproc = nproc % 16 + 1;
        }
      });
  json.begin_object("pace");
  json.field("raw_ns", raw_ns);
  json.field("cached_ns", cached_ns);
  json.end_object();
  json.field("peak_rss_bytes", benchjson::peak_rss_bytes());
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      gridlb::benchjson::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) write_json_report(json_path);
  return 0;
}
