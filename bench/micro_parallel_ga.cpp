// Serial-vs-parallel GA evaluation throughput (google-benchmark).
//
// The GA spends nearly all of its time in the evaluate phase — decode +
// cost for every individual, every generation.  These benches measure that
// phase's decode throughput on the paper's 16-node resource workload at
// 1/2/4/8 evaluate threads, both as a raw parallel sweep over a
// population (BM_PopulationDecode for the legacy self-contained decode,
// BM_PopulationEvaluate for the DESIGN.md §11 hot path: prepared context +
// metrics-only evaluate) and end-to-end through GaScheduler::optimize
// (BM_GaOptimize).  items_per_second is decodes/s; the ratio of the
// 4-thread row to the 1-thread row is the speedup reported in
// BENCH_*.json.  All rows use real (wall-clock) time — thread-CPU time
// under-reports a parallel region.  (On a single-core host all rows
// converge — eval_threads=1 takes the exact serial code path, so the
// comparison there is a measure of pool overhead.)
//
// `--json <path>` additionally writes the machine-readable hot-path report
// (steady_clock, independent of google-benchmark): on the 600-task
// case-study workload, ns/decode for the legacy full decode, the forced
// from-scratch evaluate and the unchanged-genome evaluate (DESIGN.md §11),
// GA decode/memo/table-read counters, cache traffic, peak RSS, and the
// derived speedup_vs_full_decode ratio that
// tools/ci/check_bench_regression.py gates on.

#include <benchmark/benchmark.h>

#include <fstream>

#include "common/thread_pool.hpp"
#include "gridlb.hpp"
#include "json_bench.hpp"

namespace {

using namespace gridlb;

// The paper's local-scheduler workload: a 16-node SGI Origin2000 and a
// pending queue drawn from the Table 1 application mix.
std::vector<sched::Task> make_tasks(int count) {
  static const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  Rng rng(2003);
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

// Legacy decode throughput of one population sweep at `threads` workers:
// every decode is self-contained (re-snapshots the prediction table and
// allocates its placements vector).  Kept as the in-run reference the hot
// path is measured against.
void BM_PopulationDecode(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kPopulation = 50;
  constexpr int kTasks = 20;

  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);
  const auto tasks = make_tasks(kTasks);
  const std::vector<SimTime> idle(16, 0.0);

  Rng rng(7);
  std::vector<sched::SolutionString> population;
  for (int k = 0; k < kPopulation; ++k) {
    population.push_back(sched::SolutionString::random(kTasks, 16, rng));
  }

  ThreadPool pool(threads);
  std::vector<double> costs(population.size());
  const sched::CostWeights weights;
  for (auto _ : state) {
    pool.parallel_for(
        static_cast<int>(population.size()), [&](int begin, int end, int) {
          for (int k = begin; k < end; ++k) {
            const auto decoded = builder.decode(
                tasks, population[static_cast<std::size_t>(k)], idle, 0.0);
            costs[static_cast<std::size_t>(k)] = cost_value(decoded, weights);
          }
        });
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(state.iterations() * kPopulation);
}
BENCHMARK(BM_PopulationDecode)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// The GA's actual steady-state evaluate phase (DESIGN.md §11): one
// prepared DecodeContext shared read-only by all workers, per-slot
// DecodeScratch arenas, metrics-only evaluate — zero allocations and zero
// lock acquisitions per individual.
void BM_PopulationEvaluate(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kPopulation = 50;
  constexpr int kTasks = 20;

  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);
  const auto tasks = make_tasks(kTasks);
  const std::vector<SimTime> idle(16, 0.0);

  Rng rng(7);
  std::vector<sched::SolutionString> population;
  for (int k = 0; k < kPopulation; ++k) {
    population.push_back(sched::SolutionString::random(kTasks, 16, rng));
  }

  ThreadPool pool(threads);
  sched::DecodeContext context;
  builder.prepare(context, tasks, idle, 0.0, sched::full_mask(16));
  std::vector<sched::DecodeScratch> scratches(
      static_cast<std::size_t>(pool.size() > 0 ? pool.size() : 1));
  std::vector<double> costs(population.size());
  const sched::CostWeights weights;
  for (auto _ : state) {
    pool.parallel_for(
        static_cast<int>(population.size()),
        [&](int begin, int end, int slot) {
          auto& scratch = scratches[static_cast<std::size_t>(slot)];
          for (int k = begin; k < end; ++k) {
            const auto metrics = builder.evaluate(
                context, population[static_cast<std::size_t>(k)], scratch);
            costs[static_cast<std::size_t>(k)] = cost_value(metrics, weights);
          }
        });
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(state.iterations() * kPopulation);
}
BENCHMARK(BM_PopulationEvaluate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// End-to-end optimize() at the paper's settings with eval_threads set;
// selection/crossover/mutation stay serial, so this shows the net effect
// on a whole GA invocation (Amdahl included).
void BM_GaOptimize(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));

  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);
  const auto tasks = make_tasks(20);
  const std::vector<SimTime> idle(16, 0.0);

  sched::GaConfig config;
  config.generations = 10;
  config.eval_threads = threads;
  sched::GaScheduler scheduler(builder, config, 11);

  std::uint64_t decodes = 0;
  for (auto _ : state) {
    const auto result = scheduler.optimize(tasks, idle, 0.0);
    decodes += result.decodes + result.memo_hits;
    benchmark::DoNotOptimize(result.best_cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decodes));
}
BENCHMARK(BM_GaOptimize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// The `--json` report: the ISSUE's acceptance numbers, measured with
// steady_clock on the 600-task case-study workload.
void write_hotpath_report(const std::string& path) {
  constexpr int kTasks = 600;
  constexpr int kNodes = 16;

  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, kNodes);
  const auto tasks = make_tasks(kTasks);
  const std::vector<SimTime> idle(kNodes, 0.0);
  Rng rng(17);
  const auto solution = sched::SolutionString::random(kTasks, kNodes, rng);

  // Best-of-7 with ≥0.15 s batches: the report feeds a CI regression gate,
  // so favour repeatability over wall time (~4 s total).
  constexpr int kReps = 7;
  constexpr double kBatchSeconds = 0.15;

  // Legacy self-contained full decode — the pre-PR evaluation path.
  const double full_decode_ns = benchjson::measure_ns_per_op(
      [&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(builder.decode(tasks, solution, idle, 0.0));
        }
      },
      kReps, kBatchSeconds);

  // From-scratch rebuild under a prepared context: evaluate_from with span
  // 0 forces the full decode loop every iteration — the cost of every
  // evaluation the GA actually performs.
  sched::DecodeContext context;
  sched::DecodeScratch scratch;
  builder.prepare(context, tasks, idle, 0.0, sched::full_mask(kNodes));
  (void)builder.evaluate(context, solution, scratch);  // size the scratch
  const double full_evaluate_ns = benchjson::measure_ns_per_op(
      [&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(
              builder.evaluate_from(context, solution, scratch, 0));
        }
      },
      kReps, kBatchSeconds);

  // Hot path: context prepared once, metrics-only evaluate per individual.
  // evaluate() diffs the genome against the scratch's recorded stream, so
  // the steady state here (same genome every iteration) is the
  // unchanged-genome short-circuit: one stream scan and the cached metrics.
  const double evaluate_ns = benchjson::measure_ns_per_op(
      [&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(
              builder.evaluate(context, solution, scratch));
        }
      },
      kReps, kBatchSeconds);

  // Winner decode under the prepared context (runs once per GA call).
  const double context_decode_ns = benchjson::measure_ns_per_op(
      [&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(builder.decode(context, solution, scratch));
        }
      },
      kReps, kBatchSeconds);

  // One GA run at the paper's settings for the memo/table counters.
  const auto ga_tasks = make_tasks(20);
  sched::GaConfig config;
  config.population_size = 50;
  config.generations = 50;
  sched::GaScheduler scheduler(builder, config, 11);
  const auto ga = scheduler.optimize(ga_tasks, idle, 0.0);
  const std::uint64_t ga_evaluations = ga.decodes + ga.memo_hits;

  const auto& stats = cache.stats();

  std::ofstream out(path);
  benchjson::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "micro_parallel_ga");
  json.field("schema_version", 3);
  json.begin_object("workload");
  json.field("tasks", kTasks);
  json.field("nodes", kNodes);
  json.field("resource", "SgiOrigin2000");
  json.end_object();
  json.begin_object("full_decode");
  json.field("ns_per_decode", full_decode_ns);
  json.field("decodes_per_second", 1e9 / full_decode_ns);
  json.end_object();
  json.begin_object("full_evaluate");
  json.field("ns_per_evaluate", full_evaluate_ns);
  json.field("evaluates_per_second", 1e9 / full_evaluate_ns);
  json.end_object();
  json.begin_object("hot_path_evaluate");
  json.field("path", "incremental: unchanged-genome steady state");
  json.field("ns_per_evaluate", evaluate_ns);
  json.field("evaluates_per_second", 1e9 / evaluate_ns);
  json.end_object();
  json.begin_object("context_decode");
  json.field("ns_per_decode", context_decode_ns);
  json.end_object();
  json.field("speedup_vs_full_decode", full_decode_ns / evaluate_ns);
  json.begin_object("ga");
  json.field("population", config.population_size);
  json.field("generations", config.generations);
  json.field("evaluations", ga_evaluations);
  json.field("decodes", ga.decodes);
  json.field("memo_hits", ga.memo_hits);
  json.field("memo_hit_rate", static_cast<double>(ga.memo_hits) /
                                  static_cast<double>(ga_evaluations));
  json.field("table_reads", ga.table_reads);
  json.field("eval_threads", ga.eval_threads);
  json.end_object();
  json.begin_object("cache");
  json.field("hits", static_cast<std::uint64_t>(stats.hits));
  json.field("misses", static_cast<std::uint64_t>(stats.misses));
  json.field("engine_evaluations", engine.evaluations());
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
  if (!json_path.empty()) write_hotpath_report(json_path);
  return 0;
}
