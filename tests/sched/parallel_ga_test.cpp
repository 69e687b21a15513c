// The determinism contract of parallel evaluation (DESIGN.md): for a
// fixed seed, GaScheduler::optimize must produce bit-for-bit identical
// results whatever `eval_threads` is — only the evaluate phase runs on
// the pool, and nothing in it touches the GA's random stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"
#include "sched/ga_scheduler.hpp"

namespace gridlb::sched {
namespace {

struct ParallelGaFixture : ::testing::Test {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator{engine};
  pace::ResourceModel sgi =
      pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  ScheduleBuilder builder{evaluator, sgi, 16};
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  std::vector<SimTime> idle = std::vector<SimTime>(16, 0.0);

  std::vector<Task> make_tasks(int count, std::uint64_t seed = 1) {
    Rng rng(seed);
    std::vector<Task> tasks;
    for (int i = 0; i < count; ++i) {
      Task task;
      task.id = TaskId(static_cast<std::uint64_t>(i) + 1);
      task.app = catalogue.all()[static_cast<std::size_t>(
          rng.next_below(catalogue.size()))];
      const auto domain = task.app->deadline_domain();
      task.deadline = rng.uniform(domain.lo, domain.hi);
      tasks.push_back(std::move(task));
    }
    return tasks;
  }

  static void expect_identical(const GaResult& serial,
                               const GaResult& parallel) {
    EXPECT_EQ(serial.best, parallel.best);
    EXPECT_EQ(serial.best_cost, parallel.best_cost);  // bit-for-bit
    EXPECT_EQ(serial.generations_run, parallel.generations_run);
    EXPECT_EQ(serial.decodes, parallel.decodes);
    EXPECT_EQ(serial.memo_hits, parallel.memo_hits);
    EXPECT_EQ(serial.table_reads, parallel.table_reads);
    // The short-circuit/rebuild split must not move with the thread count
    // either.
    EXPECT_EQ(serial.delta_evals, parallel.delta_evals);
    EXPECT_EQ(serial.full_evals, parallel.full_evals);
    EXPECT_EQ(serial.delta_evals + serial.full_evals, serial.decodes);
    ASSERT_EQ(serial.schedule.placements.size(),
              parallel.schedule.placements.size());
    for (std::size_t i = 0; i < serial.schedule.placements.size(); ++i) {
      EXPECT_EQ(serial.schedule.placements[i].start,
                parallel.schedule.placements[i].start);
      EXPECT_EQ(serial.schedule.placements[i].end,
                parallel.schedule.placements[i].end);
      EXPECT_EQ(serial.schedule.placements[i].mask,
                parallel.schedule.placements[i].mask);
    }
    EXPECT_EQ(serial.schedule.makespan, parallel.schedule.makespan);
    EXPECT_EQ(serial.schedule.weighted_idle, parallel.schedule.weighted_idle);
    EXPECT_EQ(serial.schedule.contract_penalty,
              parallel.schedule.contract_penalty);
  }
};

TEST_F(ParallelGaFixture, ConfigValidationRejectsNegativeThreads) {
  GaConfig bad;
  bad.eval_threads = -1;
  EXPECT_THROW(GaScheduler(builder, bad, 1), AssertionError);
}

TEST_F(ParallelGaFixture, ThreadCountResolution) {
  GaConfig config;
  config.eval_threads = 1;
  EXPECT_EQ(GaScheduler(builder, config, 1).eval_threads(), 1);
  config.eval_threads = 4;
  EXPECT_EQ(GaScheduler(builder, config, 1).eval_threads(), 4);
  config.eval_threads = 0;  // hardware concurrency, capped by population
  const int resolved = GaScheduler(builder, config, 1).eval_threads();
  EXPECT_GE(resolved, 1);
  EXPECT_LE(resolved, std::max(ThreadPool::hardware_threads(),
                               config.population_size));
  config.eval_threads = 1000;  // more threads than individuals: capped
  EXPECT_LE(GaScheduler(builder, config, 1).eval_threads(),
            config.population_size);
}

TEST_F(ParallelGaFixture, ResultRecordsEffectiveThreadCount) {
  const auto tasks = make_tasks(6);
  GaConfig config;
  config.eval_threads = 3;
  GaScheduler three(builder, config, 1);
  EXPECT_EQ(three.optimize(tasks, idle, 0.0).eval_threads, 3);
  config.eval_threads = 1;
  GaScheduler one(builder, config, 1);
  EXPECT_EQ(one.optimize(tasks, idle, 0.0).eval_threads, 1);
}

TEST_F(ParallelGaFixture, FourThreadsMatchSerialExactly) {
  const auto tasks = make_tasks(12);
  for (const std::uint64_t seed : {1ULL, 42ULL, 2003ULL}) {
    GaConfig serial_config;
    serial_config.eval_threads = 1;
    GaConfig parallel_config;
    parallel_config.eval_threads = 4;
    GaScheduler serial(builder, serial_config, seed);
    GaScheduler parallel(builder, parallel_config, seed);
    expect_identical(serial.optimize(tasks, idle, 0.0),
                     parallel.optimize(tasks, idle, 0.0));
  }
}

TEST_F(ParallelGaFixture, DeterminismHoldsAcrossWarmStartedInvocations) {
  // Re-invocations exercise sync_population (remap + fresh arrivals),
  // which consumes rng_ on the main thread; the parallel evaluate phase
  // must not perturb it.
  GaConfig serial_config;
  serial_config.eval_threads = 1;
  serial_config.generations = 10;
  GaConfig parallel_config = serial_config;
  parallel_config.eval_threads = 4;
  GaScheduler serial(builder, serial_config, 7);
  GaScheduler parallel(builder, parallel_config, 7);

  auto tasks = make_tasks(10);
  expect_identical(serial.optimize(tasks, idle, 0.0),
                   parallel.optimize(tasks, idle, 0.0));

  // Drop the first two tasks and add three fresh arrivals.
  tasks.erase(tasks.begin(), tasks.begin() + 2);
  auto arrivals = make_tasks(3, 99);
  for (auto& task : arrivals) {
    task.id = TaskId(task.id.value() + 100);
    tasks.push_back(task);
  }
  expect_identical(serial.optimize(tasks, idle, 50.0),
                   parallel.optimize(tasks, idle, 50.0));
}

TEST_F(ParallelGaFixture, DeterminismHoldsUnderAvailabilityMask) {
  const auto tasks = make_tasks(8);
  const NodeMask available = 0x00FF;  // half the resource is down
  GaConfig serial_config;
  serial_config.eval_threads = 1;
  GaConfig parallel_config;
  parallel_config.eval_threads = 4;
  GaScheduler serial(builder, serial_config, 5);
  GaScheduler parallel(builder, parallel_config, 5);
  expect_identical(serial.optimize(tasks, idle, 0.0, available),
                   parallel.optimize(tasks, idle, 0.0, available));
}

}  // namespace
}  // namespace gridlb::sched
