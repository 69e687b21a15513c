// Verifies the DESIGN.md §11 claim directly: steady-state GA evaluation
// (context prepared once, then metrics-only evaluate per individual)
// performs zero heap allocations.
//
// The hook is a replacement global operator new that bumps a thread-local
// counter while armed.  Replacing it in one TU replaces it for the whole
// test binary, but unarmed it is behaviourally identical to the default
// (malloc-backed) allocator, so the other suites are unaffected; it also
// composes with ASan/TSan, which interpose at the malloc layer below.
// Every allocating form is replaced, the std::nothrow_t ones included
// (std::stable_sort's buffer comes from nothrow new), so no block is ever
// made by one allocator and freed by another.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "pace/paper_applications.hpp"
#include "sched/ga_scheduler.hpp"

namespace {
thread_local bool g_counting = false;
thread_local std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gridlb::sched {
namespace {

std::vector<Task> random_tasks(const pace::ApplicationCatalogue& catalogue,
                               int count, Rng& rng) {
  std::vector<Task> tasks;
  for (int i = 0; i < count; ++i) {
    Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i) + 1);
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    task.deadline = rng.uniform(50.0, 500.0);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(AllocFree, SteadyStateEvaluationDoesNotAllocate) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 16;
  ScheduleBuilder builder(evaluator, sgi, nodes);
  const auto catalogue = pace::paper_catalogue();

  Rng rng(11);
  const auto tasks = random_tasks(catalogue, 40, rng);
  const std::vector<SimTime> free(static_cast<std::size_t>(nodes), 0.0);

  std::vector<SolutionString> population;
  for (int k = 0; k < 64; ++k) {
    population.push_back(SolutionString::random(40, nodes, rng));
  }

  DecodeContext context;
  DecodeScratch scratch;
  builder.prepare(context, tasks, free, 0.0, full_mask(nodes));
  // Warm-up sizes the scratch's gap buffer to the run's worst case.
  (void)builder.evaluate(context, population.front(), scratch);

  CostWeights weights;
  double sink = 0.0;
  g_allocations = 0;
  g_counting = true;
  for (const auto& solution : population) {
    const ScheduleMetrics metrics =
        builder.evaluate(context, solution, scratch);
    sink += cost_value(metrics, weights);
    // The per-individual memo key is part of the hot path too.
    sink += static_cast<double>(solution.fingerprint().lo & 1u);
  }
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_GT(sink, 0.0);  // keep the loop observable
}

TEST(AllocFree, MutateReportsItsSpanWithoutAllocating) {
  Rng rng(5);
  auto solution = SolutionString::random(40, 16, rng);
  long spans = 0;
  g_allocations = 0;
  g_counting = true;
  for (int k = 0; k < 64; ++k) spans += solution.mutate(0.5, 0.05, rng);
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_LT(spans, 64L * 40);  // some mutation changed something
}

// Counts the allocations of one warm optimize call (a second call on the
// same task set, after a first call has grown every buffer) with the
// nodes in `available` usable.
std::uint64_t warm_optimize_allocations(int generations, NodeMask available) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 16;
  ScheduleBuilder builder(evaluator, sgi, nodes);
  const auto catalogue = pace::paper_catalogue();

  Rng rng(17);
  const auto tasks = random_tasks(catalogue, 12, rng);
  const std::vector<SimTime> free(static_cast<std::size_t>(nodes), 0.0);

  GaConfig config;
  config.generations = generations;
  GaScheduler ga(builder, config, 23);
  (void)ga.optimize(tasks, free, 0.0, available);

  g_allocations = 0;
  g_counting = true;
  const GaResult result = ga.optimize(tasks, free, 0.0, available);
  g_counting = false;
  EXPECT_EQ(result.generations_run, generations);
  return g_allocations;
}

TEST(AllocFree, WarmOptimizeBreedsWithoutAllocating) {
  // Whatever one call allocates (re-prepare, task-set sync, greedy seeds,
  // the result), it allocates once per call: 20 more generations of
  // selection, crossover, mutation and triage add no allocation, also
  // when a down node makes every bred child go through constrain.
  const NodeMask all = full_mask(16);
  for (const NodeMask available : {all, all & ~NodeMask{1}}) {
    const std::uint64_t short_run = warm_optimize_allocations(5, available);
    const std::uint64_t long_run = warm_optimize_allocations(25, available);
    EXPECT_EQ(short_run, long_run) << "available " << available;
    EXPECT_GT(short_run, 0u);  // the counter is live inside optimize
  }
}

TEST(AllocFree, RepreparingSameShapeContextDoesNotAllocate) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 16;
  ScheduleBuilder builder(evaluator, sgi, nodes);
  const auto catalogue = pace::paper_catalogue();

  Rng rng(13);
  const auto tasks = random_tasks(catalogue, 24, rng);
  std::vector<SimTime> free(static_cast<std::size_t>(nodes), 0.0);

  DecodeContext context;
  builder.prepare(context, tasks, free, 0.0, full_mask(nodes));

  // Successive runs over the same application mix reuse the context's and
  // table's capacity: the re-prepare is allocation-free as well.
  for (auto& f : free) f += 5.0;
  g_allocations = 0;
  g_counting = true;
  builder.prepare(context, tasks, free, 5.0, full_mask(nodes));
  g_counting = false;
  EXPECT_EQ(g_allocations, 0u);
}

}  // namespace
}  // namespace gridlb::sched
