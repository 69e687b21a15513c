#include "sched/fifo_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::sched {
namespace {

struct FifoFixture : ::testing::Test {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator{engine};
  pace::ResourceModel sgi =
      pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();

  Task make_task(const char* app, double deadline = 1e6) {
    Task task;
    task.id = TaskId(1);
    task.app = catalogue.find(app);
    task.deadline = deadline;
    return task;
  }
};

// Reference: the paper's enumeration of all 2^n − 1 node subsets with
// the scheduler's objective and tie-breaks (fewer nodes, then the lower
// mask).  Kept here so the width-by-width search is checked against it.
FifoPlacement brute_force_place(pace::CachedEvaluator& evaluator,
                                const pace::ResourceModel& resource,
                                const Task& task,
                                std::span<const SimTime> node_free,
                                SimTime now, NodeMask available,
                                FifoObjective objective) {
  const int n = static_cast<int>(node_free.size());
  FifoPlacement best;
  double best_exec = 0.0;
  bool have_best = false;
  for (std::uint64_t raw = 1; raw <= full_mask(n); ++raw) {
    const auto mask = static_cast<NodeMask>(raw);
    if ((mask & ~available) != 0) continue;
    SimTime start = now;
    for_each_node(mask, [&](int node) {
      start = std::max(start, node_free[static_cast<std::size_t>(node)]);
    });
    const double exec =
        evaluator.evaluate(*task.app, resource, node_count(mask));
    const SimTime end = start + exec;
    bool better;
    bool tie;
    if (objective == FifoObjective::kMinExecution) {
      better = !have_best || exec < best_exec ||
               (exec == best_exec && end < best.end);
      tie = exec == best_exec && end == best.end;
    } else {
      better = !have_best || end < best.end;
      tie = end == best.end;
    }
    if (!better && tie) {
      better = node_count(mask) < node_count(best.mask) ||
               (node_count(mask) == node_count(best.mask) && mask < best.mask);
    }
    if (better) {
      have_best = true;
      best_exec = exec;
      best = FifoPlacement{mask, start, end};
    }
  }
  return best;
}

TEST_F(FifoFixture, MinExecutionPicksFastestAllocation) {
  // cpi's fastest point is 12 processors (2 s); with idle nodes the
  // min-execution FIFO must allocate exactly 12.
  FifoScheduler fifo(evaluator, sgi, 16, FifoObjective::kMinExecution);
  const std::vector<SimTime> idle(16, 0.0);
  const auto placement = fifo.place(make_task("cpi"), idle, 0.0);
  EXPECT_EQ(node_count(placement.mask), 12);
  EXPECT_DOUBLE_EQ(placement.end - placement.start, 2.0);
}

TEST_F(FifoFixture, MinExecutionWaitsForFastAllocationEvenIfSlowerOverall) {
  // Nodes 0..11 are busy until t=100; running cpi on the 4 idle nodes
  // would take 17 s (done by 17), but min-execution FIFO insists on a
  // 12-node allocation and waits.
  FifoScheduler fifo(evaluator, sgi, 16, FifoObjective::kMinExecution);
  std::vector<SimTime> free(16, 0.0);
  for (int i = 0; i < 12; ++i) free[static_cast<std::size_t>(i)] = 100.0;
  const auto placement = fifo.place(make_task("cpi"), free, 0.0);
  EXPECT_EQ(node_count(placement.mask), 12);
  EXPECT_DOUBLE_EQ(placement.end, 102.0);
}

TEST_F(FifoFixture, MinExecutionPrefersEarliestStartAmongEqualExec) {
  // closure takes 2 s at 15 or 16 processors; with node 15 busy the 15-node
  // allocation starts now and must win over waiting for all 16.
  FifoScheduler fifo(evaluator, sgi, 16, FifoObjective::kMinExecution);
  std::vector<SimTime> free(16, 0.0);
  free[15] = 50.0;
  const auto placement = fifo.place(make_task("closure"), free, 0.0);
  EXPECT_DOUBLE_EQ(placement.start, 0.0);
  EXPECT_EQ(node_count(placement.mask), 15);
}

TEST_F(FifoFixture, MinCompletionTradesWidthForStart) {
  // Same situation, min-completion objective: running cpi narrow on idle
  // nodes beats waiting for the wide allocation.
  FifoScheduler fifo(evaluator, sgi, 16, FifoObjective::kMinCompletion);
  std::vector<SimTime> free(16, 0.0);
  for (int i = 0; i < 12; ++i) free[static_cast<std::size_t>(i)] = 100.0;
  const auto placement = fifo.place(make_task("cpi"), free, 0.0);
  EXPECT_DOUBLE_EQ(placement.start, 0.0);
  EXPECT_DOUBLE_EQ(placement.end, 17.0);  // cpi@4 = 17 s
  EXPECT_EQ(placement.mask & 0xFFFu, 0u);  // only idle nodes used
}

TEST_F(FifoFixture, MinCompletionOnIdleMachineMatchesMinExecution) {
  const std::vector<SimTime> idle(16, 0.0);
  FifoScheduler a(evaluator, sgi, 16, FifoObjective::kMinExecution);
  FifoScheduler b(evaluator, sgi, 16, FifoObjective::kMinCompletion);
  for (const auto& name : pace::paper_application_names()) {
    const auto task = make_task(name.c_str());
    EXPECT_DOUBLE_EQ(a.place(task, idle, 0.0).end,
                     b.place(task, idle, 0.0).end)
        << name;
  }
}

TEST_F(FifoFixture, TieBreaksPreferFewerNodesThenLowerMask) {
  // closure at 15 vs 16 processors both take 2 s on an idle machine; the
  // 15-node allocation (fewer nodes) must win, and among the sixteen
  // 15-node subsets the lowest mask (nodes 0..14).
  FifoScheduler fifo(evaluator, sgi, 16, FifoObjective::kMinExecution);
  const std::vector<SimTime> idle(16, 0.0);
  const auto placement = fifo.place(make_task("closure"), idle, 0.0);
  EXPECT_EQ(node_count(placement.mask), 15);
  EXPECT_EQ(placement.mask, full_mask(15));
}

TEST_F(FifoFixture, EnumeratesEverySubset) {
  // The paper tries all 2^16 − 1 allocations.  The scheduler costs one
  // candidate per width and must pick what the full enumeration picks.
  FifoScheduler fifo(evaluator, sgi, 16);
  std::vector<SimTime> free(16, 0.0);
  for (int i = 0; i < 16; i += 3) free[static_cast<std::size_t>(i)] = 7.0;
  std::uint64_t placed = 0;
  for (const auto& name : pace::paper_application_names()) {
    const Task task = make_task(name.c_str());
    const FifoPlacement got = fifo.place(task, free, 0.0);
    const FifoPlacement want =
        brute_force_place(evaluator, sgi, task, free, 0.0, full_mask(16),
                          FifoObjective::kMinExecution);
    EXPECT_EQ(got.mask, want.mask) << name;
    EXPECT_EQ(got.start, want.start) << name;
    EXPECT_EQ(got.end, want.end) << name;
    ++placed;
  }
  EXPECT_EQ(fifo.subsets_tried(), placed * 16u);
  (void)fifo.place(make_task("fft"), free, 0.0, 0b1011'0000'0000'0011u);
  EXPECT_EQ(fifo.subsets_tried(), placed * 16u + 5u);  // five nodes up
}

TEST_F(FifoFixture, ClampsPastFreeTimesToNow) {
  FifoScheduler fifo(evaluator, sgi, 16);
  const std::vector<SimTime> stale(16, -500.0);
  const auto placement = fifo.place(make_task("fft"), stale, 42.0);
  EXPECT_DOUBLE_EQ(placement.start, 42.0);
}

TEST_F(FifoFixture, SmallResource) {
  FifoScheduler fifo(evaluator, sgi, 1);
  const std::vector<SimTime> idle(1, 0.0);
  const auto placement = fifo.place(make_task("sweep3d"), idle, 0.0);
  EXPECT_EQ(placement.mask, 1u);
  EXPECT_DOUBLE_EQ(placement.end, 50.0);
  EXPECT_EQ(fifo.subsets_tried(), 1u);
}

TEST_F(FifoFixture, RejectsMismatchedFreeVector) {
  FifoScheduler fifo(evaluator, sgi, 16);
  const std::vector<SimTime> wrong(4, 0.0);
  EXPECT_THROW((void)fifo.place(make_task("fft"), wrong, 0.0),
               AssertionError);
}

// Property: min-completion FIFO is optimal against brute force over the
// k-earliest-free reduction for every application and load pattern.
class FifoOptimality : public ::testing::TestWithParam<std::string> {};

TEST_P(FifoOptimality, MinCompletionBeatsAllSubsets) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto ultra = pace::ResourceModel::of(pace::HardwareType::kSunUltra1);
  FifoScheduler fifo(evaluator, ultra, 8, FifoObjective::kMinCompletion);
  const auto catalogue = pace::paper_catalogue();
  Task task;
  task.id = TaskId(1);
  task.app = catalogue.find(GetParam());
  task.deadline = 1e6;

  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SimTime> free(8);
    for (auto& f : free) f = rng.uniform(0.0, 50.0);
    const auto placement = fifo.place(task, free, 0.0);
    // Brute force: sort free times; the best completion for width k uses
    // the k earliest-free nodes.
    auto sorted = free;
    std::sort(sorted.begin(), sorted.end());
    double best = 1e300;
    for (int k = 1; k <= 8; ++k) {
      const double exec = task.app->reference_time(k) * ultra.factor;
      best = std::min(best, sorted[static_cast<std::size_t>(k - 1)] + exec);
    }
    EXPECT_DOUBLE_EQ(placement.end, best);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, FifoOptimality,
                         ::testing::ValuesIn(pace::paper_application_names()));

// Property: the width-by-width search picks exactly the enumeration's
// allocation.  Free times come from a small pool so ties are common,
// including pairs one ulp apart that round to the same completion time.
class FifoSearch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoSearch, MatchesBruteForceEnumeration) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto catalogue = pace::paper_catalogue();
  const auto resource = pace::ResourceModel::of(
      GetParam() % 2 == 0 ? pace::HardwareType::kSgiOrigin2000
                          : pace::HardwareType::kSunUltra5);
  const SimTime now = 10.0;
  const SimTime pool[] = {0.0,  now, std::nextafter(now, 1e9), 25.0,
                          25.0, std::nextafter(25.0, 1e9), 40.0, 300.0};

  Rng rng(GetParam() * 4099 + 7);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    std::vector<SimTime> free(static_cast<std::size_t>(n));
    for (auto& f : free) f = pool[rng.next_below(std::size(pool))];
    auto available = static_cast<NodeMask>(rng.next_u64()) & full_mask(n);
    if (available == 0 || rng.chance(0.3)) available = full_mask(n);
    Task task;
    task.id = TaskId(1);
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    task.deadline = 1e6;
    for (const FifoObjective objective :
         {FifoObjective::kMinExecution, FifoObjective::kMinCompletion}) {
      FifoScheduler fifo(evaluator, resource, n, objective);
      const FifoPlacement got = fifo.place(task, free, now, available);
      const FifoPlacement want =
          brute_force_place(evaluator, resource, task, free, now, available,
                            objective);
      EXPECT_EQ(got.mask, want.mask) << "trial " << trial;
      EXPECT_EQ(got.start, want.start) << "trial " << trial;
      EXPECT_EQ(got.end, want.end) << "trial " << trial;
      EXPECT_EQ(fifo.subsets_tried(),
                static_cast<std::uint64_t>(node_count(available)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoSearch,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace gridlb::sched
