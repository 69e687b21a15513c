// Unchanged-genome short-circuit properties (DESIGN.md §11).
//
// Three contracts keep the short-circuit honest:
//   1. the change position mutate() reports equals the brute-force
//      first-changed position of the genome diff,
//   2. evaluate / evaluate_from over chains of bred genomes — rebuilt or
//      short-circuited — are bit-for-bit the metrics of a full rebuild,
//      and
//   3. the GA's short-circuit/rebuild accounting partitions its decode
//      count.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "pace/paper_applications.hpp"
#include "sched/ga_scheduler.hpp"
#include "sched/schedule_builder.hpp"

namespace gridlb::sched {
namespace {

/// Brute-force change position: first position whose (task, mask) pair differs
/// between `before` and `after` — exactly what a left-to-right decode
/// fold is sensitive to.
int brute_force_span(const SolutionString& before,
                     const SolutionString& after) {
  const int m = before.task_count();
  for (int p = 0; p < m; ++p) {
    const int t = before.task_at(p);
    if (t != after.task_at(p) || before.mask_of(t) != after.mask_of(t)) {
      return p;
    }
  }
  return m;
}

class OperatorSpans : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OperatorSpans, ReportedSpanMatchesBruteForceDiff) {
  Rng rng(GetParam() * 6151 + 1);
  // High, low and zero rates: many changes, rare changes (the span often
  // lands late or reads "unchanged") and none at all.
  const double rates[][2] = {{0.5, 0.1}, {0.2, 0.005}, {0.0, 0.0}};
  for (int round = 0; round < 40; ++round) {
    const int m = static_cast<int>(rng.next_below(30));  // includes empty
    const int nodes = 1 + static_cast<int>(rng.next_below(16));
    const auto parent = SolutionString::random(m, nodes, rng);
    for (const auto& rate : rates) {
      SolutionString mutated = parent;
      const int mutate_span = mutated.mutate(rate[0], rate[1], rng);
      EXPECT_EQ(mutate_span, brute_force_span(parent, mutated));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorSpans,
                         ::testing::Range<std::uint64_t>(1, 11));

// Random chains of bred genomes: each step's evaluate_from (with the
// position mutate() reports when it alone changed the genome, else 0),
// a repeat evaluate_from claiming "unchanged", and a diff-scanning
// evaluate() must all equal a from-scratch rebuild bit-for-bit.
// EXPECT_EQ on doubles is deliberate — identical arithmetic, not just
// close.
class DeltaEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaEquivalence, ChainedDeltaEvaluationsMatchFullRebuilds) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 8;
  ScheduleBuilder builder(evaluator, sgi, nodes);
  const auto catalogue = pace::paper_catalogue();

  Rng rng(GetParam() * 7907 + 3);
  const int m = 1 + static_cast<int>(rng.next_below(40));
  std::vector<Task> tasks;
  for (int i = 0; i < m; ++i) {
    Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i));
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    task.deadline = rng.uniform(0.0, 400.0);
    tasks.push_back(std::move(task));
  }
  std::vector<SimTime> free(static_cast<std::size_t>(nodes));
  for (auto& f : free) f = rng.uniform(0.0, 60.0);

  DecodeContext context;
  builder.prepare(context, tasks, free, 5.0, full_mask(nodes));

  DecodeScratch delta_scratch;
  DecodeScratch full_scratch;
  auto solution = SolutionString::random(m, nodes, rng);
  auto mate = SolutionString::random(m, nodes, rng);
  // Seed the delta scratch's recorded stream.
  (void)builder.evaluate(context, solution, delta_scratch);

  const auto expect_full = [](const ScheduleMetrics& got,
                              const DecodedSchedule& full) {
    EXPECT_EQ(got.completion, full.completion);
    EXPECT_EQ(got.makespan, full.makespan);
    EXPECT_EQ(got.total_idle, full.total_idle);
    EXPECT_EQ(got.weighted_idle, full.weighted_idle);
    EXPECT_EQ(got.contract_penalty, full.contract_penalty);
    EXPECT_EQ(got.mean_completion, full.mean_completion);
    EXPECT_EQ(got.deadline_misses, full.deadline_misses);
  };
  for (int step = 0; step < 30; ++step) {
    // Breed the next genome from the current one the way the GA does.
    // mutate()'s position is exact only against the genome the scratch
    // recorded, so after crossover or constrain the step claims nothing.
    int span = 0;
    SolutionString next = solution;
    if (rng.chance(0.5)) {
      next = solution.crossover(mate, rng);
      next.mutate(0.4, 0.05, rng);
    } else {
      span = next.mutate(0.4, 0.02, rng);
    }
    if (rng.chance(0.25)) {
      auto allowed = static_cast<NodeMask>(rng.next_u64()) & full_mask(nodes);
      if (allowed == 0) allowed = 1;
      next.constrain(allowed, rng);
      span = 0;
    }

    // decode() always rebuilds from scratch — the bit-exact reference.
    const DecodedSchedule full = builder.decode(context, next, full_scratch);
    expect_full(builder.evaluate_from(context, next, delta_scratch, span),
                full);
    expect_full(builder.evaluate_from(context, next, delta_scratch, m), full);
    expect_full(builder.evaluate(context, next, delta_scratch), full);

    solution = std::move(next);
    if (step % 7 == 3) mate = SolutionString::random(m, nodes, rng);
  }
  // The chain must have exercised both paths.
  EXPECT_GT(delta_scratch.delta_evals, 0u);
  EXPECT_GT(delta_scratch.full_evals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

// An "unchanged" claim only holds under the context the scratch recorded:
// after a new prepare(), even of the same context object with the same
// task count, evaluate_from must rebuild.
TEST(DeltaAccounting, StaleContextClaimRebuilds) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 8;
  ScheduleBuilder builder(evaluator, sgi, nodes);
  const auto catalogue = pace::paper_catalogue();
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i));
    task.app = catalogue.all()[static_cast<std::size_t>(i) % catalogue.size()];
    task.deadline = 100.0;
    tasks.push_back(std::move(task));
  }
  Rng rng(29);
  const auto solution = SolutionString::random(6, nodes, rng);
  const std::vector<SimTime> idle(static_cast<std::size_t>(nodes), 0.0);
  const std::vector<SimTime> busy(static_cast<std::size_t>(nodes), 40.0);

  DecodeContext context;
  DecodeScratch scratch;
  builder.prepare(context, tasks, idle, 0.0, full_mask(nodes));
  (void)builder.evaluate(context, solution, scratch);
  builder.prepare(context, tasks, busy, 0.0, full_mask(nodes));
  const ScheduleMetrics got =
      builder.evaluate_from(context, solution, scratch, 6);
  const DecodedSchedule want = builder.decode(tasks, solution, busy, 0.0);

  EXPECT_EQ(scratch.delta_evals, 0u);
  EXPECT_EQ(scratch.full_evals, 2u);
  EXPECT_EQ(got.completion, want.completion);
  EXPECT_EQ(got.weighted_idle, want.weighted_idle);
}

TEST(DeltaAccounting, GaSplitsDecodesIntoDeltaAndFull) {
  pace::EvaluationEngine engine;
  pace::CachedEvaluator evaluator(engine);
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  ScheduleBuilder builder(evaluator, sgi, 16);
  const auto catalogue = pace::paper_catalogue();

  Rng rng(2003);
  std::vector<Task> tasks;
  for (int i = 0; i < 24; ++i) {
    Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i) + 1);
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    const auto domain = task.app->deadline_domain();
    task.deadline = rng.uniform(domain.lo, domain.hi);
    tasks.push_back(std::move(task));
  }
  const std::vector<SimTime> idle(16, 0.0);

  GaConfig config;
  config.generations = 25;
  config.eval_threads = 1;
  GaScheduler ga(builder, config, 11);
  const GaResult result = ga.optimize(tasks, idle, 0.0);

  // Every evaluation is exactly one of short-circuit or rebuild.  The memo
  // resolves every genome already costed this run before evaluation, so
  // under the GA every decode is a rebuild.
  EXPECT_EQ(result.delta_evals + result.full_evals, result.decodes);
  EXPECT_EQ(result.delta_evals, 0u);
  EXPECT_GT(result.full_evals, 0u);
  EXPECT_EQ(ga.total_delta_evals() + ga.total_full_evals(),
            ga.total_decodes());
}

}  // namespace
}  // namespace gridlb::sched
