#include "sched/fifo_scheduler.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace gridlb::sched {

FifoScheduler::FifoScheduler(pace::CachedEvaluator& evaluator,
                             pace::ResourceModel resource, int node_count,
                             FifoObjective objective)
    : evaluator_(&evaluator),
      resource_(resource),
      node_count_(node_count),
      objective_(objective) {
  GRIDLB_REQUIRE(node_count >= 1 && node_count <= kMaxNodesPerResource,
                 "node count out of range");
  evaluator_->snapshot(table_, resource_, node_count_);
}

FifoPlacement FifoScheduler::place(const Task& task,
                                   std::span<const SimTime> node_free,
                                   SimTime now) {
  return place(task, node_free, now, full_mask(node_count_));
}

FifoPlacement FifoScheduler::place(const Task& task,
                                   std::span<const SimTime> node_free,
                                   SimTime now, NodeMask available) {
  GRIDLB_REQUIRE(static_cast<int>(node_free.size()) == node_count_,
                 "node_free size mismatch");
  GRIDLB_REQUIRE(valid_mask(available, node_count_),
                 "place needs at least one available node");

  std::array<SimTime, kMaxNodesPerResource> free{};
  for (int i = 0; i < node_count_; ++i) {
    free[static_cast<std::size_t>(i)] =
        std::max(node_free[static_cast<std::size_t>(i)], now);
  }
  // One prediction row per application, materialised through the cache on
  // first sight and then reused lock-free; the subset loop only combines
  // row values.  Re-fetched per place() because a new application's row
  // build may relocate the table's storage.
  const double* exec_row = table_.ensure_row(*evaluator_, *task.app);
  table_reads_ += static_cast<std::uint64_t>(node_count_);

  // Width-by-width search, equal to enumerating all 2^n − 1 subsets:
  // execution time depends only on the width k and a subset starts when
  // its latest node comes free, so the earliest end for width k is s_k +
  // exec_k, s_k being the k-th smallest free time among available nodes.
  // The enumeration's winner is the lexicographic minimum of (exec, end,
  // width, mask) for kMinExecution and of (end, width, mask) for
  // kMinCompletion; widths differ across candidates, so the mask only
  // matters within the winning width, where it is computed once.
  std::array<SimTime, kMaxNodesPerResource> sorted{};
  std::size_t usable = 0;
  for_each_node(available, [&](int node) {
    sorted[usable++] = free[static_cast<std::size_t>(node)];
  });
  std::sort(sorted.begin(),
            sorted.begin() + static_cast<std::ptrdiff_t>(usable));

  int best_k = 0;
  double best_exec = 0.0;
  SimTime best_end = 0.0;
  for (std::size_t k = 1; k <= usable; ++k) {
    ++subsets_tried_;
    const double exec = exec_row[k - 1];
    const SimTime end = sorted[k - 1] + exec;
    const bool better =
        best_k == 0 ||
        (objective_ == FifoObjective::kMinExecution
             ? exec < best_exec || (exec == best_exec && end < best_end)
             : end < best_end);
    if (better) {
      best_k = static_cast<int>(k);
      best_exec = exec;
      best_end = end;
    }
  }
  GRIDLB_ASSERT(best_k > 0);

  // Lowest mask of the winning width: its k lowest-indexed nodes among
  // those that still end at best_end.  That is every node free by s_k,
  // plus any later one whose start rounds to the same end.
  FifoPlacement best{0, now, best_end};
  int taken = 0;
  for_each_node(available, [&](int node) {
    const SimTime free_at = free[static_cast<std::size_t>(node)];
    if (taken == best_k || free_at + best_exec > best_end) return;
    best.mask |= NodeMask{1} << node;
    best.start = std::max(best.start, free_at);
    ++taken;
  });
  GRIDLB_ASSERT(taken == best_k);
  return best;
}

}  // namespace gridlb::sched
