// Decoding a solution string into a concrete schedule (Gantt chart).
//
// Implements the paper's schedule semantics: tasks are laid out in the
// ordering part's sequence; each task starts at the earliest moment all of
// its allocated nodes are simultaneously free ("a start time at which the
// allocated nodes all begin to execute the task in unison", eq. 6) and
// completes after the PACE-predicted execution time t_x(ρ_j, σ_j).
//
// Alongside the placements the decoder produces the three raw metrics the
// GA's cost function combines (eq. 8):
//   ω  makespan — latest completion, relative to `now` (eq. 7),
//   φ  front-weighted idle time — "idle time at the front of the schedule
//      is particularly undesirable … solutions that have large idle times
//      are penalised by weighting pockets of idle time",
//   θ  contract penalty — total deadline overrun Σ max(0, η_j − δ_j).
//
// Two decoding paths share one implementation (DESIGN.md §11):
//   * evaluate() — metrics only, the GA's hot path.  All genome-invariant
//     work (prediction-table snapshot, per-task rows, clamped node
//     availability) is hoisted into a DecodeContext by prepare(), and all
//     mutable buffers live in a caller-owned DecodeScratch, so steady-state
//     evaluation performs zero heap allocations and zero lock acquisitions.
//   * decode() — evaluate() plus the per-task placements, run once for the
//     winning solution (and by tests/tools that want the full Gantt view).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "pace/evaluation_engine.hpp"
#include "sched/solution.hpp"
#include "sched/task.hpp"

namespace gridlb::sched {

/// Where one task landed in the decoded schedule.
struct TaskPlacement {
  SimTime start = 0.0;  ///< τ_j (absolute)
  SimTime end = 0.0;    ///< η_j (absolute)
  NodeMask mask = 0;    ///< ρ_j
};

/// The cost-function inputs of one decoded schedule — everything the GA
/// needs to rank an individual, with no per-task storage.
struct ScheduleMetrics {
  SimTime completion = 0.0;  ///< absolute latest completion (max η_j)
  double makespan = 0.0;     ///< ω: completion − now (0 for empty schedules)
  double total_idle = 0.0;   ///< unweighted idle seconds across all nodes
  double weighted_idle = 0.0;  ///< φ: front-weighted idle
  double contract_penalty = 0.0;  ///< θ: Σ max(0, η_j − δ_j)
  double mean_completion = 0.0;   ///< Φ: mean of (η_j − now), the flowtime
  int deadline_misses = 0;
};

/// A fully-decoded schedule: the metrics plus its cost-function inputs.
struct DecodedSchedule : ScheduleMetrics {
  std::vector<TaskPlacement> placements;  ///< indexed by task index
};

/// Genome-invariant state for decoding one task set: the prediction-table
/// snapshot, per-task prediction rows, and the clamped per-node
/// availability.  Built once per scheduling run by
/// ScheduleBuilder::prepare and then shared read-only by every evaluate /
/// decode of that run (any number of threads).  Reusing one context across
/// runs reuses all of its capacity.
class DecodeContext {
 public:
  DecodeContext() = default;

  [[nodiscard]] int task_count() const {
    return static_cast<int>(rows_.size());
  }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] NodeMask available() const { return available_; }

  /// Predicted execution time of task `t` on `k` nodes — pure array
  /// indexing into the snapshot (bit-identical to the cache's value).
  [[nodiscard]] double exec_time(int t, int k) const {
    return rows_[static_cast<std::size_t>(t)][k - 1];
  }

  [[nodiscard]] const pace::PredictionTable& table() const { return table_; }

  /// Identity of this prepared state — bumped by every prepare(), unique
  /// across contexts.  A scratch stamps the epoch its recorded stream
  /// belongs to, so a stale stream can never answer for a different task
  /// set (DESIGN.md §11).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  friend class ScheduleBuilder;

  pace::PredictionTable table_;
  std::vector<const double*> rows_;  ///< task index -> prediction row
  std::vector<double> deadlines_;    ///< task index -> δ_j (hoisted)
  /// Effective per-node availability: past free times clamped to `now`,
  /// down nodes pushed to the unavailable horizon.
  std::array<SimTime, kMaxNodesPerResource> base_free_{};
  SimTime now_ = 0.0;
  NodeMask available_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Per-thread mutable buffers for evaluate/decode, laid out as structure-
/// of-arrays: idle pockets live in parallel start/length vectors (compacted
/// branch-free), and the decoded (task, mask) stream plus the metrics of
/// the last evaluation let an unchanged genome skip the rebuild.  One
/// scratch per worker slot; capacity grows to the run's high-water mark and
/// is then reused, so steady-state decoding never allocates.
struct DecodeScratch {
  std::array<SimTime, kMaxNodesPerResource> free{};

  // -- idle pockets, structure-of-arrays ---------------------------------
  // gap_start[i]/gap_length[i] describe one pocket of idle time (before a
  // task's unison start, or trailing idle before the makespan end).  The
  // arrays are sized for the worst case up front and compacted without
  // branches; entries past the live count are scratch garbage.
  std::vector<SimTime> gap_start;
  std::vector<double> gap_length;

  /// Prediction-table reads performed through this scratch (one per task
  /// decoded; a short-circuited evaluation reads none).
  std::uint64_t table_reads = 0;
  /// Evaluations answered from `last_metrics` because the genome decodes
  /// to exactly the recorded stream (the unchanged-genome short-circuit).
  std::uint64_t delta_evals = 0;
  /// Evaluations that rebuilt the schedule from position 0.
  std::uint64_t full_evals = 0;

  // -- unchanged-genome short-circuit (DESIGN.md §11) --------------------
  // The (task, mask) stream of the last evaluation; valid only while
  // `context_epoch` matches the context and `done_count` equals its task
  // count.  Managed by ScheduleBuilder::run.
  std::uint64_t context_epoch = 0;
  int done_count = -1;  ///< positions recorded by the last evaluation
  std::vector<int> done_task;        ///< position -> task decoded there
  std::vector<NodeMask> done_mask;   ///< position -> mask used
  /// Metrics of the last evaluation — returned verbatim for an unchanged
  /// genome.
  ScheduleMetrics last_metrics;
};

class ScheduleBuilder {
 public:
  /// `evaluator` and `resource` provide t_x; `node_count` fixes ρ's width.
  ScheduleBuilder(pace::CachedEvaluator& evaluator,
                  pace::ResourceModel resource, int node_count);

  // -- hot path -----------------------------------------------------------

  /// Builds `context` for one scheduling run: snapshots the prediction
  /// table for every distinct application in `tasks` (the only step that
  /// touches the shard locks), hoists per-task rows, and clamps per-node
  /// availability (`node_free` entries before `now` count as free-at-`now`
  /// — idle already in the past is sunk cost; nodes outside `available`
  /// come free only at `now + kUnavailableHorizon`, so any solution
  /// allocating them is heavily penalised through its makespan, and they
  /// contribute no idle time).
  void prepare(DecodeContext& context, std::span<const Task> tasks,
               std::span<const SimTime> node_free, SimTime now,
               NodeMask available) const;

  /// Metrics-only decode of `solution` under `context` — the GA's
  /// steady-state evaluation: zero heap allocations (all buffers live in
  /// `scratch`) and zero lock acquisitions (all predictions come from the
  /// context's snapshot).  Returns exactly the metrics decode() would.
  ///
  /// Unchanged-genome short-circuit: the scratch records the (task, mask)
  /// stream it last decoded, so this entry point diffs `solution` against
  /// that stream and returns the recorded metrics when every position
  /// matches under the same context; any difference rebuilds the schedule
  /// from position 0.  Results are bit-for-bit those of a full rebuild.
  [[nodiscard]] ScheduleMetrics evaluate(const DecodeContext& context,
                                         const SolutionString& solution,
                                         DecodeScratch& scratch) const;

  /// evaluate() with a caller-supplied change position instead of the
  /// diff scan: `first_changed >= task_count` asserts that `solution` is
  /// the genome the scratch last evaluated under this context and returns
  /// the previous metrics verbatim; any other value rebuilds from position
  /// 0.  (SolutionString::mutate reports such a position.)
  [[nodiscard]] ScheduleMetrics evaluate_from(const DecodeContext& context,
                                              const SolutionString& solution,
                                              DecodeScratch& scratch,
                                              int first_changed) const;

  /// Full decode under a prepared context: evaluate() plus the per-task
  /// placements.  Run once for the winning solution.
  [[nodiscard]] DecodedSchedule decode(const DecodeContext& context,
                                       const SolutionString& solution,
                                       DecodeScratch& scratch) const;

  // -- convenience (self-contained, allocates its own context) ------------

  /// Decodes `solution` over `tasks`, starting from per-node earliest
  /// availability `node_free` (absolute times).
  [[nodiscard]] DecodedSchedule decode(std::span<const Task> tasks,
                                       const SolutionString& solution,
                                       std::span<const SimTime> node_free,
                                       SimTime now) const;

  /// As above, but nodes outside `available` are down (resource-monitor
  /// view).
  [[nodiscard]] DecodedSchedule decode(std::span<const Task> tasks,
                                       const SolutionString& solution,
                                       std::span<const SimTime> node_free,
                                       SimTime now, NodeMask available) const;

  /// Virtual availability horizon for down nodes (seconds past `now`).
  static constexpr double kUnavailableHorizon = 1e7;

  [[nodiscard]] int node_count() const { return node_count_; }
  [[nodiscard]] const pace::ResourceModel& resource() const {
    return resource_;
  }
  [[nodiscard]] pace::CachedEvaluator& evaluator() const {
    return *evaluator_;
  }

 private:
  /// Shared implementation of evaluate/evaluate_from/decode; `placements`
  /// (indexed by task) is written only when non-null, which also rules out
  /// the short-circuit.  `unchanged` is the caller's claim that `solution`
  /// is the scratch's recorded genome.  The arithmetic is identical in all
  /// modes — same operations on the same values in the same order — so
  /// metrics-only evaluation and full decode agree bit-for-bit.
  ScheduleMetrics run(const DecodeContext& context,
                      const SolutionString& solution, DecodeScratch& scratch,
                      TaskPlacement* placements, bool unchanged) const;

  pace::CachedEvaluator* evaluator_;
  pace::ResourceModel resource_;
  int node_count_;
};

}  // namespace gridlb::sched
