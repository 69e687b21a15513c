// The genetic-algorithm task scheduler (paper §2.1).
//
// A fixed-size population of two-part solution strings evolves under
// stochastic remainder selection, the specialised two-part crossover and
// mutation operators, and the combined cost function of eq. 8 normalised
// by dynamic scaling (eq. 9).  The population persists across invocations:
// when the task set changes between events, surviving tasks keep their
// evolved ordering and allocations and new arrivals are inserted randomly,
// so the algorithm "is able to absorb system changes such as the addition
// or deletion of tasks".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/cost.hpp"
#include "sched/schedule_builder.hpp"

namespace gridlb::sched {

/// Within-run genotype memoization (DESIGN.md §11).
///
/// Crossover under elitism routinely re-creates genotypes already costed
/// this run; the memo lets them skip re-evaluation.  Flat open-addressed
/// table keyed by SolutionString::Fingerprint — entries hold only the
/// fingerprint and cost (no genome copy, no metrics: nothing downstream of
/// the cost reads them), so lookups and inserts are allocation-free.  A
/// run boundary is an O(1) epoch bump: entries from earlier runs read as
/// empty, because their costs were computed against a different
/// clock/queue state.  Main-thread only.
class GenotypeMemo {
 public:
  struct Entry {
    SolutionString::Fingerprint fp;
    double cost = 0.0;
    std::uint64_t epoch = 0;  ///< 0 = slot never written
  };

  /// Starts a new run expecting at most `expected` distinct genotypes.
  /// Sizes the table to keep the load factor ≤ 0.5, so steady-state runs
  /// never rehash.
  void begin_run(std::size_t expected);

  /// Entry for `fp` in the current run, or nullptr.
  [[nodiscard]] const Entry* find(
      const SolutionString::Fingerprint& fp) const;

  void insert(const SolutionString::Fingerprint& fp, double cost);

  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }
  [[nodiscard]] std::size_t live() const { return live_; }

 private:
  void grow();

  std::vector<Entry> entries_;  ///< power-of-two size
  std::uint64_t epoch_ = 0;
  std::size_t live_ = 0;  ///< entries written this epoch
};

struct GaConfig {
  int population_size = 50;  ///< fixed population size (paper: 50)
  int generations = 25;      ///< generations evolved per invocation
  double crossover_rate = 0.8;
  double order_swap_rate = 0.25;  ///< P(transposition in the ordering part)
  double bit_flip_rate = 0.02;    ///< per-bit flip rate in the mapping part
  int elite = 1;  ///< individuals carried over unchanged each generation
  /// Seed the population each invocation with two greedy list-scheduling
  /// individuals (arrival order and earliest-deadline-first, each with the
  /// per-task best node subset).  The arrival-order seed decodes to
  /// exactly the FIFO baseline's schedule, so an elitist GA can never plan
  /// worse than FIFO.
  bool seed_heuristic = true;
  /// Threads for the evaluate phase (decode + cost of every individual).
  /// 1 (the default) = the exact serial code path, no pool; 0 = hardware
  /// concurrency.  Results are bit-for-bit identical for every value — see
  /// DESIGN.md's determinism contract.  Each scheduler owns its own pool,
  /// so the default keeps a many-agent system from starting threads per
  /// agent for the 3-task queues campaigns actually see.
  int eval_threads = 1;
  CostWeights weights;
};

struct GaResult {
  SolutionString best;
  DecodedSchedule schedule;   ///< decode of `best`
  double best_cost = 0.0;
  int generations_run = 0;
  /// Schedule evaluations actually performed this invocation (including
  /// the single full decode of the winner).  With memoization on,
  /// `decodes + memo_hits == population × generations + 1`.
  std::uint64_t decodes = 0;
  /// Evaluations skipped because the genotype was already costed this run
  /// (cross-generation memo hits + within-generation duplicates).
  std::uint64_t memo_hits = 0;
  /// Prediction-table lookups this invocation — the lock-free reads that
  /// replace per-task evaluation-cache lookups on the hot path.
  std::uint64_t table_reads = 0;
  /// Evaluations answered by the unchanged-genome short-circuit
  /// (DESIGN.md §11).  The memo already resolves every genome costed this
  /// run, so under the GA this stays 0 and `full_evals == decodes`;
  /// `delta_evals + full_evals == decodes` for non-empty task sets.
  std::uint64_t delta_evals = 0;
  /// Evaluations that rebuilt the schedule from position 0.
  std::uint64_t full_evals = 0;
  /// Resolved evaluate-phase thread count that actually ran.
  int eval_threads = 1;
  /// Per-generation convergence curve (observability; filled on every
  /// invocation — a handful of doubles, and gathering it consumes no
  /// randomness, so results are identical whether or not anyone looks).
  struct GenerationStat {
    double best_cost = 0.0;  ///< best individual this generation
    double mean_cost = 0.0;  ///< population mean this generation
  };
  std::vector<GenerationStat> generations;
  /// Generation index (0-based) at which the best-ever cost last
  /// improved — the "generations to converge" of the run.
  int converged_at = 0;
};

class GaScheduler {
 public:
  GaScheduler(ScheduleBuilder& builder, GaConfig config, std::uint64_t seed);

  /// Evolves the (persistent) population for `config.generations`
  /// generations over the given pending tasks and returns the best
  /// schedule found.  `node_free` gives each node's earliest availability.
  GaResult optimize(std::span<const Task> tasks,
                    std::span<const SimTime> node_free, SimTime now);

  /// As above with only the nodes in `available` usable (resource-monitor
  /// view); every individual is constrained to the available set before
  /// evolution, which is how the GA absorbs host departures and returns.
  GaResult optimize(std::span<const Task> tasks,
                    std::span<const SimTime> node_free, SimTime now,
                    NodeMask available);

  [[nodiscard]] const GaConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t total_decodes() const { return total_decodes_; }
  [[nodiscard]] std::uint64_t total_memo_hits() const {
    return total_memo_hits_;
  }
  [[nodiscard]] std::uint64_t total_table_reads() const {
    return total_table_reads_;
  }
  [[nodiscard]] std::uint64_t total_delta_evals() const {
    return total_delta_evals_;
  }
  [[nodiscard]] std::uint64_t total_full_evals() const {
    return total_full_evals_;
  }
  /// Resolved evaluate-phase thread count (config value, with 0 expanded
  /// to the hardware concurrency).
  [[nodiscard]] int eval_threads() const {
    return pool_ ? pool_->size() : 1;
  }

 private:
  /// Aligns the persistent population with the new task set (matching by
  /// TaskId), reseeding from scratch only on the first call.
  void sync_population(std::span<const Task> tasks);

  /// Greedy list-scheduling individual: tasks in arrival or deadline
  /// order, each allocated a subset of the earliest-free nodes.  With
  /// `efficient` false the subset minimises the task's own completion
  /// (always the widest/fastest allocation on an idle resource); with
  /// `efficient` true it is the narrowest allocation that still meets the
  /// task's deadline (minimum node·seconds), falling back to min
  /// completion when no allocation is deadline-feasible.  Seeding both
  /// families keeps the population out of the serial-wide basin that pure
  /// min-completion greedy occupies.
  /// Reads its predictions from the prepared `context_` (and counts them
  /// into `scratches_[0]`), so seeding shares the run's snapshot.
  [[nodiscard]] SolutionString greedy_seed(std::span<const Task> tasks,
                                           std::span<const SimTime> node_free,
                                           SimTime now, NodeMask available,
                                           bool deadline_order,
                                           bool efficient);

  /// Stochastic remainder selection into `parents_`: expected copies
  /// e_k = f_v,k·N/Σf_v; ⌊e_k⌋ copies deterministically, then Bernoulli
  /// draws on the fractional parts until the pool holds N parents.
  void select_parents(std::span<const double> fitness);

  ScheduleBuilder* builder_;
  GaConfig config_;
  /// Workers for the evaluate phase; null when it resolves to one thread.
  std::unique_ptr<ThreadPool> pool_;
  Rng rng_;
  std::vector<SolutionString> population_;
  std::vector<TaskId> known_tasks_;  ///< task index -> id at last invocation
  std::uint64_t total_decodes_ = 0;
  std::uint64_t total_memo_hits_ = 0;
  std::uint64_t total_table_reads_ = 0;
  std::uint64_t total_delta_evals_ = 0;
  std::uint64_t total_full_evals_ = 0;

  // -- hot-path state, reused across invocations (DESIGN.md §11) ----------
  /// One genome awaiting evaluation: its fingerprint and population index.
  struct EvalItem {
    SolutionString::Fingerprint fp;
    int index = 0;
  };
  /// A within-generation duplicate: copy `rep`'s result to `index`.
  struct Fanout {
    int index = 0;
    int rep = 0;
  };

  DecodeContext context_;
  std::vector<DecodeScratch> scratches_;  ///< one per evaluate-phase slot
  GenotypeMemo memo_;
  std::vector<double> costs_;
  std::vector<EvalItem> eval_list_;
  std::vector<Fanout> fanout_;
  /// Open-addressed index over `eval_list_` keyed by fingerprint (-1 =
  /// empty): the within-generation duplicate probe.  Power-of-two size at
  /// least twice the population, so a probe chain always ends.
  std::vector<int> eval_slots_;

  // Breeding buffers: the next generation is bred into `next_`, whose
  // individuals keep their vectors' capacity, and then swapped with
  // `population_`.  With the scratch below, a generation allocates
  // nothing once the buffers have grown to the task count.
  std::vector<SolutionString> next_;
  std::vector<double> fitness_;
  std::vector<int> parents_;         ///< selected parent pool
  std::vector<double> fraction_;     ///< fractional expected copies
  std::vector<int> by_cost_;         ///< elite ranking
  std::vector<unsigned char> used_;  ///< crossover_into's splice mask
};

}  // namespace gridlb::sched
