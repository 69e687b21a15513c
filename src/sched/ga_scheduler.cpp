#include "sched/ga_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/assert.hpp"

namespace gridlb::sched {

void GenotypeMemo::begin_run(std::size_t expected) {
  ++epoch_;
  std::size_t want = 16;
  while (want < expected * 2) want <<= 1;
  if (entries_.size() < want) entries_.assign(want, Entry{});
  live_ = 0;
}

const GenotypeMemo::Entry* GenotypeMemo::find(
    const SolutionString::Fingerprint& fp) const {
  if (entries_.empty()) return nullptr;
  const std::size_t mask = entries_.size() - 1;
  // Load factor ≤ 0.5 guarantees the probe chain hits a dead slot.
  for (std::size_t i = static_cast<std::size_t>(fp.lo) & mask;;
       i = (i + 1) & mask) {
    const Entry& entry = entries_[i];
    if (entry.epoch != epoch_) return nullptr;  // dead slot ends the chain
    if (entry.fp == fp) return &entry;
  }
}

void GenotypeMemo::insert(const SolutionString::Fingerprint& fp,
                          double cost) {
  GRIDLB_REQUIRE(!entries_.empty(), "memo used before begin_run");
  if ((live_ + 1) * 2 > entries_.size()) grow();
  const std::size_t mask = entries_.size() - 1;
  for (std::size_t i = static_cast<std::size_t>(fp.lo) & mask;;
       i = (i + 1) & mask) {
    Entry& entry = entries_[i];
    if (entry.epoch != epoch_) {
      entry = Entry{fp, cost, epoch_};
      ++live_;
      return;
    }
    if (entry.fp == fp) return;  // already present; values are identical
  }
}

void GenotypeMemo::grow() {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(old.size() * 2, Entry{});
  const std::size_t mask = entries_.size() - 1;
  for (const Entry& entry : old) {
    if (entry.epoch != epoch_) continue;
    for (std::size_t i = static_cast<std::size_t>(entry.fp.lo) & mask;;
         i = (i + 1) & mask) {
      if (entries_[i].epoch != epoch_) {
        entries_[i] = entry;
        break;
      }
    }
  }
}

GaScheduler::GaScheduler(ScheduleBuilder& builder, GaConfig config,
                         std::uint64_t seed)
    : builder_(&builder), config_(config), rng_(seed) {
  GRIDLB_REQUIRE(config_.population_size >= 2, "population must hold >= 2");
  GRIDLB_REQUIRE(config_.generations >= 1, "need at least one generation");
  GRIDLB_REQUIRE(config_.elite >= 0 &&
                     config_.elite < config_.population_size,
                 "elite count must be < population size");
  GRIDLB_REQUIRE(config_.crossover_rate >= 0.0 && config_.crossover_rate <= 1.0,
                 "crossover rate must be in [0,1]");
  GRIDLB_REQUIRE(config_.eval_threads >= 0,
                 "eval_threads must be >= 0 (0 = hardware concurrency)");
  const int threads = config_.eval_threads == 0
                          ? ThreadPool::hardware_threads()
                          : config_.eval_threads;
  // Never spin up more chunks than the population can fill.
  const int useful = std::min(threads, config_.population_size);
  if (useful > 1) pool_ = std::make_unique<ThreadPool>(useful);
  scratches_.resize(static_cast<std::size_t>(pool_ ? pool_->size() : 1));
}

void GaScheduler::sync_population(std::span<const Task> tasks) {
  const int m = static_cast<int>(tasks.size());
  const int nodes = builder_->node_count();

  if (population_.empty()) {
    population_.reserve(static_cast<std::size_t>(config_.population_size));
    for (int k = 0; k < config_.population_size; ++k) {
      population_.push_back(SolutionString::random(m, nodes, rng_));
    }
  } else {
    // Match surviving tasks by id; started/cancelled tasks drop out and
    // fresh arrivals are inserted at random positions.
    std::vector<int> kept(known_tasks_.size(), -1);
    for (std::size_t old_index = 0; old_index < known_tasks_.size();
         ++old_index) {
      for (int new_index = 0; new_index < m; ++new_index) {
        if (tasks[static_cast<std::size_t>(new_index)].id ==
            known_tasks_[old_index]) {
          kept[old_index] = new_index;
          break;
        }
      }
    }
    for (auto& individual : population_) {
      individual.remap_tasks(kept, m, rng_);
    }
  }

  known_tasks_.clear();
  known_tasks_.reserve(tasks.size());
  for (const Task& task : tasks) known_tasks_.push_back(task.id);
}

void GaScheduler::select_parents(std::span<const double> fitness) {
  const int n = static_cast<int>(fitness.size());
  const double total = std::accumulate(fitness.begin(), fitness.end(), 0.0);
  parents_.clear();
  if (total <= 0.0) {
    // All-zero fitness (cannot happen with dynamic scaling, but guard):
    // uniform pool.
    for (int k = 0; k < n; ++k) parents_.push_back(k);
    return;
  }
  fraction_.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const double expected =
        fitness[static_cast<std::size_t>(k)] * static_cast<double>(n) / total;
    const double floor_part = std::floor(expected);
    for (int c = 0; c < static_cast<int>(floor_part); ++c) {
      parents_.push_back(k);
    }
    fraction_[static_cast<std::size_t>(k)] = expected - floor_part;
  }
  // Fill the remainder with Bernoulli draws on the fractional parts.
  while (static_cast<int>(parents_.size()) < n) {
    for (int k = 0; k < n && static_cast<int>(parents_.size()) < n; ++k) {
      if (rng_.chance(fraction_[static_cast<std::size_t>(k)])) {
        parents_.push_back(k);
      }
    }
    // Degenerate fractional mass (all ~0): top up uniformly.
    if (std::accumulate(fraction_.begin(), fraction_.end(), 0.0) < 1e-12) {
      while (static_cast<int>(parents_.size()) < n) {
        parents_.push_back(static_cast<int>(
            rng_.next_below(static_cast<std::uint64_t>(n))));
      }
    }
  }
}

SolutionString GaScheduler::greedy_seed(std::span<const Task> tasks,
                                        std::span<const SimTime> node_free,
                                        SimTime now, NodeMask available,
                                        bool deadline_order,
                                        bool efficient) {
  const int m = static_cast<int>(tasks.size());
  const int nodes = builder_->node_count();
  std::vector<int> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  if (deadline_order) {
    std::stable_sort(order.begin(), order.end(), [&tasks](int a, int b) {
      return tasks[static_cast<std::size_t>(a)].deadline <
             tasks[static_cast<std::size_t>(b)].deadline;
    });
  }

  std::vector<SimTime> free(node_free.begin(), node_free.end());
  for (auto& f : free) f = std::max(f, now);
  std::vector<int> by_free;
  by_free.reserve(static_cast<std::size_t>(nodes));
  std::vector<NodeMask> mapping(static_cast<std::size_t>(m), 0);

  for (const int t : order) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    by_free.clear();
    for_each_node(available, [&by_free](int node) { by_free.push_back(node); });
    std::stable_sort(by_free.begin(), by_free.end(),
                     [&free](int a, int b) {
                       return free[static_cast<std::size_t>(a)] <
                              free[static_cast<std::size_t>(b)];
                     });
    const int usable = static_cast<int>(by_free.size());
    // For k nodes the optimal subset is the k earliest-free ones, so the
    // exhaustive 2^n−1 FIFO search reduces to an n-way scan.
    double best_end = std::numeric_limits<double>::infinity();
    int best_k = 1;
    double best_work = std::numeric_limits<double>::infinity();
    bool best_feasible = false;
    for (int k = 1; k <= usable; ++k) {
      const SimTime start =
          free[static_cast<std::size_t>(by_free[static_cast<std::size_t>(
              k - 1)])];
      const double exec = context_.exec_time(t, k);
      ++scratches_[0].table_reads;
      const SimTime end = start + exec;
      bool better;
      if (efficient) {
        // Narrowest deadline-feasible allocation (min node·seconds);
        // min completion among the infeasible as the fallback.
        const bool feasible = end <= task.deadline;
        const double work = static_cast<double>(k) * exec;
        if (feasible) {
          better = !best_feasible || work < best_work;
        } else {
          better = !best_feasible && end < best_end;
        }
        if (better) {
          best_feasible = feasible;
          best_work = work;
        }
      } else {
        better = end < best_end;
      }
      if (better) {
        best_end = end;
        best_k = k;
      }
    }
    NodeMask mask = 0;
    for (int i = 0; i < best_k; ++i) {
      const int node = by_free[static_cast<std::size_t>(i)];
      mask |= NodeMask{1} << node;
      free[static_cast<std::size_t>(node)] = best_end;
    }
    mapping[static_cast<std::size_t>(t)] = mask;
  }
  return SolutionString(std::move(order), std::move(mapping), nodes);
}

GaResult GaScheduler::optimize(std::span<const Task> tasks,
                               std::span<const SimTime> node_free,
                               SimTime now) {
  return optimize(tasks, node_free, now, full_mask(builder_->node_count()));
}

GaResult GaScheduler::optimize(std::span<const Task> tasks,
                               std::span<const SimTime> node_free,
                               SimTime now, NodeMask available) {
  GRIDLB_REQUIRE(valid_mask(available, builder_->node_count()),
                 "optimize needs at least one available node");
  // Snapshot phase: the only part of the run that touches the evaluation
  // cache's shard locks.  Everything downstream (greedy seeds included)
  // reads predictions from the table.
  builder_->prepare(context_, tasks, node_free, now, available);
  for (DecodeScratch& scratch : scratches_) {
    scratch.table_reads = 0;
    scratch.delta_evals = 0;
    scratch.full_evals = 0;
  }
  sync_population(tasks);
  const bool constrained = available != full_mask(builder_->node_count());
  if (constrained) {
    for (auto& individual : population_) individual.constrain(available, rng_);
  }
  if (config_.seed_heuristic && !tasks.empty()) {
    // Greedy seeds go at the tail; the warm-started best individual from
    // the previous invocation lives at the front and must survive.  Four
    // variants: {arrival, EDF} × {fastest, narrowest-feasible}.
    const std::size_t last = population_.size() - 1;
    std::size_t slot = last;
    for (const bool efficient : {false, true}) {
      for (const bool deadline_order : {false, true}) {
        population_[slot] = greedy_seed(tasks, node_free, now, available,
                                        deadline_order, efficient);
        if (slot == 0) break;
        --slot;
      }
    }
  }

  GaResult result;
  result.eval_threads = eval_threads();
  if (tasks.empty()) {
    result.best = SolutionString({}, {}, builder_->node_count());
    result.schedule = builder_->decode(context_, result.best, scratches_[0]);
    result.table_reads = scratches_[0].table_reads;
    total_table_reads_ += result.table_reads;
    return result;
  }

  const int n = config_.population_size;
  costs_.assign(static_cast<std::size_t>(n), 0.0);
  fitness_.resize(static_cast<std::size_t>(n));
  next_.resize(static_cast<std::size_t>(n));
  // Sized on the first run, so no generation grows them (and a scheduler
  // that never runs allocates none of them).
  eval_list_.reserve(static_cast<std::size_t>(n));
  fanout_.reserve(static_cast<std::size_t>(n));
  parents_.reserve(static_cast<std::size_t>(n));
  if (eval_slots_.empty()) {
    std::size_t slots = 16;
    while (slots < static_cast<std::size_t>(n) * 2) slots <<= 1;
    eval_slots_.resize(slots);
  }
  memo_.begin_run(static_cast<std::size_t>(n) *
                  static_cast<std::size_t>(config_.generations));

  // The memo triage below has already removed every genome costed this
  // run, so no evaluation can take the unchanged-genome short-circuit:
  // each rebuilds from position 0 (span 0) without the stream diff scan.
  const auto evaluate_items = [&](int begin, int end, int slot) {
    DecodeScratch& scratch = scratches_[static_cast<std::size_t>(slot)];
    for (int i = begin; i < end; ++i) {
      const auto k = static_cast<std::size_t>(
          eval_list_[static_cast<std::size_t>(i)].index);
      costs_[k] = cost_value(
          builder_->evaluate_from(context_, population_[k], scratch, 0),
          config_.weights);
    }
  };

  bool have_best = false;
  result.generations.reserve(static_cast<std::size_t>(config_.generations));
  for (int generation = 0; generation < config_.generations; ++generation) {
    // Triage on the main thread: memo hits and within-generation
    // duplicates resolve without evaluation; only genuinely new genotypes
    // reach the pool.  The triage consumes no randomness and depends only
    // on population contents, so every eval_threads value sees the same
    // eval list and the same counters.
    eval_list_.clear();
    fanout_.clear();
    std::fill(eval_slots_.begin(), eval_slots_.end(), -1);
    const std::size_t slot_mask = eval_slots_.size() - 1;
    for (int k = 0; k < n; ++k) {
      const SolutionString::Fingerprint fp =
          population_[static_cast<std::size_t>(k)].fingerprint();
      if (const GenotypeMemo::Entry* hit = memo_.find(fp)) {
        costs_[static_cast<std::size_t>(k)] = hit->cost;
        ++result.memo_hits;
        continue;
      }
      // The first occurrence of a genotype is its representative; later
      // copies find it through the probe and fan out from it.
      for (std::size_t slot = static_cast<std::size_t>(fp.lo) & slot_mask;;
           slot = (slot + 1) & slot_mask) {
        int& item = eval_slots_[slot];
        if (item < 0) {
          item = static_cast<int>(eval_list_.size());
          eval_list_.push_back(EvalItem{fp, k});
          break;
        }
        const EvalItem& rep = eval_list_[static_cast<std::size_t>(item)];
        if (rep.fp == fp) {
          fanout_.push_back(Fanout{k, rep.index});
          break;
        }
      }
    }

    // Evaluate.  Only this phase runs on the pool: each individual's
    // cost is a pure function of its genome and the prepared context, so
    // the contents of `costs_` do not depend on the interleaving.
    // Selection, crossover and mutation below stay on this thread and
    // consume `rng_` in the serial order.
    const int num_items = static_cast<int>(eval_list_.size());
    if (pool_ && num_items > 1) {
      pool_->parallel_for(num_items, evaluate_items);
    } else if (num_items > 0) {
      evaluate_items(0, num_items, 0);
    }
    result.decodes += eval_list_.size();

    // Publish results: new genotypes enter the memo (main thread, index
    // order) and duplicates copy their representative's result.
    for (const EvalItem& item : eval_list_) {
      memo_.insert(item.fp, costs_[static_cast<std::size_t>(item.index)]);
    }
    for (const Fanout& dup : fanout_) {
      costs_[static_cast<std::size_t>(dup.index)] =
          costs_[static_cast<std::size_t>(dup.rep)];
      ++result.memo_hits;
    }

    // Track the best-ever individual (genome + cost only; the winning
    // schedule is decoded once, after the final generation).
    const auto best_it = std::min_element(costs_.begin(), costs_.end());
    const auto best_index =
        static_cast<std::size_t>(best_it - costs_.begin());
    if (!have_best || *best_it < result.best_cost) {
      have_best = true;
      result.best_cost = *best_it;
      result.best = population_[best_index];
      result.converged_at = generation;
    }
    result.generations.push_back(GaResult::GenerationStat{
        *best_it, std::accumulate(costs_.begin(), costs_.end(), 0.0) /
                      static_cast<double>(n)});
    ++result.generations_run;
    if (generation + 1 == config_.generations) break;

    // Breed the next generation into `next_`, reusing its storage.
    fitness_values(costs_, fitness_);
    select_parents(fitness_);
    if (config_.elite > 0) {
      // Elites: the `elite` lowest-cost individuals, unchanged.
      by_cost_.resize(static_cast<std::size_t>(n));
      std::iota(by_cost_.begin(), by_cost_.end(), 0);
      std::partial_sort(by_cost_.begin(), by_cost_.begin() + config_.elite,
                        by_cost_.end(), [this](int a, int b) {
                          return costs_[static_cast<std::size_t>(a)] <
                                 costs_[static_cast<std::size_t>(b)];
                        });
      for (int e = 0; e < config_.elite; ++e) {
        const int src = by_cost_[static_cast<std::size_t>(e)];
        next_[static_cast<std::size_t>(e)] =
            population_[static_cast<std::size_t>(src)];
      }
    }
    for (int c = config_.elite; c < n; ++c) {
      const int a = parents_[static_cast<std::size_t>(
          rng_.next_below(parents_.size()))];
      const int b = parents_[static_cast<std::size_t>(
          rng_.next_below(parents_.size()))];
      SolutionString& child = next_[static_cast<std::size_t>(c)];
      if (rng_.chance(config_.crossover_rate)) {
        population_[static_cast<std::size_t>(a)].crossover_into(
            population_[static_cast<std::size_t>(b)], child, used_, rng_);
      } else {
        child = population_[static_cast<std::size_t>(a)];
      }
      child.mutate(config_.order_swap_rate, config_.bit_flip_rate, rng_);
      if (constrained) child.constrain(available, rng_);
    }
    population_.swap(next_);
  }

  // The one full decode of the run: placements for the winner only.
  result.schedule = builder_->decode(context_, result.best, scratches_[0]);
  ++result.decodes;
  for (const DecodeScratch& scratch : scratches_) {
    result.table_reads += scratch.table_reads;
    result.delta_evals += scratch.delta_evals;
    result.full_evals += scratch.full_evals;
  }
  total_decodes_ += result.decodes;
  total_memo_hits_ += result.memo_hits;
  total_table_reads_ += result.table_reads;
  total_delta_evals_ += result.delta_evals;
  total_full_evals_ += result.full_evals;
  // Keep the best individual alive for the next invocation's warm start.
  population_.front() = result.best;
  return result;
}

}  // namespace gridlb::sched
