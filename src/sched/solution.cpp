#include "sched/solution.hpp"

#include <algorithm>
#include <numeric>

namespace gridlb::sched {

SolutionString::SolutionString(std::vector<int> order,
                               std::vector<NodeMask> mapping, int node_count)
    : order_(std::move(order)),
      mapping_(std::move(mapping)),
      node_count_(node_count) {
  GRIDLB_REQUIRE(order_.size() == mapping_.size(),
                 "ordering and mapping parts must cover the same tasks");
  GRIDLB_REQUIRE(node_count_ >= 1 && node_count_ <= kMaxNodesPerResource,
                 "node count out of range");
  GRIDLB_REQUIRE(valid(), "solution string is structurally invalid");
}

SolutionString SolutionString::random(int task_count, int node_count,
                                      Rng& rng) {
  GRIDLB_REQUIRE(task_count >= 0, "negative task count");
  GRIDLB_REQUIRE(node_count >= 1 && node_count <= kMaxNodesPerResource,
                 "node count out of range");
  SolutionString s;
  s.node_count_ = node_count;
  s.order_.resize(static_cast<std::size_t>(task_count));
  std::iota(s.order_.begin(), s.order_.end(), 0);
  rng.shuffle(s.order_);
  s.mapping_.resize(static_cast<std::size_t>(task_count));
  const NodeMask all = full_mask(node_count);
  for (auto& mask : s.mapping_) {
    mask = static_cast<NodeMask>(rng.next_u64()) & all;
    if (mask == 0) {
      mask = NodeMask{1} << rng.next_below(static_cast<std::uint64_t>(
                 node_count));
    }
  }
  return s;
}

bool SolutionString::valid() const {
  std::vector<bool> seen(order_.size(), false);
  for (const int t : order_) {
    if (t < 0 || static_cast<std::size_t>(t) >= order_.size()) return false;
    if (seen[static_cast<std::size_t>(t)]) return false;
    seen[static_cast<std::size_t>(t)] = true;
  }
  return std::all_of(mapping_.begin(), mapping_.end(), [this](NodeMask m) {
    return valid_mask(m, node_count_);
  });
}

void SolutionString::repair_mask(int task, Rng& rng) {
  auto& mask = mapping_[static_cast<std::size_t>(task)];
  if (mask == 0) {
    mask = NodeMask{1} << rng.next_below(
               static_cast<std::uint64_t>(node_count_));
  }
}

void SolutionString::constrain(NodeMask allowed, Rng& rng) {
  GRIDLB_REQUIRE(valid_mask(allowed, node_count_),
                 "allowed set must be a non-empty subset of the resource");
  const int width = ::gridlb::sched::node_count(allowed);
  for (auto& mask : mapping_) {
    mask &= allowed;
    if (mask == 0) {
      // Pick a uniformly random allowed node.
      auto pick = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(width)));
      for_each_node(allowed, [&](int node) {
        if (pick-- == 0) mask = NodeMask{1} << node;
      });
    }
  }
  GRIDLB_ASSERT(valid());
}

SolutionString SolutionString::crossover(const SolutionString& mate,
                                         Rng& rng) const {
  GRIDLB_REQUIRE(task_count() == mate.task_count() &&
                     node_count_ == mate.node_count_,
                 "crossover parents must agree on task and node counts");
  const int m = task_count();
  SolutionString child;
  child.node_count_ = node_count_;
  if (m == 0) return child;

  // --- ordering part: splice at a random cut, complete in mate order.
  const auto cut =
      static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(m) + 1));
  child.order_.assign(order_.begin(),
                      order_.begin() + static_cast<std::ptrdiff_t>(cut));
  std::vector<bool> used(static_cast<std::size_t>(m), false);
  for (const int t : child.order_) used[static_cast<std::size_t>(t)] = true;
  for (const int t : mate.order_) {
    if (!used[static_cast<std::size_t>(t)]) child.order_.push_back(t);
  }

  // --- mapping part: single-point binary crossover over the child-order-
  // aligned concatenation of per-task bit strings.  Bits strictly before
  // the cut come from this parent, the rest from the mate.
  child.mapping_.resize(static_cast<std::size_t>(m));
  const int bits_per_task = node_count_;
  const std::uint64_t total_bits =
      static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(bits_per_task);
  const std::uint64_t bit_cut = rng.next_below(total_bits + 1);
  for (int p = 0; p < m; ++p) {
    const int t = child.task_at(p);
    const std::uint64_t first_bit =
        static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(bits_per_task);
    NodeMask mask;
    if (first_bit + static_cast<std::uint64_t>(bits_per_task) <= bit_cut) {
      mask = mask_of(t);
    } else if (first_bit >= bit_cut) {
      mask = mate.mask_of(t);
    } else {
      const int split = static_cast<int>(bit_cut - first_bit);
      const NodeMask low = full_mask(split);
      mask = static_cast<NodeMask>((mask_of(t) & low) |
                                   (mate.mask_of(t) & ~low));
      mask &= full_mask(node_count_);
    }
    child.mapping_[static_cast<std::size_t>(t)] = mask;
    child.repair_mask(t, rng);
  }
  return child;
}

int SolutionString::mutate(double order_swap_rate, double bit_flip_rate,
                           Rng& rng) {
  const int m = task_count();
  if (m == 0) return 0;
  int span = m;
  // Ordering part: a random transposition ("switching operator").
  if (m >= 2 && rng.chance(order_swap_rate)) {
    const auto a = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(m)));
    auto b = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(m - 1)));
    if (b >= a) ++b;
    std::swap(order_[a], order_[b]);
    span = static_cast<int>(a < b ? a : b);
  }
  // Mapping part: independent random bit flips, in task-index order (the
  // seeded draw sequence is pinned).  A changed mask lowers the span to its
  // task's position; the search only covers positions below the current
  // span, so it finds nothing when the task sits at or after it.
  for (int t = 0; t < m; ++t) {
    NodeMask& mask = mapping_[static_cast<std::size_t>(t)];
    const NodeMask before = mask;
    for (int bit = 0; bit < node_count_; ++bit) {
      if (rng.chance(bit_flip_rate)) {
        mask ^= NodeMask{1} << bit;
      }
    }
    repair_mask(t, rng);
    if (mask != before) {
      const auto first = order_.begin();
      span = static_cast<int>(std::find(first, first + span, t) - first);
    }
  }
  return span;
}

SolutionString::Fingerprint SolutionString::fingerprint() const {
  // Two independent splitmix64-style lanes over the same word stream.
  const auto mix = [](std::uint64_t h, std::uint64_t v,
                      std::uint64_t gamma) {
    h += v + gamma;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return h;
  };
  Fingerprint fp{0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL};
  const auto absorb = [&](std::uint64_t v) {
    fp.lo = mix(fp.lo, v, 0x9E3779B97F4A7C15ULL);
    fp.hi = mix(fp.hi, v, 0xC2B2AE3D27D4EB4FULL);
  };
  absorb(static_cast<std::uint64_t>(node_count_));
  absorb(order_.size());
  for (const int t : order_) absorb(static_cast<std::uint64_t>(t));
  for (const NodeMask m : mapping_) absorb(static_cast<std::uint64_t>(m));
  return fp;
}

void SolutionString::remap_tasks(const std::vector<int>& kept,
                                 int new_task_count, Rng& rng) {
  GRIDLB_REQUIRE(kept.size() == order_.size(),
                 "remap table must cover the old task set");
  GRIDLB_REQUIRE(new_task_count >= 0, "negative task count");

  // Surviving tasks keep their relative order and node allocations.
  std::vector<int> new_order;
  new_order.reserve(static_cast<std::size_t>(new_task_count));
  std::vector<NodeMask> new_mapping(static_cast<std::size_t>(new_task_count),
                                    0);
  std::vector<bool> present(static_cast<std::size_t>(new_task_count), false);
  for (const int old_task : order_) {
    const int new_task = kept[static_cast<std::size_t>(old_task)];
    if (new_task < 0) continue;
    GRIDLB_REQUIRE(new_task < new_task_count, "remap target out of range");
    new_order.push_back(new_task);
    new_mapping[static_cast<std::size_t>(new_task)] =
        mapping_[static_cast<std::size_t>(old_task)];
    present[static_cast<std::size_t>(new_task)] = true;
  }
  // Fresh arrivals enter at random positions with random allocations.
  const NodeMask all = full_mask(node_count_);
  for (int t = 0; t < new_task_count; ++t) {
    if (present[static_cast<std::size_t>(t)]) continue;
    const auto pos = static_cast<std::ptrdiff_t>(
        rng.next_below(new_order.size() + 1));
    new_order.insert(new_order.begin() + pos, t);
    NodeMask mask = static_cast<NodeMask>(rng.next_u64()) & all;
    new_mapping[static_cast<std::size_t>(t)] = mask;
  }
  order_ = std::move(new_order);
  mapping_ = std::move(new_mapping);
  for (int t = 0; t < new_task_count; ++t) repair_mask(t, rng);
  GRIDLB_ASSERT(valid());
}

}  // namespace gridlb::sched
