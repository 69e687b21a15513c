// Process-wide published simulation time.
//
// The discrete-event engine is the only component that knows the current
// virtual time, but two consumers outside the event loop need it: the
// logger (to prefix narration with sim-time) and the trace recorder (PACE
// cache events fire on thread-pool workers that have no engine reference).
// The engine publishes its clock twice per event: once process-wide (one
// relaxed store; advisory, any thread may read it) and once for the
// executing thread.  Under a sharded engine every shard thread writes the
// process-wide value, so a reader that must see its own shard's time —
// the logger — takes the per-thread one.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"

namespace gridlb::simclock {

namespace detail {
inline std::atomic<SimTime>& storage() {
  static std::atomic<SimTime> time{kNoTime};
  return time;
}
/// The clock of the last event executed on this thread.
inline thread_local SimTime tls_time = kNoTime;
}  // namespace detail

/// Called by the engine as its clock advances.
inline void publish(SimTime now) {
  detail::storage().store(now, std::memory_order_relaxed);
  detail::tls_time = now;
}

/// Last published virtual time, or kNoTime if no engine has run yet.
[[nodiscard]] inline SimTime now() {
  return detail::storage().load(std::memory_order_relaxed);
}

/// Last virtual time published on the calling thread, or kNoTime if no
/// engine has run on it.
[[nodiscard]] inline SimTime thread_now() { return detail::tls_time; }

/// Returns the clock to the "no engine has run" state, process-wide and
/// for the calling thread (used by tests).
inline void reset() {
  detail::storage().store(kNoTime, std::memory_order_relaxed);
  detail::tls_time = kNoTime;
}

namespace detail {
/// The shard whose event is executing on this thread, biased by +1 so 0
/// means "unsharded / outside any shard event".  Per-thread because each
/// shard of a partitioned simulation is driven by its own worker.
inline thread_local std::uint16_t tls_shard = 0;
}  // namespace detail

/// Called by the engine on every event: 1 + shard index in lineage
/// (sharded) mode, 0 on the classic single-queue engine.
inline void publish_shard(std::uint16_t shard_plus_one) {
  detail::tls_shard = shard_plus_one;
}

/// 1 + the executing shard, or 0 when unsharded.  Trace events are
/// stamped with this so exporters can group a sharded run by shard.
[[nodiscard]] inline std::uint16_t current_shard() {
  return detail::tls_shard;
}

}  // namespace gridlb::simclock
