#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "common/sim_clock.hpp"

namespace gridlb::log {

namespace {

Level initial_level() {
  const char* env = std::getenv("GRIDLB_LOG");
  if (env == nullptr) return Level::kWarn;
  const std::string value(env);
  if (value == "debug") return Level::kDebug;
  if (value == "info") return Level::kInfo;
  if (value == "warn") return Level::kWarn;
  if (value == "off") return Level::kOff;
  // Unknown values silence the logger rather than spam: a typo in
  // GRIDLB_LOG should never flood a batch run.
  return Level::kOff;
}

std::atomic<Level>& level_storage() {
  static std::atomic<Level> storage{initial_level()};
  return storage;
}

const char* tag(Level lvl) {
  switch (lvl) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO ";
    case Level::kWarn: return "WARN ";
    case Level::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

Level level() { return level_storage().load(std::memory_order_relaxed); }

void set_level(Level lvl) {
  level_storage().store(lvl, std::memory_order_relaxed);
}

void write(Level lvl, const std::string& message) {
  // Prefix every line with the simulation time of the writing thread's
  // last event, so interleaved narration from different subsystems stays
  // sortable and a shard's line never shows another shard's clock; "t=-"
  // on a thread that has run no engine event.
  char stamp[32];
  if (const SimTime now = simclock::thread_now(); now >= 0.0) {
    std::snprintf(stamp, sizeof stamp, "t=%.3f", now);
  } else {
    std::snprintf(stamp, sizeof stamp, "t=-");
  }
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  std::cerr << "[gridlb " << tag(lvl) << ' ' << stamp << "] " << message
            << '\n';
}

}  // namespace gridlb::log
