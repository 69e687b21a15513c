// Minimal leveled logger.
//
// The simulator is quiet by default; set_level(Level::kDebug) (or the
// GRIDLB_LOG environment variable: "debug" / "info" / "warn" / "off")
// turns narration of scheduling and discovery decisions on or off — which
// is invaluable when diagnosing a divergent experiment run.  Every line
// carries the level and the simulation time of the writing thread's last
// event (`t=-` on a thread that has run none), so interleaved narration
// stays sortable.
#pragma once

#include <sstream>
#include <string>

namespace gridlb::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kOff = 3 };

/// Current threshold; messages below it are dropped.
Level level();
void set_level(Level level);

/// Writes one line to stderr if `lvl` passes the threshold.
void write(Level lvl, const std::string& message);

namespace detail {
template <class... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <class... Args>
void debug(Args&&... args) {
  if (level() <= Level::kDebug)
    write(Level::kDebug, detail::concat(std::forward<Args>(args)...));
}

template <class... Args>
void info(Args&&... args) {
  if (level() <= Level::kInfo)
    write(Level::kInfo, detail::concat(std::forward<Args>(args)...));
}

template <class... Args>
void warn(Args&&... args) {
  if (level() <= Level::kWarn)
    write(Level::kWarn, detail::concat(std::forward<Args>(args)...));
}

}  // namespace gridlb::log
