// Lightweight structured logging.
//
// Log lines carry the simulated timestamp, a component tag ("aodv", "proxy",
// "slp", ...) and the node that emitted them, so a run reads like a merged
// testbed log. The default sink is silent; tests and examples install a
// stderr sink or a capturing sink. Benchmarks leave logging off.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace siphoc {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

std::string_view to_string(LogLevel level);

struct LogRecord {
  TimePoint time;
  LogLevel level;
  std::string component;
  std::string node;  // empty for node-less contexts
  std::string message;
};

using LogSink = std::function<void(const LogRecord&)>;

/// Logging configuration: sink, level, time source. One instance per
/// SimContext (see common/context.hpp); the simulator sets the time source
/// on its own context's instance.
class Logging {
 public:
  void set_sink(LogSink sink) { sink_ = std::move(sink); }
  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  /// The simulator registers itself here so log lines carry virtual time.
  void set_time_source(std::function<TimePoint()> now) {
    now_ = std::move(now);
  }

  void emit(LogLevel level, std::string_view component, std::string_view node,
            std::string message);

  /// Installs a sink that prints "t=1.234567s [level] component node: msg"
  /// to stderr. Used by the examples.
  void use_stderr();

 private:
  LogSink sink_;
  LogLevel level_ = LogLevel::kOff;
  std::function<TimePoint()> now_;
};

/// Per-component logger handle bound to the Logging it emits into;
/// cheap to copy.
class Logger {
 public:
  Logger(Logging& logging, std::string component, std::string node = {})
      : logging_(&logging),
        component_(std::move(component)),
        node_(std::move(node)) {}

  template <typename... Args>
  void log(LogLevel level, Args&&... args) const {
    if (level < logging_->level()) return;
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    logging_->emit(level, component_, node_, std::move(os).str());
  }

  template <typename... Args>
  void trace(Args&&... args) const {
    log(LogLevel::kTrace, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void debug(Args&&... args) const {
    log(LogLevel::kDebug, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void info(Args&&... args) const {
    log(LogLevel::kInfo, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void warn(Args&&... args) const {
    log(LogLevel::kWarn, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void error(Args&&... args) const {
    log(LogLevel::kError, std::forward<Args>(args)...);
  }

 private:
  Logging* logging_;
  std::string component_;
  std::string node_;
};

}  // namespace siphoc
