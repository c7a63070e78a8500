#include "common/logging.hpp"

#include <cstdio>

namespace siphoc {

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

void Logging::emit(LogLevel level, std::string_view component,
                   std::string_view node, std::string message) {
  if (!sink_) return;
  LogRecord rec;
  rec.time = now_ ? now_() : TimePoint{};
  rec.level = level;
  rec.component = std::string(component);
  rec.node = std::string(node);
  rec.message = std::move(message);
  sink_(rec);
}

void Logging::use_stderr() {
  set_sink([](const LogRecord& rec) {
    std::fprintf(stderr, "t=%-12s [%-5s] %-10s %-8s %s\n",
                 format_time(rec.time).c_str(),
                 std::string(to_string(rec.level)).c_str(),
                 rec.component.c_str(), rec.node.c_str(),
                 rec.message.c_str());
  });
}

}  // namespace siphoc
