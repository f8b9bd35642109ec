// Minimal leveled logging. The simulator is library code, so logging is off
// by default and routed through a single sink that tests can capture.
#pragma once

#include <functional>
#include <string>

namespace smache {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global log configuration. Not thread-safe by design: the simulator is
/// single-threaded (an HDL-like cycle scheduler), and the benches set
/// the level once at startup.
class Log {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static void set_level(LogLevel level) noexcept;
  static LogLevel level() noexcept;
  /// Replace the sink (default writes to stderr). Pass nullptr to restore
  /// the default.
  static void set_sink(Sink sink);

  static void write(LogLevel level, const std::string& message);

  static void debug(const std::string& m) { write(LogLevel::Debug, m); }
  static void info(const std::string& m) { write(LogLevel::Info, m); }
  static void warn(const std::string& m) { write(LogLevel::Warn, m); }
  static void error(const std::string& m) { write(LogLevel::Error, m); }
};

}  // namespace smache
