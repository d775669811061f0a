// paintplace::obs — leveled, per-subsystem, rate-limited structured logging.
//
// Every operational message the stack emits goes through one process-wide
// Log: a line has a level, a subsystem ("net", "pool", "serve", "train",
// "watchdog", ...), an event name, and typed key/value fields. The sink
// renders either key=value text (the default — grep-friendly) or JSON
// lines (one object per line; `tools/check_log_schema.py` validates the
// schema in CI). This replaces the ad-hoc printf/cerr lines the servers
// and CLIs used to scatter: an operator tails ONE stream with ONE grammar,
// and an incident review can filter by subsystem/event instead of regexing
// prose.
//
// Rate limiting is per (level, subsystem, event) key: each key may emit at
// most `rate_limit_per_key` lines per `rate_window_s` window; excess lines
// are counted, not printed, and the first line of the next window reports
// how many were dropped (`suppressed=N`). Decisions are visible in
// MetricsRegistry::global():
//   obs_log_emitted_total      lines written to the sink
//   obs_log_suppressed_total   lines dropped by the rate limiter
//
// Cost model: a line below the minimum level is one relaxed atomic load at
// the `line()` call — field formatting happens only on live lines. Emission
// takes a mutex (logging is not a per-request hot path; the request path
// logs only on anomalies, which the rate limiter bounds anyway). Every
// emitted line is also recorded into the FlightRecorder's per-thread ring,
// so a post-mortem dump carries the last log lines per thread.
//
// Usage:
//   obs::Log::instance()
//       .line(obs::LogLevel::kInfo, "net", "listening")
//       .kv("port", port).kv("bind", addr);
// The line emits when the builder goes out of scope (end of statement).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace paintplace::obs {

class Counter;

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* to_string(LogLevel level);
/// Parses "debug"/"info"/"warn"/"error"; defaults to kInfo on junk.
LogLevel log_level_from_string(const std::string& name);

enum class LogFormat : std::uint8_t {
  kKeyValue = 0,  ///< ts level subsystem event k=v k="v" ...
  kJson = 1,      ///< {"ts_ms":...,"level":"...","subsystem":"...","event":"...",...}
};

struct LogConfig {
  LogLevel min_level = LogLevel::kInfo;
  LogFormat format = LogFormat::kKeyValue;
  /// Lines allowed per (level, subsystem, event) key per window; 0 disables
  /// rate limiting entirely.
  std::uint32_t rate_limit_per_key = 10;
  double rate_window_s = 1.0;
};

class Log;

/// One in-flight line. Fields append with kv(); the completed line emits on
/// destruction (or never, when the level was below the configured minimum —
/// then kv() is a no-op and nothing was formatted).
class LogLine {
 public:
  ~LogLine();

  LogLine(LogLine&& other) noexcept;
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  LogLine& operator=(LogLine&&) = delete;

  LogLine& kv(const char* key, std::int64_t value);
  LogLine& kv(const char* key, std::uint64_t value);
  LogLine& kv(const char* key, int value) { return kv(key, static_cast<std::int64_t>(value)); }
  LogLine& kv(const char* key, double value);
  LogLine& kv(const char* key, bool value);
  LogLine& kv(const char* key, const char* value);
  LogLine& kv(const char* key, const std::string& value);

  bool live() const { return live_; }

 private:
  friend class Log;
  LogLine(Log* log, LogLevel level, const char* subsystem, const char* event);
  LogLine& add(const char* key, std::string text);  ///< text doubles as the JSON literal

  struct Field {
    std::string key;
    std::string text_value;  ///< rendered for key=value output
    std::string json_value;  ///< rendered JSON literal
  };

  Log* log_ = nullptr;
  bool live_ = false;
  LogLevel level_ = LogLevel::kInfo;
  const char* subsystem_ = "";
  const char* event_ = "";
  std::vector<Field> fields_;
};

class Log {
 public:
  /// The process-wide logger. Starts at the built-in defaults, overridden
  /// by PAINTPLACE_LOG_LEVEL / PAINTPLACE_LOG_FORMAT ("kv"|"json") when set.
  static Log& instance();

  void configure(const LogConfig& config);
  LogConfig config() const;

  bool enabled(LogLevel level) const {
    return static_cast<std::uint8_t>(level) >= min_level_.load(std::memory_order_relaxed);
  }

  /// Starts a structured line. `subsystem` and `event` must be static
  /// strings (call sites own them). Below the minimum level the returned
  /// builder is inert.
  LogLine line(LogLevel level, const char* subsystem, const char* event) {
    return LogLine(this, level, subsystem, event);
  }
  LogLine debug(const char* subsystem, const char* event) {
    return line(LogLevel::kDebug, subsystem, event);
  }
  LogLine info(const char* subsystem, const char* event) {
    return line(LogLevel::kInfo, subsystem, event);
  }
  LogLine warn(const char* subsystem, const char* event) {
    return line(LogLevel::kWarn, subsystem, event);
  }
  LogLine error(const char* subsystem, const char* event) {
    return line(LogLevel::kError, subsystem, event);
  }

  /// Replaces the output sink (default: one fwrite+flush to stdout per
  /// line). Tests capture lines here; pass nullptr to restore the default.
  void set_sink(std::function<void(const std::string&)> sink);

  /// Lines written / dropped since process start (the registry counters;
  /// here so tests need not scrape).
  std::uint64_t emitted() const;
  std::uint64_t suppressed() const;

  /// Drops rate-limiter state (tests — a fresh window for every case).
  void reset_rate_limits();

 private:
  friend class LogLine;
  Log();

  void emit(const LogLine& line);

  /// Sliding-window budget for one (level, subsystem, event) key.
  struct KeyWindow {
    double window_start_s = 0.0;
    std::uint32_t in_window = 0;
    std::uint64_t suppressed = 0;  ///< dropped since the window opened
  };

  std::atomic<std::uint8_t> min_level_{static_cast<std::uint8_t>(LogLevel::kInfo)};

  mutable std::mutex mu_;
  LogConfig config_;
  std::function<void(const std::string&)> sink_;
  std::unordered_map<std::string, KeyWindow> windows_;

  Counter* emitted_counter_ = nullptr;
  Counter* suppressed_counter_ = nullptr;
};

}  // namespace paintplace::obs
