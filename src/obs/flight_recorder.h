// paintplace::obs — flight recorder: post-mortem forensics for crashes.
//
// A black box for the serving process. Every thread that touches a request
// appends fixed-size structured events (request admitted, shed decision,
// model swap, drain, stall, last log lines) into the lock-free ring of its
// obs thread slot (thread_slot.h);
// when the process dies on SIGSEGV/SIGABRT/SIGBUS, an async-signal-safe
// handler walks every ring and writes a JSON post-mortem file containing:
//
//   - the fatal signal number,
//   - build identity (git sha, compiler, kernel flavour — obs/build_info.h),
//   - per-thread active span stacks (what each thread was *inside* when the
//     process died — span names are copied into the slot at push time, so
//     the handler never chases pointers into dead stack frames),
//   - per-thread event rings, oldest to newest,
//   - the most recent metrics-registry snapshot (refreshed off the signal
//     path by the watchdog tick — the handler only copies bytes).
//
// Async-signal-safety contract for the handler path: no malloc, no locks,
// no stdio — only open/write/close on a pre-computed path, formatting into
// a preallocated buffer with hand-rolled integer conversion. Everything the
// dump needs (thread table, rings, span stacks, metrics snapshot, build
// strings) lives in fixed storage written before the signal, readable with
// plain loads.
//
// Recording cost when disabled: one relaxed atomic load per record() call
// (and span-stack maintenance is additionally gated behind the stack bit
// in obs::detail::g_span_mask, so an inert Span still costs exactly one
// load — bench_serve guards this).
//
// enable() turns on recording only (tests, programmatic use); install(dir)
// additionally registers the signal handlers and fixes the dump path to
// `<dir>/postmortem.<pid>.json` — wired to `forecast_serve --postmortem`.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace paintplace::obs {

enum class EventKind : std::uint8_t {
  kLog = 0,      ///< a structured log line was emitted (msg = subsystem.event)
  kRequest = 1,  ///< request admitted to a replica (a = replica, b = queue depth)
  kShed = 2,     ///< request shed (msg = reason)
  kSwap = 3,     ///< model hot-swap (a = new version)
  kDrain = 4,    ///< server drain started
  kStall = 5,    ///< watchdog stall report (a = age ms, b = replica)
  kSignal = 6,   ///< fatal signal entered the handler (a = signo)
  kMark = 7,     ///< free-form marker (tests, tools)
};

const char* to_string(EventKind kind);

/// One ring slot. Fixed-size POD: recording is bounded-time and the signal
/// handler can read it with plain loads. msg is sanitized (printable ASCII,
/// no quotes/backslashes) at record time so dumping needs no escaping.
struct FlightEvent {
  std::uint64_t t_us = 0;      ///< microseconds since recorder start
  std::uint64_t trace_id = 0;  ///< 0 = not tied to a request
  EventKind kind = EventKind::kMark;
  char msg[55] = {0};
  std::int64_t a = 0;
  std::int64_t b = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kEventsPerThread = 128;

  static FlightRecorder& instance();

  /// Starts recording (rings fill, spans keep their thread's stack; no
  /// signal handlers). Idempotent.
  void enable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// enable() + install SIGSEGV/SIGABRT/SIGBUS handlers that dump to
  /// `<dir>/postmortem.<pid>.json` and re-raise. Call once, from main,
  /// before serving traffic.
  void install(const std::string& dir);
  const char* dump_path() const { return dump_path_; }

  /// Appends one event to the calling thread's ring. No-op (one relaxed
  /// load) when disabled. `msg` is truncated and sanitized into the slot.
  static void record(EventKind kind, std::uint64_t trace_id, const char* msg,
                     std::int64_t a = 0, std::int64_t b = 0);

  /// Copies the global metrics registry's Prometheus text into the
  /// preallocated snapshot buffer the signal handler embeds in the dump.
  /// Called off the signal path (watchdog tick, install time).
  void refresh_metrics_snapshot();

  /// Writes the post-mortem JSON to `path` programmatically (tests, drain
  /// diagnostics). Uses the same formatting core as the signal handler.
  /// Returns false when the file could not be opened.
  bool dump(const std::string& path, int signal_number = 0);

  /// Events currently recorded across all thread rings (tests).
  std::size_t recorded() const;
  /// Drops all ring contents (tests; live spans keep their stacks). Not
  /// thread-safe against concurrent recording.
  void clear();

 private:
  FlightRecorder();

  /// Builds the dump into buf (AS-safe: no allocation, no locks) and
  /// returns the byte length.
  std::size_t render_dump(char* buf, std::size_t cap, int signal_number) const;

  friend void flight_recorder_signal_handler(int);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> installed_{false};
  char dump_path_[512] = {0};

  std::uint64_t epoch_us_ = 0;
};

}  // namespace paintplace::obs
