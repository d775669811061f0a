// paintplace::obs — the per-thread slot table every obs feature shares.
//
// A thread that traces, profiles, or records forensics claims one slot on
// first use and returns it to a freelist when it exits; the next new thread
// reuses it, so a thread-per-connection server does not grow obs memory per
// connection. Slots are never freed: they live in a fixed pointer table the
// crash handler can walk with plain loads. Each slot holds
//
//   * the live span-name stack (names are copied in at push, so the stack
//     never points into dead frames and the signal handler may read it) —
//     the profiler samples it, the flight recorder dumps it;
//   * the flight-event ring (flight_recorder.h);
//   * the trace ring (trace.h), allocated on the slot's first traced span.
//
// Internal to obs: the public surfaces are Tracer, Profiler, FlightRecorder.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace paintplace::obs {

struct TraceRing {
  std::vector<SpanEvent> events = std::vector<SpanEvent>(Tracer::kRingCapacity);
  std::size_t size = 0;  ///< valid events (<= capacity)
  std::size_t head = 0;  ///< next write slot
  std::uint64_t overwritten = 0;
};

struct ThreadSlot {
  static constexpr std::size_t kMaxSpanDepth = 32;
  static constexpr std::size_t kSpanNameLen = 48;

  int index = 0;  ///< position in the table; the chrome-trace tid is index + 1
  std::atomic<std::uint64_t> os_tid{0};  ///< the thread that holds (or last held) it

  // Span stack. The owner pushes and pops under stack_mu (uncontended but for
  // profiler sweeps) and publishes depth with release so the signal handler,
  // which cannot lock, reads a consistent prefix. Depth may exceed the table
  // when spans nest absurdly deep; the excess frames are not named.
  std::mutex stack_mu;
  std::atomic<std::uint32_t> depth{0};
  char names[kMaxSpanDepth][kSpanNameLen] = {};

  // Flight ring: head counts events ever recorded; slot = head % capacity.
  std::atomic<std::uint64_t> flight_head{0};
  FlightEvent flight[FlightRecorder::kEventsPerThread];

  std::mutex trace_mu;  ///< guards trace (the owner records, dumps read)
  std::unique_ptr<TraceRing> trace;
};

/// Slots the table can hold; threads beyond it (all live at once) get none
/// and record nothing.
inline constexpr std::size_t kMaxThreadSlots = 256;

/// The calling thread's slot, claimed on first call. nullptr when the table
/// is full or the thread is exiting.
ThreadSlot* this_thread_slot();

/// Slots ever created (a prefix of the table), and slot i of them. Both are
/// async-signal-safe.
std::size_t thread_slot_count();
ThreadSlot* thread_slot(std::size_t i);

/// Appends one completed span to `slot`'s trace ring (allocating it).
void record_trace(ThreadSlot& slot, const SpanEvent& event);

/// Copies `src` into dst[cap], truncating, and replaces anything that would
/// need JSON escaping (quotes, backslashes, control or non-ASCII bytes) with
/// '_', so the crash handler can emit the bytes verbatim.
void sanitize_into(char* dst, std::size_t cap, const char* src);

}  // namespace paintplace::obs
