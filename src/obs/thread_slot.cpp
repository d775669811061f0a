#include "obs/thread_slot.h"

#include <sys/syscall.h>
#include <unistd.h>

namespace paintplace::obs {

namespace {

std::atomic<ThreadSlot*> g_slots[kMaxThreadSlots];
std::atomic<std::size_t> g_slot_count{0};

// The freelist is a fixed array, not a container: exiting threads return
// their slots from thread-local destructors, which may run after static
// destruction has begun.
std::mutex g_free_mu;
ThreadSlot* g_free[kMaxThreadSlots];
std::size_t g_free_count = 0;

ThreadSlot* claim_slot() {
  ThreadSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_free_mu);
    if (g_free_count > 0) {
      slot = g_free[--g_free_count];
    } else {
      const std::size_t n = g_slot_count.load(std::memory_order_relaxed);
      if (n == kMaxThreadSlots) return nullptr;
      slot = new ThreadSlot();
      slot->index = static_cast<int>(n);
      g_slots[n].store(slot, std::memory_order_release);
      g_slot_count.store(n + 1, std::memory_order_release);
    }
  }
  // A reused slot drops the previous owner's stack and flight events; its
  // trace ring keeps them (they belong in the trace dump).
  slot->os_tid.store(static_cast<std::uint64_t>(::syscall(SYS_gettid)),
                     std::memory_order_relaxed);
  slot->depth.store(0, std::memory_order_release);
  slot->flight_head.store(0, std::memory_order_release);
  return slot;
}

/// True once this thread has no slot to use: the table was full, or the
/// thread is exiting. Trivially destructible, so it is readable from other
/// thread-local destructors.
thread_local bool t_slotless = false;

struct SlotHandle {
  ThreadSlot* slot = nullptr;
  ~SlotHandle() {
    t_slotless = true;
    if (slot == nullptr) return;
    std::lock_guard<std::mutex> lock(g_free_mu);
    g_free[g_free_count++] = slot;
  }
};

thread_local SlotHandle t_handle;

}  // namespace

ThreadSlot* this_thread_slot() {
  if (t_slotless) return nullptr;
  SlotHandle& handle = t_handle;
  if (handle.slot == nullptr) {
    handle.slot = claim_slot();
    t_slotless = handle.slot == nullptr;
  }
  return handle.slot;
}

std::size_t thread_slot_count() { return g_slot_count.load(std::memory_order_acquire); }

ThreadSlot* thread_slot(std::size_t i) { return g_slots[i].load(std::memory_order_acquire); }

void record_trace(ThreadSlot& slot, const SpanEvent& event) {
  std::lock_guard<std::mutex> lock(slot.trace_mu);
  if (slot.trace == nullptr) slot.trace = std::make_unique<TraceRing>();
  TraceRing& ring = *slot.trace;
  ring.events[ring.head] = event;
  ring.head = (ring.head + 1) % ring.events.size();
  if (ring.size < ring.events.size()) {
    ring.size += 1;
  } else {
    ring.overwritten += 1;
  }
}

void sanitize_into(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; src[i] != '\0' && i + 1 < cap; ++i) {
      const unsigned char c = static_cast<unsigned char>(src[i]);
      dst[i] = (c >= 0x20 && c <= 0x7e && c != '"' && c != '\\') ? static_cast<char>(c) : '_';
    }
  }
  dst[i] = '\0';
}

}  // namespace paintplace::obs
