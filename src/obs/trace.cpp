#include "obs/trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/log.h"
#include "obs/sampler.h"
#include "obs/thread_slot.h"

namespace paintplace::obs {

namespace detail {
std::atomic<std::uint8_t> g_span_mask{0};

namespace {
std::mutex g_stack_users_mu;
std::atomic<std::uint8_t> g_stack_users{0};
}  // namespace

void want_span_stacks(StackUser user, bool on) {
  std::lock_guard<std::mutex> lock(g_stack_users_mu);
  std::uint8_t users = g_stack_users.load(std::memory_order_relaxed);
  users = on ? users | user : users & static_cast<std::uint8_t>(~user);
  g_stack_users.store(users, std::memory_order_relaxed);
  if (users != 0) {
    g_span_mask.fetch_or(kSpanMaskStack, std::memory_order_relaxed);
  } else {
    g_span_mask.fetch_and(static_cast<std::uint8_t>(~kSpanMaskStack), std::memory_order_relaxed);
  }
}

bool span_stacks_wanted_by(StackUser user) {
  return (g_stack_users.load(std::memory_order_relaxed) & user) != 0;
}
}  // namespace detail

namespace {

void copy_str(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

thread_local std::uint64_t t_current_trace_id = 0;

}  // namespace

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer()
    : sampler_(std::make_unique<Sampler>()), epoch_(std::chrono::steady_clock::now()) {
  if (const char* path = std::getenv("PAINTPLACE_TRACE"); path != nullptr && path[0] != '\0') {
    dump_path_ = path;
    enable();
  }
  if (const char* every = std::getenv("PAINTPLACE_TRACE_SAMPLE");
      every != nullptr && every[0] != '\0') {
    SamplerConfig cfg;
    cfg.sample_every = std::strtoull(every, nullptr, 10);
    if (cfg.sample_every == 0) cfg.sample_every = 1;
    if (const char* slow = std::getenv("PAINTPLACE_TRACE_SLOW_MS");
        slow != nullptr && slow[0] != '\0') {
      cfg.slow_threshold_s = std::atof(slow) * 1e-3;
    }
    sampler_->configure(cfg);
  }
}

Tracer::~Tracer() = default;

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::configure(const std::string& dump_path) {
  {
    std::lock_guard<std::mutex> lock(path_mu_);
    dump_path_ = dump_path;
  }
  enable();
}

bool Tracer::dump_configured() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(path_mu_);
    path = dump_path_;
  }
  if (path.empty()) return false;
  return dump_json(path);
}

void Tracer::record(const SpanEvent& event) {
  ThreadSlot* slot = this_thread_slot();
  if (slot == nullptr) return;
  // Request-tied spans route through the tail sampler while it is active:
  // buffered provisionally, committed to this same ring (or dropped) when
  // the request finishes. Untied spans and head-sampled requests record
  // directly, so non-request instrumentation is never lost.
  if (event.trace_id != 0 && sampler_->active() && sampler_->offer(event, slot)) {
    return;
  }
  record_trace(*slot, event);
}

namespace {

/// Calls fn(slot, ring) for every slot holding a trace ring, under the
/// ring's lock.
template <typename Fn>
void for_each_ring(Fn&& fn) {
  for (std::size_t i = 0; i < thread_slot_count(); ++i) {
    ThreadSlot& slot = *thread_slot(i);
    std::lock_guard<std::mutex> lock(slot.trace_mu);
    if (slot.trace != nullptr) fn(slot, *slot.trace);
  }
}

}  // namespace

std::string Tracer::dump_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for_each_ring([&](const ThreadSlot& slot, const TraceRing& ring) {
    // Oldest-first: with a full ring, `head` is also the oldest slot.
    const std::size_t capacity = ring.events.size();
    const std::size_t start = ring.size < capacity ? 0 : ring.head;
    for (std::size_t i = 0; i < ring.size; ++i) {
      const SpanEvent& ev = ring.events[(start + i) % capacity];
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\":\"";
      json_escape_into(out, ev.name);
      out += "\",\"cat\":\"";
      json_escape_into(out, ev.category);
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%llu,\"dur\":%llu,\"args\":{",
                    slot.index + 1, static_cast<unsigned long long>(ev.start_us),
                    static_cast<unsigned long long>(ev.dur_us));
      out += buf;
      bool first_arg = true;
      if (ev.trace_id != 0) {
        std::snprintf(buf, sizeof(buf), "\"trace\":%llu",
                      static_cast<unsigned long long>(ev.trace_id));
        out += buf;
        first_arg = false;
      }
      for (int a = 0; a < ev.num_args; ++a) {
        const TraceArg& arg = ev.args[a];
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"";
        json_escape_into(out, arg.key);
        out += "\":";
        switch (arg.kind) {
          case TraceArg::Kind::kInt:
            out += std::to_string(arg.i);
            break;
          case TraceArg::Kind::kDouble:
            std::snprintf(buf, sizeof(buf), "%.6g", arg.d);
            out += std::isfinite(arg.d) ? buf : "null";
            break;
          case TraceArg::Kind::kString:
            out += "\"";
            json_escape_into(out, arg.s);
            out += "\"";
            break;
        }
      }
      out += "}}";
    }
  });
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

bool Tracer::dump_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Log::instance().error("obs", "trace_write_failed").kv("path", path);
    return false;
  }
  const std::string body = dump_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

void Tracer::clear() {
  for_each_ring([](const ThreadSlot&, TraceRing& ring) {
    ring.size = 0;
    ring.head = 0;
    ring.overwritten = 0;
  });
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for_each_ring([&](const ThreadSlot&, const TraceRing& ring) { total += ring.overwritten; });
  return total;
}

std::size_t Tracer::recorded() const {
  std::size_t total = 0;
  for_each_ring([&](const ThreadSlot&, const TraceRing& ring) { total += ring.size; });
  return total;
}

// ---- TraceContext -----------------------------------------------------------

std::uint64_t TraceContext::current() { return t_current_trace_id; }

void TraceContext::set_current(std::uint64_t id) { t_current_trace_id = id; }

std::uint64_t TraceContext::next_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceId::ScopedTraceId(std::uint64_t id) : prev_(t_current_trace_id) {
  t_current_trace_id = id;
}

ScopedTraceId::~ScopedTraceId() { t_current_trace_id = prev_; }

// ---- Span -------------------------------------------------------------------

void Span::start(const char* name, const char* category, std::uint8_t mask) {
  if ((mask & detail::kSpanMaskStack) != 0) {
    if (ThreadSlot* slot = this_thread_slot()) {
      std::lock_guard<std::mutex> lock(slot->stack_mu);
      const std::uint32_t depth = slot->depth.load(std::memory_order_relaxed);
      if (depth < ThreadSlot::kMaxSpanDepth) {
        sanitize_into(slot->names[depth], ThreadSlot::kSpanNameLen, name);
      }
      slot->depth.store(depth + 1, std::memory_order_release);
      stacked_ = slot;
    }
  }
  if ((mask & detail::kSpanMaskTrace) != 0) {
    active_ = true;
    copy_str(event_.name, sizeof(event_.name), name);
    copy_str(event_.category, sizeof(event_.category), category);
    event_.trace_id = t_current_trace_id;
    start_us_ = Tracer::instance().now_us();
  }
}

Span::Span(const char* name, const char* category) {
  const std::uint8_t mask = detail::g_span_mask.load(std::memory_order_relaxed);
  if (mask == 0) return;
  start(name, category, mask);
}

Span::Span(const std::string& name, const char* category) {
  const std::uint8_t mask = detail::g_span_mask.load(std::memory_order_relaxed);
  if (mask == 0) return;
  start(name.c_str(), category, mask);
}

Span::~Span() {
  if (stacked_ != nullptr) {
    std::lock_guard<std::mutex> lock(stacked_->stack_mu);
    const std::uint32_t depth = stacked_->depth.load(std::memory_order_relaxed);
    if (depth > 0) stacked_->depth.store(depth - 1, std::memory_order_release);
  }
  if (!active_) return;
  Tracer& tracer = Tracer::instance();
  event_.start_us = start_us_;
  event_.dur_us = tracer.now_us() - start_us_;
  if (flops_ > 0.0) {
    const double seconds = static_cast<double>(event_.dur_us) * 1e-6;
    arg("gflop_per_s", seconds > 0.0 ? flops_ / seconds * 1e-9 : 0.0);
  }
  tracer.record(event_);
}

TraceArg* Span::next_arg(const char* key, TraceArg::Kind kind) {
  if (!active_ || event_.num_args >= SpanEvent::kMaxArgs) return nullptr;
  TraceArg& a = event_.args[event_.num_args++];
  a.key = key;
  a.kind = kind;
  return &a;
}

void Span::arg(const char* key, std::int64_t value) {
  if (TraceArg* a = next_arg(key, TraceArg::Kind::kInt)) a->i = value;
}

void Span::arg(const char* key, double value) {
  if (TraceArg* a = next_arg(key, TraceArg::Kind::kDouble)) a->d = value;
}

void Span::arg(const char* key, const char* value) {
  if (TraceArg* a = next_arg(key, TraceArg::Kind::kString)) copy_str(a->s, sizeof(a->s), value);
}

}  // namespace paintplace::obs
