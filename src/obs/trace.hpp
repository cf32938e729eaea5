// Always-on pipeline span tracing: where a packet's time goes, per thread,
// per stage, cheap enough to leave compiled into the hot paths.
//
// Each thread that traces owns one TraceRing -- a fixed-size ring of span
// slots written with relaxed atomics and a per-slot generation counter
// (seqlock discipline), so pushing a span never takes a lock, never
// allocates, and never blocks on a reader. The ring overwrites its oldest
// span on wrap; spans overwritten before any drain saw them are counted in
// dropped(), so a trace is honest about what it lost. Span names are
// interned once (a mutex-guarded registration at first use of each
// TRACE_SPAN site); the hot path carries a 32-bit id.
//
// The exporter drains every ring into Chrome Trace Event Format JSON --
// "X" complete events with microsecond timestamps -- loadable in Perfetto
// or chrome://tracing, so one capture shows a datagram train crossing the
// wire thread, the shard rings, decode, classification, and the encode
// side on one timeline.
//
// Overhead budget (bench_obs_trace): a disabled span is an atomic load and
// a branch (< 2 ns); an enabled span is two steady_clock reads plus five
// relaxed stores (< 40 ns). Spans are droppable telemetry: a reader that
// races a wrap skips the torn slot rather than stalling the writer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lockdown::obs {

/// One finished span, as drained from a ring. Timestamps are steady-clock
/// nanoseconds (comparable within a process, not across).
struct SpanEvent {
  std::uint32_t name_id = 0;
  std::uint32_t tid = 0;        ///< tracer-assigned sequential thread id
  std::uint64_t t_start_ns = 0;
  std::uint64_t t_end_ns = 0;
  std::uint64_t arg = 0;        ///< span-defined payload (batch size, shard, ...)
};

/// Steady-clock nanoseconds since an arbitrary epoch.
[[nodiscard]] inline std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// Fixed-capacity single-writer span ring. The owning thread pushes; any
/// thread may drain (the Tracer serializes drains under its mutex). A
/// full ring overwrites its oldest slot; overwriting a slot no drain has
/// consumed increments dropped().
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(std::size_t min_capacity, std::uint32_t tid);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

  /// Owning thread only. Never blocks, never allocates.
  void push(std::uint32_t name_id, std::uint64_t t_start_ns,
            std::uint64_t t_end_ns, std::uint64_t arg) noexcept {
    const std::uint64_t i = head_.load(std::memory_order_relaxed);
    if (i - drained_.load(std::memory_order_relaxed) >= capacity()) {
      // The slot being overwritten was never drained: the trace lost it.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    Slot& s = slots_[i & mask_];
    // Seqlock write: invalidate, publish payload, commit the generation.
    // All payload fields are relaxed atomics, so a racing drain reads
    // stale-or-new values (never UB) and the generation check tells it
    // which.
    s.seq.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.name.store(name_id, std::memory_order_relaxed);
    s.t_start.store(t_start_ns, std::memory_order_relaxed);
    s.t_end.store(t_end_ns, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.seq.store(i + 1, std::memory_order_release);
    head_.store(i + 1, std::memory_order_release);
  }

  /// Copy every span pushed since the last drain into `out` (oldest
  /// first), advance the drain cursor, and return how many were appended.
  /// Slots overwritten mid-copy are skipped (they are already counted by
  /// dropped()). Safe against a concurrently pushing writer; concurrent
  /// drains must be externally serialized (the Tracer's mutex does this).
  std::size_t drain(std::vector<SpanEvent>& out);

  /// Advance the drain cursor past everything currently in the ring
  /// without copying (the start of a /trace capture window).
  void discard() {
    drained_.store(head_.load(std::memory_order_acquire),
                   std::memory_order_release);
  }

  /// Hand the ring to a new writer thread once its previous writer has
  /// exited: whatever that writer left undrained counts as dropped.
  void recycle() noexcept {
    dropped_.fetch_add(pending(), std::memory_order_relaxed);
    discard();
  }

  /// Spans overwritten before any drain consumed them.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Spans pushed since the last drain (approximate while the writer runs).
  [[nodiscard]] std::size_t pending() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t cursor = drained_.load(std::memory_order_relaxed);
    const std::uint64_t n = head - cursor;
    return n > capacity() ? capacity() : static_cast<std::size_t>(n);
  }

 private:
  struct Slot {
    /// 0 while a write is in flight, else (write index + 1): a generation
    /// stamp, so a reader can tell "the span I wanted" from "the span that
    /// overwrote it capacity pushes later".
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint32_t> name{0};
    std::atomic<std::uint64_t> t_start{0};
    std::atomic<std::uint64_t> t_end{0};
    std::atomic<std::uint64_t> arg{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::uint32_t tid_ = 0;
  // Writer's line: next write index. Readers load with acquire.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  // Drain cursor: written by drainers, read (relaxed) by the writer for
  // dropped-span accounting.
  alignas(64) std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Process-wide span tracer: the name-intern table plus one TraceRing per
/// traced thread. Hot-path state is reachable without the mutex (enabled
/// flag, thread-local ring pointer); registration, thread naming, and
/// drains serialize on it.
class Tracer {
 public:
  /// `ring_capacity` applies to rings created after construction (each
  /// traced thread gets one).
  /// `retained_rings` bounds how many exited threads' rings are kept for
  /// late drains (see this_thread_ring); the default keeps all of them,
  /// which a tracer exported once at the end of a run needs.
  explicit Tracer(std::size_t ring_capacity = kDefaultRingCapacity,
                  std::size_t retained_rings = kKeepAllRings);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer the TRACE_SPAN macros bind to. It is always on and lives
  /// as long as the process, so it keeps only kRetainedRings exited
  /// threads' rings: a collector rebuilt per run must not grow it.
  [[nodiscard]] static Tracer& instance();

  /// Tracing defaults to on ("always-on"); a disabled tracer reduces every
  /// span site to one relaxed load and a branch.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Intern a (category, name) pair; the same pair always returns the same
  /// id. Called once per TRACE_SPAN site (function-local static), so the
  /// mutex never shows up in steady state.
  [[nodiscard]] std::uint32_t intern(std::string_view category,
                                     std::string_view name);

  /// The ring owned by the calling thread, created on first use. Stable
  /// for the thread's lifetime; rings outlive their threads (the tracer
  /// owns them) so late drains still see their spans. Once
  /// `retained_rings` rings belong to exited threads, a new thread takes
  /// over the one whose thread registered first (its undrained spans
  /// count as dropped), so thread churn cannot grow the tracer without
  /// bound.
  [[nodiscard]] TraceRing& this_thread_ring();

  /// Label the calling thread in exported traces ("shard-3", "wire", ...).
  void set_this_thread_name(std::string name);

  /// Convenience for non-RAII call sites: stamp a finished span onto the
  /// calling thread's ring.
  void emit(std::uint32_t name_id, std::uint64_t t_start_ns,
            std::uint64_t t_end_ns, std::uint64_t arg = 0) {
    if (enabled()) this_thread_ring().push(name_id, t_start_ns, t_end_ns, arg);
  }

  /// Drain every ring (oldest spans first within each ring) into `out`;
  /// returns how many spans were appended. Consecutive drains see disjoint
  /// spans.
  std::size_t drain(std::vector<SpanEvent>& out);

  /// Advance every ring's drain cursor without collecting: the starting
  /// gun of a capture window.
  void discard();

  /// Total spans lost to ring wrap or to a ring's takeover by a new
  /// thread, across all rings (cumulative).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Registered rings (== distinct tids): one per thread that ever
  /// traced, until exited threads' rings start being reused.
  [[nodiscard]] std::size_t threads() const;

  /// Drain everything pending and render it as Chrome Trace Event Format
  /// JSON: thread-name metadata events plus one "X" complete event per
  /// span (ts/dur in microseconds relative to the tracer's epoch).
  [[nodiscard]] std::string chrome_json();

  /// Discard the backlog, sleep `window`, then drain and render -- the
  /// GET /trace?ms=N endpoint. Blocks the calling thread for `window`.
  [[nodiscard]] std::string capture_chrome_json(std::chrono::milliseconds window);

  static constexpr std::size_t kDefaultRingCapacity = 8192;
  /// Rings of exited threads instance() keeps for late drains.
  static constexpr std::size_t kRetainedRings = 16;
  static constexpr std::size_t kKeepAllRings = ~std::size_t{0};

 private:
  struct ThreadEntry {
    std::unique_ptr<TraceRing> ring;
    std::string name;
    /// Cleared when the writing thread exits. Shared with that thread's
    /// ring cache, so it stays valid whichever of thread and tracer ends
    /// first.
    std::shared_ptr<std::atomic<bool>> alive;
    std::uint64_t registered = 0;  ///< order in which its thread registered
  };

  std::atomic<bool> enabled_{true};
  std::size_t ring_capacity_;
  std::size_t retained_rings_;
  std::uint64_t epoch_ns_;   ///< steady-clock origin of exported timestamps
  std::uint64_t id_for_tls_; ///< process-unique, keys the thread-local ring cache

  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>, std::uint32_t> name_ids_;
  std::vector<std::pair<std::string, std::string>> names_;  ///< id -> (cat, name)
  std::vector<ThreadEntry> threads_;                        ///< tid -> entry
  std::uint64_t registrations_ = 0;
};

/// RAII span: stamps [construction, destruction) onto the current thread's
/// ring of Tracer::instance(). Usually spelled via the TRACE_SPAN macros.
class TraceSpan {
 public:
  explicit TraceSpan(std::uint32_t name_id, std::uint64_t arg = 0) noexcept {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;  // ring_ stays null: destructor no-ops
    ring_ = &tracer.this_thread_ring();
    name_id_ = name_id;
    arg_ = arg;
    t_start_ = trace_now_ns();
  }

  ~TraceSpan() {
    if (ring_ != nullptr) ring_->push(name_id_, t_start_, trace_now_ns(), arg_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a payload discovered mid-span (records decoded, bytes written).
  void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }

 private:
  TraceRing* ring_ = nullptr;
  std::uint32_t name_id_ = 0;
  std::uint64_t t_start_ = 0;
  std::uint64_t arg_ = 0;
};

#define LOCKDOWN_TRACE_CONCAT2(a, b) a##b
#define LOCKDOWN_TRACE_CONCAT(a, b) LOCKDOWN_TRACE_CONCAT2(a, b)

/// Open a span covering the rest of the enclosing scope. `cat` and `name`
/// must be string literals (interned once per call site).
#define TRACE_SPAN(cat, name)                                               \
  static const std::uint32_t LOCKDOWN_TRACE_CONCAT(lockdown_trace_id_,      \
                                                   __LINE__) =              \
      ::lockdown::obs::Tracer::instance().intern(cat, name);                \
  const ::lockdown::obs::TraceSpan LOCKDOWN_TRACE_CONCAT(                   \
      lockdown_trace_span_, __LINE__)(                                      \
      LOCKDOWN_TRACE_CONCAT(lockdown_trace_id_, __LINE__))

/// TRACE_SPAN with a payload known at entry (shard index, batch size).
#define TRACE_SPAN_ARG(cat, name, arg)                                      \
  static const std::uint32_t LOCKDOWN_TRACE_CONCAT(lockdown_trace_id_,      \
                                                   __LINE__) =              \
      ::lockdown::obs::Tracer::instance().intern(cat, name);                \
  const ::lockdown::obs::TraceSpan LOCKDOWN_TRACE_CONCAT(                   \
      lockdown_trace_span_, __LINE__)(                                      \
      LOCKDOWN_TRACE_CONCAT(lockdown_trace_id_, __LINE__),                  \
      static_cast<std::uint64_t>(arg))

/// TRACE_SPAN bound to a visible variable so the payload can be attached
/// once it is known: TRACE_SPAN_NAMED(span, ...); ...; span.set_arg(n);
#define TRACE_SPAN_NAMED(var, cat, name)                                    \
  static const std::uint32_t LOCKDOWN_TRACE_CONCAT(lockdown_trace_id_,      \
                                                   __LINE__) =              \
      ::lockdown::obs::Tracer::instance().intern(cat, name);                \
  ::lockdown::obs::TraceSpan var(                                           \
      LOCKDOWN_TRACE_CONCAT(lockdown_trace_id_, __LINE__))

}  // namespace lockdown::obs
