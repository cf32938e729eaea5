#include "obs/trace.hpp"

#include <cstdio>
#include <thread>
#include <utility>

namespace lockdown::obs {

TraceRing::TraceRing(std::size_t min_capacity, std::uint32_t tid) : tid_(tid) {
  std::size_t cap = 2;
  while (cap < min_capacity) cap <<= 1;
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

std::size_t TraceRing::drain(std::vector<SpanEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t start = drained_.load(std::memory_order_relaxed);
  if (head - start > capacity()) {
    // Everything older than one capacity has been overwritten (and was
    // counted into dropped_ by the writer as it happened).
    start = head - capacity();
  }
  std::size_t appended = 0;
  for (std::uint64_t j = start; j != head; ++j) {
    Slot& s = slots_[j & mask_];
    // Seqlock read: the generation must match before and after the payload
    // copy, otherwise the writer lapped us mid-read and the slot now
    // belongs to a newer span (which a later drain will pick up).
    if (s.seq.load(std::memory_order_acquire) != j + 1) continue;
    SpanEvent e;
    e.name_id = s.name.load(std::memory_order_relaxed);
    e.tid = tid_;
    e.t_start_ns = s.t_start.load(std::memory_order_relaxed);
    e.t_end_ns = s.t_end.load(std::memory_order_relaxed);
    e.arg = s.arg.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != j + 1) continue;
    out.push_back(e);
    ++appended;
  }
  drained_.store(head, std::memory_order_release);
  return appended;
}

namespace {

/// Tracer identity for the thread-local ring cache: unique across the
/// process lifetime, never reused, so a cache entry for a destroyed tracer
/// can never alias a new one allocated at the same address.
std::atomic<std::uint64_t>& tracer_id_source() {
  static std::atomic<std::uint64_t> next{1};
  return next;
}

struct TlsRingEntry {
  std::uint64_t tracer_id;
  TraceRing* ring;
  std::shared_ptr<std::atomic<bool>> alive;
};

/// The calling thread's ring per tracer. At thread exit every ring it
/// wrote is marked retired, which lets a later thread reuse it.
struct TlsRings {
  std::vector<TlsRingEntry> entries;
  ~TlsRings() {
    for (const TlsRingEntry& e : entries) {
      e.alive->store(false, std::memory_order_release);
    }
  }
};

thread_local TlsRings tls_rings;

}  // namespace

Tracer::Tracer(std::size_t ring_capacity, std::size_t retained_rings)
    : ring_capacity_(ring_capacity == 0 ? 2 : ring_capacity),
      retained_rings_(retained_rings),
      epoch_ns_(trace_now_ns()),
      id_for_tls_(tracer_id_source().fetch_add(1, std::memory_order_relaxed)) {
  // Reserve name id 0 as "unknown" so a zeroed slot never aliases a real
  // span name.
  names_.emplace_back("trace", "unknown");
}

Tracer::~Tracer() = default;

Tracer& Tracer::instance() {
  static Tracer tracer(kDefaultRingCapacity, kRetainedRings);
  return tracer;
}

std::uint32_t Tracer::intern(std::string_view category, std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::pair(std::string(category), std::string(name));
  const auto it = name_ids_.find(key);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(key);
  name_ids_.emplace(std::move(key), id);
  return id;
}

TraceRing& Tracer::this_thread_ring() {
  for (const TlsRingEntry& e : tls_rings.entries) {
    if (e.tracer_id == id_for_tls_) return *e.ring;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  auto alive = std::make_shared<std::atomic<bool>>(true);
  ThreadEntry* reuse = nullptr;
  std::size_t retired = 0;
  for (ThreadEntry& t : threads_) {
    if (t.alive->load(std::memory_order_acquire)) continue;
    if (reuse == nullptr || t.registered < reuse->registered) reuse = &t;
    ++retired;
  }
  TraceRing* ring = nullptr;
  if (retired >= retained_rings_) {
    reuse->ring->recycle();
    reuse->name.clear();
    reuse->alive = alive;
    reuse->registered = registrations_++;
    ring = reuse->ring.get();
  } else {
    const auto tid = static_cast<std::uint32_t>(threads_.size());
    threads_.push_back({std::make_unique<TraceRing>(ring_capacity_, tid), {},
                        alive, registrations_++});
    ring = threads_.back().ring.get();
  }
  tls_rings.entries.push_back({id_for_tls_, ring, std::move(alive)});
  return *ring;
}

void Tracer::set_this_thread_name(std::string name) {
  const std::uint32_t tid = this_thread_ring().tid();
  const std::lock_guard<std::mutex> lock(mu_);
  threads_[tid].name = std::move(name);
}

std::size_t Tracer::drain(std::vector<SpanEvent>& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (ThreadEntry& t : threads_) n += t.ring->drain(out);
  return n;
}

void Tracer::discard() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (ThreadEntry& t : threads_) t.ring->discard();
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const ThreadEntry& t : threads_) n += t.ring->dropped();
  return n;
}

std::size_t Tracer::threads() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

namespace {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
}

void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

std::string Tracer::chrome_json() {
  std::vector<SpanEvent> spans;
  std::vector<std::pair<std::string, std::string>> names;
  std::vector<std::string> thread_names;
  std::uint64_t dropped_total = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (ThreadEntry& t : threads_) {
      t.ring->drain(spans);
      dropped_total += t.ring->dropped();
      thread_names.push_back(t.name);
    }
    names = names_;
  }

  std::string out;
  out.reserve(128 + spans.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":\"";
  out += std::to_string(dropped_total);
  out += "\"},\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < thread_names.size(); ++tid) {
    if (thread_names[tid].empty()) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_json_escaped(out, thread_names[tid]);
    out += "\"}}";
  }
  for (const SpanEvent& e : spans) {
    if (!first) out += ',';
    first = false;
    const auto& [cat, name] =
        e.name_id < names.size() ? names[e.name_id] : names[0];
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_us(out, e.t_start_ns >= epoch_ns_ ? e.t_start_ns - epoch_ns_ : 0);
    out += ",\"dur\":";
    append_us(out, e.t_end_ns >= e.t_start_ns ? e.t_end_ns - e.t_start_ns : 0);
    out += ",\"cat\":\"";
    append_json_escaped(out, cat);
    out += "\",\"name\":\"";
    append_json_escaped(out, name);
    out += "\",\"args\":{\"arg\":";
    out += std::to_string(e.arg);
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string Tracer::capture_chrome_json(std::chrono::milliseconds window) {
  discard();
  std::this_thread::sleep_for(window);
  return chrome_json();
}

}  // namespace lockdown::obs
