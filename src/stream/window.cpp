#include "stream/window.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/watermark.hpp"
#include "util/rng.hpp"

namespace lockdown::stream {

namespace {

[[nodiscard]] std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

[[nodiscard]] std::uint32_t service_key(const flow::FlowRecord& r) noexcept {
  const flow::PortKey key = r.service_port();
  return (static_cast<std::uint32_t>(static_cast<std::uint8_t>(key.proto))
          << 16) |
         key.port;
}

[[nodiscard]] std::string field_value_to_string(KeyField f, std::uint32_t v) {
  switch (f) {
    case KeyField::kSrcAs:
    case KeyField::kDstAs:
      return "AS" + std::to_string(v);
    case KeyField::kService: {
      const flow::PortKey key{
          static_cast<flow::IpProtocol>(static_cast<std::uint8_t>(v >> 16)),
          static_cast<std::uint16_t>(v & 0xffff)};
      return key.to_string();
    }
    case KeyField::kProto: {
      const char* name = flow::to_string(static_cast<flow::IpProtocol>(v));
      return name[0] != '?' ? std::string(name) : std::to_string(v);
    }
    case KeyField::kSrcPort:
    case KeyField::kDstPort:
      return std::to_string(v);
  }
  return std::to_string(v);
}

}  // namespace

std::optional<KeyField> parse_key_field(std::string_view name) {
  for (const KeyField f :
       {KeyField::kSrcAs, KeyField::kDstAs, KeyField::kService,
        KeyField::kProto, KeyField::kSrcPort, KeyField::kDstPort}) {
    if (name == to_string(f)) return f;
  }
  return std::nullopt;
}

std::optional<KeyTuple> parse_key_tuple(std::string_view csv) {
  KeyTuple tuple;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string_view part = trim(csv.substr(pos, comma - pos));
    if (!part.empty()) {
      const auto field = parse_key_field(part);
      if (!field || tuple.size() >= kMaxKeyFields) return std::nullopt;
      tuple.push_back(*field);
    }
    pos = comma + 1;
  }
  return tuple;
}

std::size_t WindowKeyHash::operator()(const WindowKey& k) const noexcept {
  std::uint64_t h = 0x6c6f636b646f776eULL;  // "lockdown"
  for (const std::uint32_t v : k.v) h = util::hash_combine(h, v);
  return static_cast<std::size_t>(h);
}

std::string key_to_string(const KeyTuple& tuple, const WindowKey& key) {
  if (tuple.empty()) return "*";
  std::string out;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ',';
    out += to_string(tuple[i]);
    out += '=';
    out += field_value_to_string(tuple[i], key.v[i]);
  }
  return out;
}

WindowAggregator::WindowAggregator(Config config)
    : config_(std::move(config)), flow_scale_(config_.flow_scale) {
  if (config_.window_seconds <= 0) {
    throw std::invalid_argument("WindowAggregator: non-positive window");
  }
  if (config_.key.size() > kMaxKeyFields) {
    throw std::invalid_argument("WindowAggregator: key tuple longer than " +
                                std::to_string(kMaxKeyFields) + " fields");
  }
  if (config_.max_gap_windows < 1) config_.max_gap_windows = 1;
}

std::uint64_t WindowAggregator::accumulate(
    std::span<const flow::FlowRecord> records,
    std::span<const std::uint8_t> hits, const std::uint32_t* service_col,
    const std::uint32_t* src_as_col, const std::uint32_t* dst_as_col) {
  if (records.empty()) return 0;
  const std::int64_t w = config_.window_seconds;
  const bool keyed = !config_.key.empty();
  thread_local Segment seg;
  seg.clear();
  // The routing thread's wire-arrival stamp (obs/watermark.hpp): merged
  // into the bank as a running max, retired with the window as its
  // arrival watermark. 0 (unstamped callers) contributes nothing.
  seg.arrival_ns = obs::arrival_ns();

  const auto key_of = [&](std::size_t i) {
    WindowKey key;
    const flow::FlowRecord& r = records[i];
    for (std::size_t f = 0; f < config_.key.size(); ++f) {
      switch (config_.key[f]) {
        case KeyField::kSrcAs:
          key.v[f] = src_as_col != nullptr ? src_as_col[i] : r.src_as.value();
          break;
        case KeyField::kDstAs:
          key.v[f] = dst_as_col != nullptr ? dst_as_col[i] : r.dst_as.value();
          break;
        case KeyField::kService:
          key.v[f] = service_col != nullptr ? service_col[i] : service_key(r);
          break;
        case KeyField::kProto:
          key.v[f] = static_cast<std::uint8_t>(r.protocol);
          break;
        case KeyField::kSrcPort:
          key.v[f] = r.src_port;
          break;
        case KeyField::kDstPort:
          key.v[f] = r.dst_port;
          break;
      }
    }
    return key;
  };

  std::uint64_t late = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!hits.empty() && hits[i] == 0) continue;
    const std::int64_t t = records[i].first.seconds();
    std::int64_t begin = window_begin_.load(std::memory_order_acquire);
    if (begin == kUnset) {
      // First record anywhere: anchor the window clock. A racing loser
      // keeps the winner's anchor; its records follow the late policy.
      window_begin_.compare_exchange_strong(begin, align(t),
                                            std::memory_order_acq_rel);
      begin = window_begin_.load(std::memory_order_acquire);
    }
    if (t >= begin + w) {
      // Merge what belongs to the closing window, then rotate.
      if (!seg.empty()) {
        merge(seg);
        seg.clear();
      }
      rotate_to(t);
    } else if (t < begin) {
      ++late;  // folded into the filling window (late policy)
    }
    const WindowAcc a{1, records[i].bytes, records[i].packets};
    seg.total += a;
    if (keyed) seg.map[key_of(i)] += a;
  }
  if (!seg.empty()) merge(seg);
  if (late != 0) late_records_.fetch_add(late, std::memory_order_relaxed);
  return late;
}

void WindowAggregator::advance(net::Timestamp now) {
  rotate_to(now.seconds());
}

void WindowAggregator::flush() {
  std::lock_guard<std::mutex> lk(rot_mu_);
  const std::int64_t begin = window_begin_.load(std::memory_order_relaxed);
  if (begin == kUnset) return;
  // Only retire a window that holds data: a flush right after a rotation
  // (or a second flush) must not invent a trailing empty window.
  {
    Bank& b = banks_[active_.load(std::memory_order_relaxed)];
    std::lock_guard<std::mutex> bk(b.mu);
    if (b.total == WindowAcc{} && b.map.empty()) return;
  }
  const std::int64_t seq = window_seq_.load(std::memory_order_relaxed);
  retire_active_locked(begin, seq);
  window_seq_.store(seq + 1, std::memory_order_relaxed);
  window_begin_.store(begin + config_.window_seconds,
                      std::memory_order_release);
}

std::size_t WindowAggregator::drain(
    const std::function<void(WindowResult&&)>& sink) {
  std::size_t n = 0;
  for (;;) {
    WindowResult r;
    {
      std::lock_guard<std::mutex> lk(done_mu_);
      if (done_.empty()) break;
      r = std::move(done_.front());
      done_.pop_front();
    }
    sink(std::move(r));
    ++n;
  }
  return n;
}

std::size_t WindowAggregator::pending() const {
  std::lock_guard<std::mutex> lk(done_mu_);
  return done_.size();
}

std::optional<net::Timestamp> WindowAggregator::current_window_begin() const {
  const std::int64_t begin = window_begin_.load(std::memory_order_acquire);
  if (begin == kUnset) return std::nullopt;
  return net::Timestamp(begin);
}

void WindowAggregator::merge(const Segment& seg) {
  for (;;) {
    const int a = active_.load(std::memory_order_acquire);
    Bank& b = banks_[a];
    std::lock_guard<std::mutex> lk(b.mu);
    if (active_.load(std::memory_order_acquire) != a) {
      continue;  // bank retired while we waited for its lock; go again
    }
    b.total += seg.total;
    b.arrival_watermark_ns = std::max(b.arrival_watermark_ns, seg.arrival_ns);
    for (const auto& [k, acc] : seg.map) b.map[k] += acc;
    return;
  }
}

void WindowAggregator::rotate_to(std::int64_t target_seconds) {
  std::lock_guard<std::mutex> lk(rot_mu_);
  const std::int64_t w = config_.window_seconds;
  const std::int64_t begin = window_begin_.load(std::memory_order_relaxed);
  if (begin == kUnset) return;
  const std::int64_t target_begin = align(target_seconds);
  if (target_begin <= begin) return;  // a racing rotation got here first
  const std::int64_t gap = (target_begin - begin) / w;
  const std::int64_t seq = window_seq_.load(std::memory_order_relaxed);

  // Retire the filling window. The bank swap is the only point ingest can
  // notice: a concurrent merge either finished before the swap (counted
  // here) or lands in the fresh bank (the late policy).
  retire_active_locked(begin, seq);

  // A time gap emits empty windows -- the moving-average layer needs the
  // zeros -- capped so a datagram from the far future cannot queue an
  // unbounded backlog; past the cap the clock skips (seq records it).
  const std::int64_t empties =
      std::min<std::int64_t>(gap - 1, config_.max_gap_windows - 1);
  if (empties > 0) {
    std::lock_guard<std::mutex> dk(done_mu_);
    for (std::int64_t k = 1; k <= empties; ++k) {
      WindowResult r;
      r.begin = net::Timestamp(begin + k * w);
      r.seq = seq + k;
      done_.push_back(std::move(r));
    }
  }
  if (empties > 0) {
    windows_completed_.fetch_add(static_cast<std::uint64_t>(empties),
                                 std::memory_order_relaxed);
  }
  window_seq_.store(seq + gap, std::memory_order_relaxed);
  window_begin_.store(target_begin, std::memory_order_release);
}

void WindowAggregator::retire_active_locked(std::int64_t begin_seconds,
                                            std::int64_t seq) {
  const int a = active_.load(std::memory_order_relaxed);
  active_.store(1 - a, std::memory_order_release);
  Bank& b = banks_[a];
  WindowResult res;
  res.begin = net::Timestamp(begin_seconds);
  res.seq = seq;
  const auto scale_flows = [this](std::uint64_t flows) {
    if (flow_scale_ == 1.0 || flows == 0) return flows;
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(flows) * flow_scale_));
  };
  {
    // Waits only for merges that already held this bank's lock when the
    // swap landed; new merges see the swap and take the other bank.
    std::lock_guard<std::mutex> bk(b.mu);
    res.total = b.total;
    res.total.flows = scale_flows(res.total.flows);
    res.arrival_watermark_ns = b.arrival_watermark_ns;
    res.rows.reserve(b.map.size());
    for (const auto& [k, acc] : b.map) {
      WindowAcc scaled = acc;
      scaled.flows = scale_flows(scaled.flows);
      res.rows.emplace_back(k, scaled);
    }
    b.total = WindowAcc{};
    b.arrival_watermark_ns = 0;
    b.map.clear();  // keeps buckets: the steady state does not rehash
  }
  {
    std::lock_guard<std::mutex> dk(done_mu_);
    done_.push_back(std::move(res));
  }
  windows_completed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace lockdown::stream
