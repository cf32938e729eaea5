#include "filter/monitor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace lockdown::filter {

namespace {

constexpr std::string_view kFlowsMetric = "monitor_matched_flows_total";
constexpr std::string_view kBytesMetric = "monitor_matched_bytes_total";
constexpr std::string_view kPacketsMetric = "monitor_matched_packets_total";

[[nodiscard]] std::string object_label(std::string_view name) {
  return "object=\"" + std::string(name) + "\"";
}

[[nodiscard]] bool valid_name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

[[nodiscard]] std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

MonitoringObject& MonitorSet::add(std::string_view name,
                                  std::string_view expression) {
  if (name.empty() ||
      !std::all_of(name.begin(), name.end(), valid_name_char)) {
    throw std::invalid_argument(
        "monitoring object name '" + std::string(name) +
        "' is empty or contains characters outside [A-Za-z0-9_.-]");
  }
  if (find(name) != nullptr) {
    // Same contract as AppClassifier's duplicate AppFilter rejection.
    throw std::invalid_argument("monitoring object '" + std::string(name) +
                                "' registered twice");
  }
  CompiledFilter filter = CompiledFilter::compile(expression, trie_);
  plan_.add(filter.ast());
  objects_.push_back(std::unique_ptr<MonitoringObject>(
      new MonitoringObject(std::string(name), std::move(filter))));
  MonitoringObject& obj = *objects_.back();
  if (registry_ != nullptr) {
    obj.flow_counter_ = &registry_->counter(
        kFlowsMetric, object_label(obj.name_),
        "Flows matched per monitoring object (sampler-rescaled)");
    obj.byte_counter_ = &registry_->counter(
        kBytesMetric, object_label(obj.name_),
        "Bytes matched per monitoring object (sampler-rescaled)");
    obj.packet_counter_ = &registry_->counter(
        kPacketsMetric, object_label(obj.name_),
        "Packets matched per monitoring object (sampler-rescaled)");
  }
  return obj;
}

void MonitorSet::add_definitions(std::string_view text,
                                 std::string_view origin) {
  std::uint32_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view raw = text.substr(pos, eol - pos);
    ++line_no;
    const std::string_view line = trim(raw);
    if (!line.empty() && line.front() != '#') {
      const std::size_t eq = raw.find('=');
      if (eq == std::string_view::npos) {
        throw FilterError({line_no, 1},
                          "expected a 'name = expression' definition", origin);
      }
      const std::string_view name = trim(raw.substr(0, eq));
      const std::string_view expr = raw.substr(eq + 1);
      try {
        add(name, expr);
      } catch (const FilterError& e) {
        // Re-anchor the expression-relative position (always line 1: the
        // definition format is one line per object) into the file.
        SourceLoc loc{line_no, static_cast<std::uint32_t>(eq + 1) +
                                   e.loc().column};
        throw FilterError(loc, e.detail(), origin);
      } catch (const std::invalid_argument& e) {
        // Name problems (duplicate registration, invalid characters) throw
        // invalid_argument from add(); anchor them to the name's first
        // character so a --monitor-file load reports file and line too.
        const std::size_t name_start = raw.find_first_not_of(" \t");
        SourceLoc loc{line_no,
                      name_start == std::string_view::npos
                          ? 1
                          : static_cast<std::uint32_t>(name_start + 1)};
        throw FilterError(loc, e.what(), origin);
      }
    }
    pos = eol + 1;
  }
}

void MonitorSet::route_batch(std::span<const flow::FlowRecord> records) {
  if (records.empty() || objects_.empty()) return;
  TRACE_SPAN_ARG("filter", "filter.route_batch", records.size());
  struct Sums {
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
  };
  thread_local FlowColumns cols;
  thread_local std::vector<std::uint64_t> masks;
  thread_local std::vector<std::uint8_t> hits;
  thread_local std::vector<Sums> sums;
  const std::size_t n = records.size();
  const std::size_t words = plan_.mask_words();
  // Service keys and resolved endpoint ASes are filter-independent; derive
  // them once per batch. One plan pass then leaves one object-mask word
  // (per 64 objects) for each record.
  cols.build(records, trie_);
  masks.resize(n * words);
  plan_.evaluate(records, cols, masks);

  sums.assign(objects_.size(), Sums{});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < words; ++j) {
      for (std::uint64_t m = masks[i * words + j]; m != 0; m &= m - 1) {
        Sums& s = sums[j * 64 + static_cast<std::size_t>(std::countr_zero(m))];
        ++s.flows;
        s.bytes += records[i].bytes;
        s.packets += records[i].packets;
      }
    }
  }

  for (std::size_t k = 0; k < objects_.size(); ++k) {
    MonitoringObject& obj = *objects_[k];
    if (obj.batch_hook_) {
      // Even a zero-hit batch goes through: the hook may drive time-based
      // state (window rotation) off record timestamps.
      hits.resize(n);
      const std::uint64_t* m = masks.data() + k / 64;
      const unsigned bit = k % 64;
      for (std::size_t i = 0; i < n; ++i) {
        hits[i] = static_cast<std::uint8_t>((m[i * words] >> bit) & 1);
      }
      obj.batch_hook_(records, std::span<const std::uint8_t>(hits.data(), n),
                      cols);
    }
    std::uint64_t flows = sums[k].flows;
    if (flows == 0) continue;
    if (flow_scale_ != 1.0) {
      flows = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(flows) * flow_scale_));
    }
    obj.flows_.fetch_add(flows, std::memory_order_relaxed);
    obj.bytes_.fetch_add(sums[k].bytes, std::memory_order_relaxed);
    obj.packets_.fetch_add(sums[k].packets, std::memory_order_relaxed);
    if (obj.flow_counter_ != nullptr) {
      obj.flow_counter_->add(flows);
      obj.byte_counter_->add(sums[k].bytes);
      obj.packet_counter_->add(sums[k].packets);
    }
  }
}

void MonitorSet::bind_metrics(obs::Registry& registry) {
  if (registry_ != nullptr) unbind_metrics();
  registry_ = &registry;
  for (const auto& obj : objects_) {
    obj->flow_counter_ = &registry.counter(
        kFlowsMetric, object_label(obj->name_),
        "Flows matched per monitoring object (sampler-rescaled)");
    obj->byte_counter_ = &registry.counter(
        kBytesMetric, object_label(obj->name_),
        "Bytes matched per monitoring object (sampler-rescaled)");
    obj->packet_counter_ = &registry.counter(
        kPacketsMetric, object_label(obj->name_),
        "Packets matched per monitoring object (sampler-rescaled)");
    // Catch up on anything routed before binding so the exposed counter
    // equals the object's lifetime total.
    obj->flow_counter_->add(obj->flows());
    obj->byte_counter_->add(obj->bytes());
    obj->packet_counter_->add(obj->packets());
  }
}

void MonitorSet::unbind_metrics() {
  if (registry_ == nullptr) return;
  for (const auto& obj : objects_) {
    obj->flow_counter_ = nullptr;
    obj->byte_counter_ = nullptr;
    obj->packet_counter_ = nullptr;
    registry_->remove_counter(kFlowsMetric, object_label(obj->name_));
    registry_->remove_counter(kBytesMetric, object_label(obj->name_));
    registry_->remove_counter(kPacketsMetric, object_label(obj->name_));
  }
  registry_ = nullptr;
}

const MonitoringObject* MonitorSet::find(std::string_view name) const {
  for (const auto& obj : objects_) {
    if (obj->name_ == name) return obj.get();
  }
  return nullptr;
}

}  // namespace lockdown::filter
