#include "analysis/app_filter.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "filter/plan.hpp"
#include "obs/trace.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

using flow::IpProtocol;
using flow::PortKey;
using net::Asn;

namespace {

[[nodiscard]] PortKey tcp(std::uint16_t p) { return {IpProtocol::kTcp, p}; }
[[nodiscard]] PortKey udp(std::uint16_t p) { return {IpProtocol::kUdp, p}; }

[[nodiscard]] std::vector<Asn> as_list(std::initializer_list<std::uint32_t> v) {
  std::vector<Asn> out;
  for (const auto a : v) out.emplace_back(a);
  return out;
}

/// -1 for protocols without a port table (GRE/ESP/ICMP).
[[nodiscard]] constexpr int port_table_of(IpProtocol proto) noexcept {
  if (proto == IpProtocol::kTcp) return 0;
  if (proto == IpProtocol::kUdp) return 1;
  return -1;
}

[[nodiscard]] bool port_matches(const AppFilter& f, PortKey port) {
  return std::find(f.ports.begin(), f.ports.end(), port) != f.ports.end();
}

}  // namespace

AppClassifier::AppClassifier(std::vector<AppFilter> filters)
    : filters_(std::move(filters)) {
  if (filters_.size() >= kNoFilter) {
    throw std::invalid_argument("AppClassifier: too many filters");
  }
  std::set<std::string_view> names;
  for (const AppFilter& f : filters_) {
    if (!f.valid()) {
      throw std::invalid_argument("AppFilter '" + f.name + "' constrains nothing");
    }
    if (!names.insert(f.name).second) {
      // A duplicate name silently shadows under first-match priority and
      // makes registry bugs undiagnosable; reject it outright.
      throw std::invalid_argument("AppFilter '" + f.name + "' registered twice");
    }
  }
  compile_tables();
}

void AppClassifier::compile_tables() {
  port_first_[0].assign(65536, kNoFilter);
  port_first_[1].assign(65536, kNoFilter);

  std::map<std::uint32_t, std::uint16_t> asn_min;
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    const auto index = static_cast<std::uint16_t>(i);
    const AppFilter& f = filters_[i];
    const bool has_as = !f.asns.empty();
    const bool has_port = !f.ports.empty();

    if (has_port && !has_as) {
      bool has_other_proto = false;
      for (const PortKey k : f.ports) {
        const int t = port_table_of(k.proto);
        if (t < 0) {
          has_other_proto = true;
          continue;
        }
        std::uint16_t& slot = port_first_[static_cast<std::size_t>(t)][k.port];
        if (slot == kNoFilter) slot = index;  // ascending i => first match
      }
      if (has_other_proto) other_port_filters_.push_back(index);
    } else if (has_as && !has_port) {
      for (const Asn a : f.asns) {
        const auto [it, inserted] = asn_min.try_emplace(a.value(), index);
        (void)it;
        (void)inserted;  // earlier (lower) index wins; try_emplace keeps it
      }
    } else {
      // Combined AS + port criterion: indexed by ASN, port list checked at
      // lookup (combined filters are few and their port lists tiny).
      for (const Asn a : f.asns) combined_.push_back({a.value(), index});
    }
  }

  asn_first_.assign(asn_min.begin(), asn_min.end());
  std::sort(combined_.begin(), combined_.end(),
            [](const CombinedEntry& a, const CombinedEntry& b) {
              return a.asn != b.asn ? a.asn < b.asn : a.index < b.index;
            });
}

std::uint16_t AppClassifier::match_index(Asn src, Asn dst, PortKey port) const {
  std::uint16_t best = kNoFilter;

  // Port-only filters: one table load (TCP/UDP) or a scan of the rare
  // filters naming port-less protocols.
  const int t = port_table_of(port.proto);
  if (t >= 0) {
    best = port_first_[static_cast<std::size_t>(t)][port.port];
  } else {
    for (const std::uint16_t index : other_port_filters_) {
      if (port_matches(filters_[index], port)) {
        best = index;
        break;
      }
    }
  }

  // ASN-only filters: binary search for src and dst.
  const auto asn_lookup = [&](std::uint32_t a) {
    const auto it = std::lower_bound(
        asn_first_.begin(), asn_first_.end(), a,
        [](const auto& e, std::uint32_t v) { return e.first < v; });
    if (it != asn_first_.end() && it->first == a && it->second < best) {
      best = it->second;
    }
  };
  asn_lookup(src.value());
  asn_lookup(dst.value());

  // Combined filters: both criteria must hold.
  const auto combined_lookup = [&](std::uint32_t a) {
    auto it = std::lower_bound(
        combined_.begin(), combined_.end(), a,
        [](const CombinedEntry& e, std::uint32_t v) { return e.asn < v; });
    for (; it != combined_.end() && it->asn == a; ++it) {
      if (it->index < best && port_matches(filters_[it->index], port)) {
        best = it->index;
        break;  // entries per asn are index-sorted; first hit is minimal
      }
    }
  };
  combined_lookup(src.value());
  combined_lookup(dst.value());

  return best;
}

std::optional<AppClass> AppClassifier::classify(const flow::FlowRecord& r,
                                                const AsView& view) const {
  const std::uint16_t index =
      match_index(view.src_as(r), view.dst_as(r), r.service_port());
  if (index == kNoFilter) return std::nullopt;
  return filters_[index].target;
}

void AppClassifier::classify_columns(std::size_t n, const std::uint32_t* service,
                                     const std::uint32_t* src_as,
                                     const std::uint32_t* dst_as,
                                     std::span<std::optional<AppClass>> out,
                                     ClassifyCache& cache) const {
  TRACE_SPAN_ARG("classify", "classify.columns", n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = service[i];
    const std::uint32_t src = src_as[i];
    const std::uint32_t dst = dst_as[i];
    const std::size_t h = (s * 0x9e3779b1u ^ src * 0x85ebca6bu ^
                           dst * 0xc2b2ae35u) &
                          (ClassifyCache::kSlots - 1);
    ClassifyCache::Slot& slot = cache.slots_[h];
    std::uint16_t index;
    if (slot.valid && slot.service == s && slot.src == src && slot.dst == dst) {
      index = slot.index;
    } else {
      const PortKey port{static_cast<IpProtocol>(s >> 16),
                         static_cast<std::uint16_t>(s & 0xffff)};
      index = match_index(Asn(src_as[i]), Asn(dst_as[i]), port);
      slot = ClassifyCache::Slot{s, src, dst, index, true};
    }
    out[i] = index == kNoFilter ? std::nullopt
                                : std::optional(filters_[index].target);
  }
}

AppClassifier AppClassifier::table1() {
  std::vector<AppFilter> f;

  // --- Web conferencing and telephony: 7 filters, 1 ASN, 6 ports. --------
  f.push_back({"webconf-teams-skype-stun", AppClass::kWebConf, as_list({8075}),
               {udp(3480)}});
  f.push_back({"webconf-stun-3480", AppClass::kWebConf, {}, {udp(3480)}});
  f.push_back({"webconf-zoom-connector", AppClass::kWebConf, {}, {udp(8801)}});
  f.push_back({"webconf-zoom-alt", AppClass::kWebConf, {}, {udp(8802)}});
  f.push_back({"webconf-stun-3478", AppClass::kWebConf, {}, {udp(3478)}});
  f.push_back({"webconf-stun-3479", AppClass::kWebConf, {}, {udp(3479)}});
  f.push_back({"webconf-rtp-5004", AppClass::kWebConf, {}, {tcp(5004)}});

  // --- Gaming: 8 filters, 5 ASNs, 57 ports. ------------------------------
  {
    std::vector<PortKey> steam;
    for (std::uint16_t p = 27000; p <= 27031; ++p) steam.push_back(udp(p));
    f.push_back({"gaming-steam-ports", AppClass::kGaming, {}, std::move(steam)});
  }
  {
    std::vector<PortKey> console;
    for (std::uint16_t p = 3074; p <= 3079; ++p) console.push_back(udp(p));
    f.push_back({"gaming-console-ports", AppClass::kGaming, {}, std::move(console)});
  }
  {
    std::vector<PortKey> misc = {tcp(25565), tcp(3724), tcp(1119)};
    for (std::uint16_t p = 6112; p <= 6119; ++p) misc.push_back(tcp(p));
    for (std::uint16_t p = 30000; p <= 30007; ++p) misc.push_back(tcp(p));
    f.push_back({"gaming-misc-ports", AppClass::kGaming, {}, std::move(misc)});
  }
  f.push_back({"gaming-riot", AppClass::kGaming, as_list({6507}), {}});
  f.push_back({"gaming-valve", AppClass::kGaming, as_list({32590}), {}});
  f.push_back({"gaming-blizzard", AppClass::kGaming, as_list({57976}), {}});
  f.push_back({"gaming-nintendo", AppClass::kGaming, as_list({11426}), {}});
  f.push_back({"gaming-sony", AppClass::kGaming, as_list({33353}), {}});

  // --- Messaging: 3 filters, no ASNs, 5 ports. ----------------------------
  f.push_back({"messaging-xmpp", AppClass::kMessaging, {}, {tcp(5222)}});
  f.push_back({"messaging-mobile-a", AppClass::kMessaging, {},
               {tcp(4244), tcp(5242)}});
  f.push_back({"messaging-mobile-b", AppClass::kMessaging, {},
               {udp(5243), udp(9785)}});

  // --- Email: 1 filter, 10 ports. -----------------------------------------
  f.push_back({"email-ports", AppClass::kEmail, {},
               {tcp(25), tcp(110), tcp(143), tcp(465), tcp(587), tcp(993),
                tcp(995), tcp(2525), tcp(4190), tcp(106)}});

  // --- Collaborative working: 8 filters, 2 ASNs, 9 ports. -----------------
  f.push_back({"collab-dropbox", AppClass::kCollabWork, as_list({19679}), {}});
  f.push_back({"collab-suite", AppClass::kCollabWork, as_list({64621}), {}});
  f.push_back({"collab-8443", AppClass::kCollabWork, {}, {tcp(8443)}});
  f.push_back({"collab-5005", AppClass::kCollabWork, {}, {tcp(5005)}});
  f.push_back({"collab-777x", AppClass::kCollabWork, {}, {tcp(7777), tcp(7780)}});
  f.push_back({"collab-844x", AppClass::kCollabWork, {}, {tcp(8444), tcp(8445)}});
  f.push_back({"collab-777x-udp", AppClass::kCollabWork, {},
               {udp(7778), udp(7779)}});
  f.push_back({"collab-9443", AppClass::kCollabWork, {}, {tcp(9443)}});

  // --- Social media: 4 filters, 4 ASNs, 1 port. ---------------------------
  f.push_back({"social-facebook", AppClass::kSocialMedia, as_list({32934}), {}});
  f.push_back({"social-twitter", AppClass::kSocialMedia, as_list({13414}), {}});
  f.push_back({"social-shortvideo", AppClass::kSocialMedia, as_list({138699}), {}});
  f.push_back({"social-eastsocial", AppClass::kSocialMedia, as_list({47541}),
               {tcp(443)}});

  // --- Video on Demand: 5 filters, 5 ASNs, no ports. ----------------------
  for (const std::uint32_t asn : {2906u, 64600u, 64601u, 64602u, 64603u}) {
    f.push_back({"vod-as" + std::to_string(asn), AppClass::kVod, as_list({asn}), {}});
  }

  // --- Educational: 9 filters, 9 ASNs. ------------------------------------
  for (const std::uint32_t asn :
       {680u, 766u, 20965u, 11537u, 1103u, 2200u, 137u, 786u, 1930u}) {
    f.push_back({"edu-as" + std::to_string(asn), AppClass::kEducational,
                 as_list({asn}), {}});
  }

  // --- CDN: 8 filters, 8 ASNs. ---------------------------------------------
  for (const std::uint32_t asn : {20940u, 13335u, 22822u, 15133u, 54113u,
                                  60068u, 12989u, 30081u}) {
    f.push_back({"cdn-as" + std::to_string(asn), AppClass::kCdn, as_list({asn}), {}});
  }

  return AppClassifier(std::move(f));
}

std::vector<AppClassifier::ClassStats> AppClassifier::table_stats() const {
  std::map<AppClass, ClassStats> by_class;
  std::map<AppClass, std::set<std::uint32_t>> asns;
  std::map<AppClass, std::set<PortKey>> ports;

  for (const AppFilter& f : filters_) {
    ClassStats& s = by_class[f.target];
    s.app_class = f.target;
    ++s.filters;
    for (const Asn a : f.asns) asns[f.target].insert(a.value());
    for (const PortKey p : f.ports) ports[f.target].insert(p);
  }

  std::vector<ClassStats> out;
  for (auto& [cls, s] : by_class) {
    s.distinct_asns = asns[cls].size();
    s.distinct_ports = ports[cls].size();
    out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ClassHeatmap
// ---------------------------------------------------------------------------

ClassHeatmap::ClassHeatmap(const AppClassifier& classifier,
                           const AsView& /*view*/,
                           std::vector<net::TimeRange> weeks)
    : classifier_(classifier), weeks_(std::move(weeks)) {
  if (weeks_.size() < 2) {
    throw std::invalid_argument("ClassHeatmap: need a base week plus stages");
  }
  for (const net::TimeRange& w : weeks_) {
    if (w.hours() != 168) {
      throw std::invalid_argument("ClassHeatmap: weeks must be 7 days");
    }
  }
  week_index_ = WeekIndex(weeks_);
  for (unsigned day = 0; day < 7; ++day) {
    // Weeks start on Thursday in the paper's panels; days 2,3 are Sat/Sun.
    base_day_weekend_[day] = net::is_weekend(
        weeks_[0].begin.plus(static_cast<std::int64_t>(day) * net::kSecondsPerDay)
            .date()
            .weekday());
  }
}

void ClassHeatmap::add_batch(std::span<const flow::FlowRecord> batch,
                             const filter::FlowColumns& cols) {
  batch_scratch_.resize(batch.size());
  classifier_.classify_columns(batch.size(), cols.service.data(),
                               cols.src_as.data(), cols.dst_as.data(),
                               batch_scratch_, classify_cache_);
  // Inline deposit with the per-class week vectors resolved once per batch
  // (volume_ is a node-based map, so the pointers are stable).
  std::array<std::vector<std::array<double, 168>>*, synth::kAppClassCount>
      per_cls{};
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch_scratch_[i]) continue;
    const flow::FlowRecord& r = batch[i];
    const std::size_t week = week_of(r.first);
    if (week == weeks_.size()) continue;
    const auto cls_index = static_cast<std::size_t>(*batch_scratch_[i]);
    if (per_cls[cls_index] == nullptr) {
      auto& per_week = volume_[*batch_scratch_[i]];
      if (per_week.empty()) per_week.assign(weeks_.size(), {});
      per_cls[cls_index] = &per_week;
    }
    const auto slot = static_cast<std::size_t>(
        (r.first.seconds() - weeks_[week].begin.seconds()) /
        net::kSecondsPerHour);
    (*per_cls[cls_index])[week][slot] += util::counter_to_double(r.bytes);
  }
}

void ClassHeatmap::merge(const ClassHeatmap& other) {
  for (const auto& [cls, weeks] : other.volume_) {
    auto& mine = volume_[cls];
    if (mine.empty()) mine.assign(weeks_.size(), {});
    for (std::size_t w = 0; w < weeks.size() && w < mine.size(); ++w) {
      for (std::size_t slot = 0; slot < 168; ++slot) {
        mine[w][slot] += weeks[w][slot];
      }
    }
  }
}

std::vector<AppClass> ClassHeatmap::observed_classes() const {
  std::vector<AppClass> out;
  for (const auto& [cls, v] : volume_) out.push_back(cls);
  return out;
}

std::vector<double> ClassHeatmap::base_normalized(AppClass cls) const {
  std::vector<double> out(168, kMaskedHour);
  const auto it = volume_.find(cls);
  if (it == volume_.end()) return out;

  double mn = 0, mx = 0;
  bool first = true;
  for (const auto& week : it->second) {
    for (std::size_t slot = 0; slot < 168; ++slot) {
      if (masked_hour(static_cast<unsigned>(slot % 24))) continue;
      const double v = week[slot];
      if (first || v < mn) mn = v;
      if (first || v > mx) mx = v;
      first = false;
    }
  }
  const double span = mx - mn;
  for (std::size_t slot = 0; slot < 168; ++slot) {
    if (masked_hour(static_cast<unsigned>(slot % 24))) continue;
    out[slot] = span > 0 ? (it->second[0][slot] - mn) / span : 0.0;
  }
  return out;
}

std::vector<double> ClassHeatmap::diff_percent(AppClass cls,
                                               std::size_t week_index) const {
  if (week_index == 0 || week_index >= weeks_.size()) {
    throw std::out_of_range("ClassHeatmap::diff_percent: bad week index");
  }
  std::vector<double> out(168, kMaskedHour);
  const auto it = volume_.find(cls);
  if (it == volume_.end()) return out;

  for (std::size_t slot = 0; slot < 168; ++slot) {
    if (masked_hour(static_cast<unsigned>(slot % 24))) continue;
    const double base = it->second[0][slot];
    const double stage = it->second[week_index][slot];
    if (base <= 0.0) {
      out[slot] = stage > 0.0 ? 200.0 : 0.0;
      continue;
    }
    const double pct = 100.0 * (stage - base) / base;
    out[slot] = std::clamp(pct, -100.0, 200.0);
  }
  return out;
}

double ClassHeatmap::working_hours_growth(AppClass cls,
                                          std::size_t week_index) const {
  const auto diffs = diff_percent(cls, week_index);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t slot = 0; slot < 168; ++slot) {
    const unsigned hour = static_cast<unsigned>(slot % 24);
    const unsigned day = static_cast<unsigned>(slot / 24);
    if (base_day_weekend_[day]) continue;
    if (hour < 9 || hour >= 17) continue;
    if (diffs[slot] == kMaskedHour) continue;
    sum += diffs[slot];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace lockdown::analysis
