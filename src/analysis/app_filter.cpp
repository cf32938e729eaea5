#include "analysis/app_filter.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>

#include "filter/parser.hpp"
#include "filter/plan.hpp"
#include "filter/predicates.hpp"
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

[[nodiscard]] std::string proto_keyword(IpProtocol proto) {
  switch (proto) {
    case IpProtocol::kIcmp: return "icmp";
    case IpProtocol::kTcp: return "tcp";
    case IpProtocol::kUdp: return "udp";
    case IpProtocol::kGre: return "gre";
    case IpProtocol::kEsp: return "esp";
  }
  return std::to_string(static_cast<unsigned>(proto));
}

/// Port criterion of one AppFilter: service-port membership per protocol.
/// `port N` (no direction) matches FlowRecord::service_port().port, so
/// `proto P and port N` is exactly PortKey{P, N} equality -- GRE/ESP/ICMP
/// entries carry service port 0.
[[nodiscard]] std::string ports_expr(const std::vector<PortKey>& ports) {
  std::map<IpProtocol, std::string> by_proto;
  for (const PortKey& k : ports) {
    std::string& list = by_proto[k.proto];
    if (!list.empty()) list += ',';
    list += std::to_string(k.port);
  }
  std::string out;
  for (const auto& [proto, list] : by_proto) {
    if (!out.empty()) out += " or ";
    out += "(proto ";
    out += proto_keyword(proto);
    out += " and port ";
    out += list;
    out += ")";
  }
  return by_proto.size() > 1 ? "(" + out + ")" : out;
}

/// `asn A,B` membership of either endpoint -- AppFilter's AS criterion
/// (src OR dst in the list) is the DSL's undirected asn term.
[[nodiscard]] std::string asns_expr(const std::vector<Asn>& asns) {
  std::string out = "asn ";
  for (std::size_t i = 0; i < asns.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(asns[i].value());
  }
  return out;
}

[[nodiscard]] std::string filter_expr(const AppFilter& f) {
  const bool has_as = !f.asns.empty();
  const bool has_port = !f.ports.empty();
  if (has_as && has_port) {
    return "(" + asns_expr(f.asns) + " and " + ports_expr(f.ports) + ")";
  }
  if (has_as) return "(" + asns_expr(f.asns) + ")";
  return ports_expr(f.ports);
}

/// Per-thread plan output masks for the batch entry.
thread_local std::vector<std::uint64_t> g_masks;

}  // namespace

AppClassifier::AppClassifier(std::vector<AppFilter> filters)
    : filters_(std::move(filters)) {
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
    if (runs_.empty() || runs_.back().app_class != f.target) {
      runs_.push_back({f.target, std::string()});
    }
    std::string& u = runs_.back().expression;
    if (!u.empty()) u += " or ";
    u += filter_expr(f);
  }
  for (const ClassRun& run : runs_) plan_.add(*filter::parse_filter(run.expression));
}

void AppClassifier::classify(std::span<const flow::FlowRecord> records,
                             const filter::FlowColumns& cols,
                             std::span<std::optional<AppClass>> out) const {
  TRACE_SPAN_ARG("classify", "classify.batch", records.size());
  const std::size_t mw = plan_.mask_words();
  std::vector<std::uint64_t>& masks = g_masks;
  masks.resize(records.size() * mw);
  plan_.evaluate(records, cols, masks);
  // Output k is run k, so the lowest set bit is the first matching run,
  // and within a run every filter has the run's class.
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint64_t* m = masks.data() + i * mw;
    std::size_t w = 0;
    while (w < mw && m[w] == 0) ++w;
    out[i] = w == mw ? std::nullopt
                     : std::optional(runs_[w * 64 + static_cast<std::size_t>(
                                                        std::countr_zero(m[w]))]
                                         .app_class);
  }
}

std::optional<AppClass> AppClassifier::classify(const flow::FlowRecord& r,
                                                const AsView& view) const {
  filter::FlowColumns cols;
  cols.service = {filter::detail::service_key(r)};
  cols.src_as = {view.src_as(r).value()};
  cols.dst_as = {view.dst_as(r).value()};
  std::optional<AppClass> out;
  classify({&r, 1}, cols, {&out, 1});
  return out;
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
  classifier_.classify(batch, cols, batch_scratch_);
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
