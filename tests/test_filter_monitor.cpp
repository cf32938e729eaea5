// Monitoring-object layer tests: registration contracts, --monitor-file
// parsing with re-anchored error positions, /metrics bind/unbind, Table 1
// re-expressed as DSL objects pinned byte-for-byte against the
// AppClassifier, sharded-vs-single-threaded routing equality, the mixed
// campus+VPN scenario against hand-computed ground truth, concurrent
// route_batch (the MonitorSetThreads suite is in the TSan CI job), and the
// fused routing plan's differential against the per-object tree-walking
// oracle (oracle::match_reference, tests/oracle/) over a 1M-flow mixed
// stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/app_filter.hpp"
#include "analysis/as_view.hpp"
#include "analysis/table1_dsl.hpp"
#include "filter/monitor.hpp"
#include "flow/ipfix.hpp"
#include "flow/pipeline.hpp"
#include "obs/metrics.hpp"
#include "oracle/classify_oracle.hpp"
#include "oracle/filter_oracle.hpp"
#include "runtime/sharded_daemon.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "util/rng.hpp"
#include "wire_replay.hpp"

namespace lockdown {
namespace {

using flow::FlowRecord;
using flow::IpProtocol;
using net::Timestamp;

std::vector<FlowRecord> synthesize(const synth::TrafficModel& model,
                                   const synth::AsRegistry& registry,
                                   int begin_hour, int end_hour) {
  const synth::FlowSynthesizer synth(model, registry,
                                     {.connections_per_hour = 400});
  std::vector<FlowRecord> records;
  synth.synthesize(
      net::TimeRange{
          Timestamp::from_date(net::Date(2020, 3, 25), begin_hour),
          Timestamp::from_date(net::Date(2020, 3, 25), end_hour)},
      [&](const FlowRecord& r) { records.push_back(r); });
  return records;
}

struct Totals {
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  bool operator==(const Totals&) const = default;
};

[[nodiscard]] Totals object_totals(const filter::MonitoringObject& obj) {
  return {obj.flows(), obj.bytes(), obj.packets()};
}

// --- registration contracts ------------------------------------------------

TEST(MonitorSet, RejectsDuplicateAndInvalidNames) {
  filter::MonitorSet set;
  set.add("web", "proto tcp and port 443");
  try {
    set.add("web", "proto udp");
    FAIL() << "duplicate name accepted";
  } catch (const std::invalid_argument& e) {
    // Same contract (and phrasing) as AppClassifier's duplicate rejection.
    EXPECT_STREQ(e.what(), "monitoring object 'web' registered twice");
  }
  EXPECT_THROW(set.add("", "proto tcp"), std::invalid_argument);
  EXPECT_THROW(set.add("has space", "proto tcp"), std::invalid_argument);
  EXPECT_THROW(set.add("vpn", "src port 80 and src port 443"),
               filter::FilterError);
  // Failed registrations leave the set unchanged.
  EXPECT_EQ(set.size(), 1u);
  EXPECT_NE(set.find("web"), nullptr);
  EXPECT_EQ(set.find("vpn"), nullptr);
}

TEST(MonitorSet, AppClassifierDuplicateParity) {
  // The classifier's registry throws the matching message for its axis.
  EXPECT_THROW(
      analysis::AppClassifier({{"dup", synth::AppClass::kWeb, {}, {}},
                               {"dup", synth::AppClass::kVod, {}, {}}}),
      std::invalid_argument);
}

TEST(MonitorSet, DefinitionFileParsesCommentsAndReanchorsErrors) {
  filter::MonitorSet set;
  set.add_definitions(
      "# monitoring objects\n"
      "\n"
      "vpn = proto udp and dst port 1194,4500,500\n"
      "web = proto tcp and port 443,80   # https + http\n",
      "mon.conf");
  EXPECT_EQ(set.size(), 2u);
  EXPECT_NE(set.find("vpn"), nullptr);
  EXPECT_NE(set.find("web"), nullptr);

  filter::MonitorSet bad;
  try {
    bad.add_definitions("ok = port 443\nbad = port 80-20\n", "mon.conf");
    FAIL() << "expected FilterError";
  } catch (const filter::FilterError& e) {
    // Position re-anchored from expression-relative to file coordinates:
    // line 2, and column 12 is where "80-20" starts on that line.
    EXPECT_EQ(e.loc().line, 2u);
    EXPECT_EQ(e.loc().column, 12u);
    EXPECT_EQ(std::string(e.what()),
              "mon.conf:2:12: empty port range 80-20 (low > high)");
  }

  filter::MonitorSet missing_eq;
  try {
    missing_eq.add_definitions("vpn proto udp\n", "mon.conf");
    FAIL() << "expected FilterError";
  } catch (const filter::FilterError& e) {
    EXPECT_EQ(e.loc().line, 1u);
    EXPECT_EQ(e.detail(), "expected a 'name = expression' definition");
  }
}

TEST(MonitorSet, DefinitionFileAnchorsNameErrorsToFileCoordinates) {
  // Name problems throw std::invalid_argument from add(); a definition-file
  // load must wrap them into a line-anchored FilterError like any parse
  // error, not let the bare invalid_argument escape without coordinates.
  filter::MonitorSet dup;
  try {
    dup.add_definitions(
        "web = port 443\n"
        "# comment between definitions\n"
        "web = port 80\n",
        "mon.conf");
    FAIL() << "expected FilterError";
  } catch (const filter::FilterError& e) {
    EXPECT_EQ(e.loc().line, 3u);
    EXPECT_EQ(e.loc().column, 1u);
    EXPECT_EQ(std::string(e.what()),
              "mon.conf:3:1: monitoring object 'web' registered twice");
  }

  filter::MonitorSet bad_name;
  try {
    bad_name.add_definitions("  bad! = port 443\n", "mon.conf");
    FAIL() << "expected FilterError";
  } catch (const filter::FilterError& e) {
    EXPECT_EQ(e.loc().line, 1u);
    // Anchored to the name's first character, past the indentation.
    EXPECT_EQ(e.loc().column, 3u);
    EXPECT_NE(std::string(e.detail()).find("'bad!'"), std::string::npos);
  }
  // The failed load leaves no partial state behind.
  EXPECT_EQ(bad_name.size(), 0u);
}

TEST(MonitorSet, DefinitionFileHandlesCrlfAndCommentsWithEquals) {
  // CRLF files (Windows editors, curl'd configs) must parse cleanly: the
  // trailing \r may reach neither the object name nor the expression lexer.
  filter::MonitorSet crlf;
  crlf.add_definitions(
      "vpn = proto udp and dst port 1194\r\n"
      "web = proto tcp and port 443\r\n",
      "mon.conf");
  EXPECT_EQ(crlf.size(), 2u);
  EXPECT_NE(crlf.find("vpn"), nullptr);
  EXPECT_NE(crlf.find("web"), nullptr);

  // And errors in a CRLF file still anchor to the right line.
  filter::MonitorSet crlf_dup;
  try {
    crlf_dup.add_definitions("a = port 80\r\na = port 81\r\n", "mon.conf");
    FAIL() << "expected FilterError";
  } catch (const filter::FilterError& e) {
    EXPECT_EQ(e.loc().line, 2u);
    EXPECT_EQ(e.loc().column, 1u);
  }

  // Comment lines containing '=' are comments, not definitions.
  filter::MonitorSet comments;
  comments.add_definitions(
      "# rate = 5 would be a definition without the hash\n"
      "web = port 80\n"
      "   # indented comment with spare = sign\n",
      "mon.conf");
  EXPECT_EQ(comments.size(), 1u);
  EXPECT_NE(comments.find("web"), nullptr);
}

// --- /metrics lifecycle ----------------------------------------------------

TEST(MonitorSet, MetricsBindSeedsAdvancesAndUnbindsCleanly) {
  filter::MonitorSet set;
  set.add("tcp", "proto tcp");
  std::vector<FlowRecord> batch(3);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].src_addr = net::Ipv4Address(static_cast<std::uint32_t>(10 + i));
    batch[i].dst_addr = net::Ipv4Address(static_cast<std::uint32_t>(20 + i));
    batch[i].protocol = i == 2 ? IpProtocol::kUdp : IpProtocol::kTcp;
    batch[i].bytes = 100 * (i + 1);
    batch[i].packets = i + 1;
  }
  set.route_batch(batch);  // routed before binding

  obs::Registry registry;
  set.bind_metrics(registry);
  const std::string label = "object=\"tcp\"";
  // Binding seeds the counters with the lifetime totals.
  EXPECT_EQ(registry.snapshot().counter_value("monitor_matched_flows_total",
                                              label),
            2u);
  EXPECT_EQ(registry.snapshot().counter_value("monitor_matched_bytes_total",
                                              label),
            300u);

  set.route_batch(batch);  // advances both the object and the mirror
  EXPECT_EQ(registry.snapshot().counter_value("monitor_matched_flows_total",
                                              label),
            4u);
  EXPECT_EQ(set.find("tcp")->flows(), 4u);

  // Objects added while bound register their counters immediately.
  set.add("udp", "proto udp");
  EXPECT_NE(registry.expose_text().find("object=\"udp\""), std::string::npos);

  set.unbind_metrics();
  EXPECT_EQ(registry.expose_text().find("monitor_matched_"), std::string::npos);
  // Unbound sets still count.
  set.route_batch(batch);
  EXPECT_EQ(set.find("tcp")->flows(), 6u);
}

// --- Table 1 via the DSL ---------------------------------------------------

TEST(MonitorTable1, DslObjectsReproduceClassifierExactly) {
  const auto registry = synth::AsRegistry::create_default();
  const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry,
                                       {.seed = 42});
  const auto records = synthesize(vp.model, registry, 19, 21);
  ASSERT_GT(records.size(), 1000u);

  // Reference: the interpreted first-match registry scan. The classifier
  // itself runs the same lowering as the objects, so it is no independent
  // reference.
  const analysis::AppClassifier classifier = analysis::AppClassifier::table1();
  const analysis::AsView as_view(registry.trie());
  std::map<synth::AppClass, Totals> expected;
  for (const FlowRecord& r : records) {
    const auto cls = oracle::classify_reference(classifier, r, as_view);
    if (!cls) continue;
    Totals& t = expected[*cls];
    ++t.flows;
    t.bytes += r.bytes;
    t.packets += r.packets;
  }
  ASSERT_GE(expected.size(), 5u) << "slice should populate several classes";

  // One guarded DSL object per class, routed batch-wise like a daemon.
  filter::MonitorSet monitors(&registry.trie());
  const auto defs = analysis::dsl_monitor_definitions(classifier);
  analysis::add_monitor_definitions(monitors, defs);
  ASSERT_EQ(monitors.size(), defs.size());
  constexpr std::size_t kBatch = 1024;
  for (std::size_t i = 0; i < records.size(); i += kBatch) {
    monitors.route_batch(std::span<const FlowRecord>(records).subspan(
        i, std::min(kBatch, records.size() - i)));
  }

  for (const auto& def : defs) {
    const filter::MonitoringObject* obj = monitors.find(def.name);
    ASSERT_NE(obj, nullptr) << def.name;
    const Totals want = expected.count(def.app_class) != 0
                            ? expected[def.app_class]
                            : Totals{};
    EXPECT_EQ(object_totals(*obj), want)
        << def.name << ": " << def.expression;
  }
  // Every classified record landed in exactly one object.
  std::uint64_t dsl_flows = 0;
  for (const auto& obj : monitors) dsl_flows += obj->flows();
  std::uint64_t classified = 0;
  for (const auto& [cls, t] : expected) classified += t.flows;
  EXPECT_EQ(dsl_flows, classified);
}

TEST(MonitorTable1, DefinitionStringsArePinned) {
  // The Table-1 objects are the collector's monitor set (and the
  // classifier's plan outputs): pin every byte. Object k is union k
  // guarded by the unions of all earlier classes.
  const std::pair<const char*, std::string> kUnions[] = {
      {"web_conf",
       "(asn 8075 and (proto udp and port 3480)) or (proto udp and port 3480) "
       "or (proto udp and port 8801) or (proto udp and port 8802) or "
       "(proto udp and port 3478) or (proto udp and port 3479) or "
       "(proto tcp and port 5004)"},
      {"gaming",
       "(proto udp and port 27000,27001,27002,27003,27004,27005,27006,27007,"
       "27008,27009,27010,27011,27012,27013,27014,27015,27016,27017,27018,"
       "27019,27020,27021,27022,27023,27024,27025,27026,27027,27028,27029,"
       "27030,27031) or (proto udp and port 3074,3075,3076,3077,3078,3079) or "
       "(proto tcp and port 25565,3724,1119,6112,6113,6114,6115,6116,6117,"
       "6118,6119,30000,30001,30002,30003,30004,30005,30006,30007) or "
       "(asn 6507) or (asn 32590) or (asn 57976) or (asn 11426) or "
       "(asn 33353)"},
      {"messaging",
       "(proto tcp and port 5222) or (proto tcp and port 4244,5242) or "
       "(proto udp and port 5243,9785)"},
      {"email", "(proto tcp and port 25,110,143,465,587,993,995,2525,4190,106)"},
      {"coll_working",
       "(asn 19679) or (asn 64621) or (proto tcp and port 8443) or "
       "(proto tcp and port 5005) or (proto tcp and port 7777,7780) or "
       "(proto tcp and port 8444,8445) or (proto udp and port 7778,7779) or "
       "(proto tcp and port 9443)"},
      {"social_media",
       "(asn 32934) or (asn 13414) or (asn 138699) or "
       "(asn 47541 and (proto tcp and port 443))"},
      {"vod",
       "(asn 2906) or (asn 64600) or (asn 64601) or (asn 64602) or (asn 64603)"},
      {"educational",
       "(asn 680) or (asn 766) or (asn 20965) or (asn 11537) or (asn 1103) or "
       "(asn 2200) or (asn 137) or (asn 786) or (asn 1930)"},
      {"cdn",
       "(asn 20940) or (asn 13335) or (asn 22822) or (asn 15133) or "
       "(asn 54113) or (asn 60068) or (asn 12989) or (asn 30081)"},
  };
  const auto defs =
      analysis::dsl_monitor_definitions(analysis::AppClassifier::table1());
  ASSERT_EQ(defs.size(), std::size(kUnions));
  std::string guard;
  for (std::size_t k = 0; k < defs.size(); ++k) {
    const auto& [name, expr] = kUnions[k];
    EXPECT_EQ(defs[k].name, name);
    EXPECT_EQ(defs[k].expression,
              guard.empty() ? expr : "(" + expr + ") and not (" + guard + ")")
        << name;
    guard += (guard.empty() ? "" : " or ") + expr;
  }
}

// --- mixed campus + VPN scenario against ground truth ----------------------

TEST(MonitorMixedScenario, ObjectCountersMatchGroundTruth) {
  const auto registry = synth::AsRegistry::create_default();
  const auto model = synth::build_mixed_scenario(registry, {.seed = 11});
  const auto records = synthesize(model, registry, 9, 12);  // workday morning
  ASSERT_GT(records.size(), 500u);

  filter::MonitorSet monitors(&registry.trie());
  monitors.add("campus_web", "proto tcp and port 443,80");
  monitors.add("campus_quic", "proto udp and port 443");
  monitors.add("vpn", "proto udp and port 1194,4500,500");
  monitors.add("remote_desktop", "port 3389,5938");
  monitors.route_batch(records);

  // Ground truth computed directly from record fields, independent of the
  // filter machinery. Service ports are unambiguous here: the synthesizer
  // draws ephemeral ports from 32768+, above every scenario service port.
  const auto service = [](const FlowRecord& r) { return r.service_port(); };
  std::map<std::string, Totals> truth;
  for (const FlowRecord& r : records) {
    const auto sp = service(r);
    const char* object = nullptr;
    if (sp.proto == IpProtocol::kTcp && (sp.port == 443 || sp.port == 80)) {
      object = "campus_web";
    } else if (sp.proto == IpProtocol::kUdp && sp.port == 443) {
      object = "campus_quic";
    } else if (sp.proto == IpProtocol::kUdp &&
               (sp.port == 1194 || sp.port == 4500 || sp.port == 500)) {
      object = "vpn";
    } else if (sp.port == 3389 || sp.port == 5938) {
      object = "remote_desktop";
    }
    ASSERT_NE(object, nullptr) << "unexpected service port " << sp.port;
    Totals& t = truth[object];
    ++t.flows;
    t.bytes += r.bytes;
    t.packets += r.packets;
  }
  ASSERT_EQ(truth.size(), 4u) << "all four components should emit flows";
  std::uint64_t total = 0;
  for (const auto& obj : monitors) {
    EXPECT_EQ(object_totals(*obj), truth[obj->name()]) << obj->name();
    total += obj->flows();
  }
  // The four signatures partition the scenario: nothing is unaccounted.
  EXPECT_EQ(total, records.size());
}

// --- routing through the daemons ------------------------------------------

/// Encode `records` as IPFIX from `sources` observation domains and
/// interleave the datagrams round-robin (multi-exporter collector port).
std::vector<std::vector<std::uint8_t>> multi_source_corpus(
    std::span<const FlowRecord> records, std::size_t sources) {
  std::vector<std::vector<std::vector<std::uint8_t>>> per_source(sources);
  const std::size_t chunk = (records.size() + sources - 1) / sources;
  for (std::size_t s = 0; s < sources; ++s) {
    const std::size_t begin = s * chunk;
    const std::size_t end = std::min(records.size(), begin + chunk);
    if (begin >= end) continue;
    flow::IpfixEncoder encoder(/*observation_domain=*/700 + s);
    auto slice = records.subspan(begin, end - begin);
    per_source[s] = encoder.encode(slice, flow::batch_export_time(slice));
  }
  std::vector<std::vector<std::uint8_t>> interleaved;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& source : per_source) {
      if (i < source.size()) {
        interleaved.push_back(std::move(source[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  return interleaved;
}

void add_scenario_monitors(filter::MonitorSet& set) {
  set.add("vpn", "proto udp and port 1194,4500,500");
  set.add("web", "proto tcp and port 443,80");
  set.add("heavy", "bytes > 1m");
}

TEST(MonitorRouting, ShardedDaemonEqualsSingleThreaded) {
  const auto registry = synth::AsRegistry::create_default();
  const auto model = synth::build_mixed_scenario(registry, {.seed = 3});
  const auto records = synthesize(model, registry, 9, 11);
  const auto corpus = multi_source_corpus(records, 4);
  ASSERT_GT(corpus.size(), 4u);

  filter::MonitorSet single_set(&registry.trie());
  add_scenario_monitors(single_set);
  (void)test::replay_in_wire_order(flow::ExportProtocol::kIpfix, 900, corpus,
                                   single_set.batch_sink());

  filter::MonitorSet sharded_set(&registry.trie());
  add_scenario_monitors(sharded_set);
  runtime::ShardedCollectorDaemon sharded(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 4,
       .rotation_seconds = 900,
       .batch_observer = sharded_set.batch_sink()},
      [](flow::TraceSlice&&) {});
  for (const auto& datagram : corpus) sharded.ingest(datagram);
  sharded.flush();

  for (const auto& obj : single_set) {
    EXPECT_GT(obj->flows(), 0u) << obj->name();
    const filter::MonitoringObject* other = sharded_set.find(obj->name());
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(object_totals(*obj), object_totals(*other)) << obj->name();
  }
}

// --- concurrency (gated by the ThreadSanitizer CI job) ---------------------

TEST(MonitorSetThreads, ConcurrentRouteBatchSumsExactly) {
  std::vector<FlowRecord> records;
  records.reserve(40'000);
  for (std::uint32_t i = 0; i < 40'000; ++i) {
    FlowRecord r;
    r.src_addr = net::Ipv4Address(0x0a000000 + i);
    r.dst_addr = net::Ipv4Address(0xc6336400 + (i % 256));
    r.protocol = (i % 3) == 0 ? IpProtocol::kUdp : IpProtocol::kTcp;
    r.src_port = static_cast<std::uint16_t>(32768 + (i % 1000));
    r.dst_port = (i % 5) == 0 ? 1194 : 443;
    r.bytes = 100 + i % 7919;
    r.packets = 1 + i % 97;
    records.push_back(r);
  }

  filter::MonitorSet reference;
  add_scenario_monitors(reference);
  reference.route_batch(records);

  filter::MonitorSet concurrent;
  add_scenario_monitors(concurrent);
  obs::Registry registry;
  concurrent.bind_metrics(registry);  // counter mirrors updated under load
  constexpr std::size_t kThreads = 4;
  const std::size_t chunk = records.size() / kThreads;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::span<const FlowRecord> mine(records.data() + t * chunk,
                                             chunk);
      // Several small batches per thread to interleave heavily.
      for (std::size_t i = 0; i < mine.size(); i += 512) {
        concurrent.route_batch(
            mine.subspan(i, std::min<std::size_t>(512, mine.size() - i)));
      }
    });
  }
  for (auto& w : workers) w.join();

  for (const auto& obj : reference) {
    const filter::MonitoringObject* other = concurrent.find(obj->name());
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(object_totals(*obj), object_totals(*other)) << obj->name();
    EXPECT_EQ(registry.snapshot().counter_value(
                  "monitor_matched_flows_total",
                  "object=\"" + obj->name() + "\""),
              obj->flows())
        << obj->name();
  }
  concurrent.unbind_metrics();
}

// --- fused plan: differential against the per-object oracle ---------------

/// AS numbers for the many-AS-lists set, drawn by the mixed stream too.
constexpr std::uint32_t kListAsBase = 65100;
constexpr std::uint32_t kListAsCount = 160;

/// 1M flows mixing Table-1 traffic (its service ports and AS numbers), the
/// random sets' criteria (nets, ASes, flags, byte/packet/duration spreads
/// around the rate thresholds) and uniform noise. Every fourth endpoint AS
/// annotation is 0, so asn terms also resolve through the registry trie.
const std::vector<FlowRecord>& mixed_stream() {
  static const std::vector<FlowRecord> stream = [] {
    const analysis::AppClassifier table1 = analysis::AppClassifier::table1();
    std::vector<flow::PortKey> ports;
    std::vector<std::uint32_t> asns{3320, 15169, 64700, 64701};
    for (const analysis::AppFilter& f : table1.filters()) {
      ports.insert(ports.end(), f.ports.begin(), f.ports.end());
      for (const net::Asn a : f.asns) asns.push_back(a.value());
    }
    const auto registry = synth::AsRegistry::create_default();
    std::vector<std::uint32_t> trie_v4;  // addresses the trie resolves
    for (const std::uint32_t as : {15169u, 32934u, 2906u, 20940u, 8075u, 6507u}) {
      if (const synth::AsInfo* info = registry.find(net::Asn(as))) {
        for (const auto& p : info->prefixes) trie_v4.push_back(p.network().value());
      }
    }
    util::Rng rng(2020);
    std::vector<FlowRecord> out;
    out.reserve(1'000'000);
    for (std::size_t n = 0; n < 1'000'000; ++n) {
      FlowRecord r;
      const std::uint64_t kind = rng.uniform_u64(4);
      if (kind < 2) {  // a Table-1 service
        const flow::PortKey k = ports[rng.uniform_u64(ports.size())];
        r.protocol = k.proto;
        r.dst_port = k.port;
        r.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
        if (rng.bernoulli(0.5)) std::swap(r.src_port, r.dst_port);
      } else {
        static constexpr IpProtocol kProtos[] = {
            IpProtocol::kTcp, IpProtocol::kUdp, IpProtocol::kIcmp,
            IpProtocol::kGre, IpProtocol::kEsp};
        static constexpr std::uint16_t kPorts[] = {80, 443, 8443, 53, 1194,
                                                   4500, 1024, 27015};
        r.protocol = kProtos[rng.uniform_u64(std::size(kProtos))];
        if (r.protocol == IpProtocol::kTcp || r.protocol == IpProtocol::kUdp) {
          r.src_port = rng.bernoulli(0.5)
                           ? kPorts[rng.uniform_u64(std::size(kPorts))]
                           : static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
          r.dst_port = kPorts[rng.uniform_u64(std::size(kPorts))];
        }
      }
      const auto addr = [&]() -> net::IpAddress {
        if (rng.bernoulli(0.1)) {
          return net::Ipv6Address::from_halves(
              rng.bernoulli(0.5) ? 0x20010db800000000ULL
                                 : rng.uniform_u64(~std::uint64_t{0}),
              rng.uniform_u64(~std::uint64_t{0}));
        }
        static constexpr std::uint32_t kBases[] = {0x0a000000, 0xc6336400,
                                                   0xcb007100};
        const std::uint64_t pick = rng.uniform_u64(4);
        const std::uint32_t base =
            pick < 3 ? kBases[pick]
                     : trie_v4[rng.uniform_u64(trie_v4.size())];
        return net::Ipv4Address(base + static_cast<std::uint32_t>(rng.uniform_u64(256)));
      };
      r.src_addr = addr();
      r.dst_addr = addr();
      const auto as = [&]() -> net::Asn {
        const std::uint64_t pick = rng.uniform_u64(4);
        if (pick == 0) return net::Asn(0);  // trie fallback
        if (pick == 1) {
          return net::Asn(kListAsBase +
                          static_cast<std::uint32_t>(rng.uniform_u64(kListAsCount)));
        }
        return net::Asn(asns[rng.uniform_u64(asns.size())]);
      };
      r.src_as = as();
      r.dst_as = as();
      if (r.protocol == IpProtocol::kTcp) {
        r.tcp_flags = static_cast<std::uint8_t>(rng.uniform_u64(256));
      }
      r.bytes = static_cast<std::uint64_t>(rng.uniform(1.0, 4e6));
      r.packets = static_cast<std::uint64_t>(rng.uniform(1.0, 2e4));
      r.first = Timestamp::from_date(net::Date(2020, 3, 25), 10)
                    .plus(rng.uniform_int(0, 600));
      r.last = r.first.plus(rng.uniform_int(0, 120));
      out.push_back(r);
    }
    return out;
  }();
  return stream;
}

/// Route the mixed stream through `set` in batches of varied size (single
/// records, datagram-sized, and across the 512-record chunk edge). Every
/// object's hook must see a 0/1 span equal to its oracle verdicts on
/// every batch, and every object's totals must equal the reference's.
void expect_matches_reference(filter::MonitorSet& set) {
  const std::vector<FlowRecord>& records = mixed_stream();
  const std::size_t k_objects = set.size();
  std::vector<Totals> want(k_objects);
  std::vector<std::uint64_t> wrong_hits(k_objects, 0);
  std::vector<std::uint64_t> calls(k_objects, 0);
  std::size_t k = 0;
  for (const auto& obj : set) {
    const filter::CompiledFilter* f = &obj->filter();
    obj->set_batch_hook([&, k, f](std::span<const FlowRecord> batch,
                                  std::span<const std::uint8_t> hits,
                                  const filter::FlowColumns&) {
      ++calls[k];
      if (hits.size() != batch.size()) {
        ++wrong_hits[k];
        return;
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const bool ref = oracle::match_reference(*f, batch[i]);
        if (hits[i] != (ref ? 1 : 0)) ++wrong_hits[k];
        if (!ref) continue;
        ++want[k].flows;
        want[k].bytes += batch[i].bytes;
        want[k].packets += batch[i].packets;
      }
    });
    ++k;
  }
  static constexpr std::size_t kSizes[] = {1, 21, 4, 512, 3, 513, 64, 1000, 2, 511};
  std::size_t batches = 0;
  for (std::size_t base = 0, s = 0; base < records.size(); ++s, ++batches) {
    const std::size_t n = std::min(kSizes[s % std::size(kSizes)],
                                   records.size() - base);
    set.route_batch(std::span<const FlowRecord>(records).subspan(base, n));
    base += n;
  }
  // Most objects must both match and miss, or the comparison is vacuous.
  std::size_t mixed = 0;
  for (const Totals& t : want) mixed += t.flows > 0 && t.flows < records.size();
  EXPECT_GE(2 * mixed, k_objects);
  k = 0;
  for (const auto& obj : set) {
    obj->set_batch_hook({});
    EXPECT_EQ(calls[k], batches) << obj->name();
    EXPECT_EQ(wrong_hits[k], 0u) << obj->name() << ": " << obj->filter().source();
    EXPECT_EQ(object_totals(*obj), want[k])
        << obj->name() << ": " << obj->filter().source();
    ++k;
  }
}

/// Random filter expressions over a shared atom pool, so objects overlap
/// and repeat subtrees (in any operand order) under and/or/not.
class RandomFilters {
 public:
  explicit RandomFilters(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 6; ++i) shared_.push_back(expr(2));
  }

  [[nodiscard]] std::string expr(int depth) {
    if (depth == 0 || rng_.bernoulli(0.25)) {
      if (!shared_.empty() && rng_.bernoulli(0.3)) {
        return "(" + shared_[rng_.uniform_u64(shared_.size())] + ")";
      }
      return kAtoms[rng_.uniform_u64(std::size(kAtoms))];
    }
    const std::uint64_t op = rng_.uniform_u64(5);
    if (op == 0) return "not (" + expr(depth - 1) + ")";
    const char* join = op < 3 ? " and " : " or ";
    return "(" + expr(depth - 1) + join + expr(depth - 1) + ")";
  }

 private:
  static constexpr const char* kAtoms[] = {
      "proto tcp",
      "proto udp,icmp",
      "port 443",
      "dst port 443,8443",
      "src port 1024-65535",
      "proto udp and port 443",
      "proto tcp and port 80,443",
      "port 443 and proto tcp",
      "src net 10.0.0.0/8",
      "net 198.51.100.0/24,203.0.113.0/24",
      "dst net 2001:db8::/32",
      "asn 64700",
      "asn 15169,3320",
      "src asn 64700,3320",
      "dst asn 32934",
      "tcp-flags syn,ack",
      "tcp-flags any rst,fin",
      "bytes > 1m",
      "pps <= 100",
      "bps > 1m",
      "packets >= 10k",
  };

  util::Rng rng_;
  std::vector<std::string> shared_;
};

/// Add up to `count` random objects (always-false draws, which compile()
/// rejects, are redrawn). First-match guards over earlier objects are
/// mixed in, as in the Table-1 set.
void add_random_objects(filter::MonitorSet& set, std::size_t count,
                        std::uint64_t seed) {
  RandomFilters gen(seed);
  std::vector<std::string> earlier;
  while (set.size() < count) {
    std::string e = gen.expr(3);
    if (earlier.size() >= 2 && set.size() % 4 == 3) {
      std::string guard;
      for (std::size_t i = earlier.size() - 3; i < earlier.size(); ++i) {
        if (!guard.empty()) guard += " or ";
        guard += earlier[i];
      }
      e = "(" + e + ") and not (" + guard + ")";
    }
    try {
      set.add("obj" + std::to_string(set.size()), e);
      earlier.push_back(e);
    } catch (const filter::FilterError&) {
    }
  }
}

TEST(MonitorFused, Table1ObjectsMatchReference) {
  const auto registry = synth::AsRegistry::create_default();
  filter::MonitorSet set(&registry.trie());
  analysis::add_monitor_definitions(
      set, analysis::dsl_monitor_definitions(analysis::AppClassifier::table1()));
  ASSERT_EQ(set.size(), 9u);
  expect_matches_reference(set);
}

TEST(MonitorFused, RandomOverlappingSetsMatchReference) {
  const auto registry = synth::AsRegistry::create_default();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    filter::MonitorSet set(&registry.trie());
    add_random_objects(set, 12, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(set);
  }
}

TEST(MonitorFused, EmptyAndSingleObjectSets) {
  const auto registry = synth::AsRegistry::create_default();
  filter::MonitorSet empty(&registry.trie());
  EXPECT_EQ(empty.plan().outputs(), 0u);
  empty.route_batch(std::span<const FlowRecord>(mixed_stream()).first(1000));

  filter::MonitorSet one(&registry.trie());
  one.add("only", "proto tcp and port 443 or asn 15169 and not bytes > 1m");
  EXPECT_EQ(one.plan().mask_words(), 1u);
  expect_matches_reference(one);
}

TEST(MonitorFused, SeventyObjectsSpillToASecondMaskWord) {
  const auto registry = synth::AsRegistry::create_default();
  filter::MonitorSet set(&registry.trie());
  add_random_objects(set, 70, 7);
  ASSERT_EQ(set.size(), 70u);
  EXPECT_EQ(set.plan().mask_words(), 2u);
  expect_matches_reference(set);
}

TEST(MonitorFused, MoreThan64AsListsSpillTheAsnIndex) {
  const auto registry = synth::AsRegistry::create_default();
  filter::MonitorSet set(&registry.trie());
  // 80 objects over 80 distinct overlapping AS lists, in all three
  // directions, some guarded by a neighbour's list.
  for (std::uint32_t k = 0; k < 80; ++k) {
    const std::uint32_t a = kListAsBase + (k * 2) % kListAsCount;
    const std::string list = std::to_string(a) + "," + std::to_string(a + 1) +
                             "," + std::to_string(a + 3);
    const char* dir = k % 3 == 0 ? "src " : k % 3 == 1 ? "dst " : "";
    std::string e = std::string(dir) + "asn " + list;
    if (k % 5 == 4) e += " and not asn " + std::to_string(a + 2) + ",15169";
    set.add("as" + std::to_string(k), e);
  }
  EXPECT_GT(set.plan().asn_set_count(), 64u);
  EXPECT_EQ(set.plan().mask_words(), 2u);
  expect_matches_reference(set);
}

TEST(MonitorFused, SharedSubtreesAndGuardsAreOneNode) {
  filter::MonitorSet set;
  set.add("a", "proto tcp and port 443 or asn 15169");
  const std::size_t nodes = set.plan().node_count();
  // Same expression up to operand order, list order and negation: no node.
  set.add("b", "asn 15169 or (port 443 and proto tcp)");
  set.add("c", "not (proto tcp and port 443 or asn 15169)");
  EXPECT_EQ(set.plan().node_count(), nodes);

  // Table 1: a further guard over every class is one `or` node over the
  // last guard and the last class union.
  const auto registry = synth::AsRegistry::create_default();
  filter::MonitorSet table1(&registry.trie());
  const auto defs =
      analysis::dsl_monitor_definitions(analysis::AppClassifier::table1());
  analysis::add_monitor_definitions(table1, defs);
  const std::size_t before = table1.plan().node_count();
  std::string all;
  for (const auto& def : defs) {
    const std::string u =
        def.expression.substr(0, def.expression.find(") and not (") + 1);
    if (!all.empty()) all += " or ";
    all += u;
  }
  table1.add("unclassified", "not (" + all + ")");
  EXPECT_EQ(table1.plan().node_count(), before + 1);
}

TEST(MonitorSet, FlowScaleRescalesFlowCountsOnly) {
  filter::MonitorSet set;
  set.add("all", "proto tcp");
  set.set_flow_scale(100.0);
  std::vector<FlowRecord> batch(4);
  for (auto& r : batch) {
    r.src_addr = net::Ipv4Address(1);
    r.dst_addr = net::Ipv4Address(2);
    r.protocol = IpProtocol::kTcp;
    r.bytes = 10;
    r.packets = 2;
  }
  set.route_batch(batch);
  const filter::MonitoringObject* obj = set.find("all");
  EXPECT_EQ(obj->flows(), 400u);   // 1-in-100 flow sampling undercount undone
  EXPECT_EQ(obj->bytes(), 40u);    // byte/packet rescale is the sampler's job
  EXPECT_EQ(obj->packets(), 8u);
}

}  // namespace
}  // namespace lockdown
