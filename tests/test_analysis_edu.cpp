// Tests for the EDU network analysis (§7, Fig 11-12).
#include <gtest/gtest.h>

#include "analysis/edu.hpp"
#include "analysis/scan.hpp"
#include "synth/as_registry.hpp"

namespace lockdown::analysis {
namespace {

using flow::IpProtocol;
using net::Asn;
using net::Date;
using net::TimeRange;
using net::Timestamp;

class EduTest : public ::testing::Test {
 protected:
  EduTest()
      : reg_(synth::AsRegistry::create_default()), view_(reg_.trie()),
        analyzer_(view_, universities(), AsnSet(synth::AsRegistry::hypergiant_asns())) {}

  static AsnSet universities() {
    AsnSet s;
    for (std::uint32_t i = 0; i < 16; ++i) s.insert(Asn(64800 + i));
    return s;
  }

  /// A request flow towards `dst` (service side = dst port).
  flow::FlowRecord request(Timestamp t, Asn src, Asn dst, IpProtocol proto,
                           std::uint16_t service_port, std::uint64_t bytes = 500) {
    flow::FlowRecord r;
    r.src_addr = net::Ipv4Address(198, 18, 1, 1);
    r.dst_addr = net::Ipv4Address(198, 18, 1, 2);
    r.src_port = proto == IpProtocol::kGre || proto == IpProtocol::kEsp ? 0 : 55000;
    r.dst_port = proto == IpProtocol::kGre || proto == IpProtocol::kEsp
                     ? 0 : service_port;
    r.protocol = proto;
    r.bytes = bytes;
    r.packets = 1;
    r.first = t;
    r.last = t;
    r.src_as = src;
    r.dst_as = dst;
    return r;
  }

  /// The matching response flow (service side = src port).
  flow::FlowRecord response(const flow::FlowRecord& req, std::uint64_t bytes) {
    flow::FlowRecord r = req;
    std::swap(r.src_addr, r.dst_addr);
    std::swap(r.src_port, r.dst_port);
    std::swap(r.src_as, r.dst_as);
    r.bytes = bytes;
    return r;
  }

  void add(const flow::FlowRecord& r) { add_record(analyzer_, r, &reg_.trie()); }

  synth::AsRegistry reg_;
  AsView view_;
  EduAnalyzer analyzer_;
};

TEST_F(EduTest, PortClassificationFollowsAppendixB) {
  const Timestamp t = Timestamp::from_date(Date(2020, 3, 2), 10);
  auto cls = [&](IpProtocol proto, std::uint16_t port) {
    return analyzer_.classify_port(request(t, Asn(64710), Asn(64800), proto, port));
  };
  EXPECT_EQ(cls(IpProtocol::kTcp, 443), EduClass::kWeb);
  EXPECT_EQ(cls(IpProtocol::kTcp, 8080), EduClass::kWeb);
  EXPECT_EQ(cls(IpProtocol::kUdp, 443), EduClass::kQuic);
  EXPECT_EQ(cls(IpProtocol::kTcp, 5223), EduClass::kPushNotifications);
  EXPECT_EQ(cls(IpProtocol::kTcp, 993), EduClass::kEmail);
  EXPECT_EQ(cls(IpProtocol::kUdp, 500), EduClass::kVpn);
  EXPECT_EQ(cls(IpProtocol::kUdp, 1194), EduClass::kVpn);
  EXPECT_EQ(cls(IpProtocol::kTcp, 1194), EduClass::kVpn);
  EXPECT_EQ(cls(IpProtocol::kGre, 0), EduClass::kVpn);
  EXPECT_EQ(cls(IpProtocol::kEsp, 0), EduClass::kVpn);
  EXPECT_EQ(cls(IpProtocol::kTcp, 22), EduClass::kSsh);
  EXPECT_EQ(cls(IpProtocol::kTcp, 3389), EduClass::kRemoteDesktop);
  EXPECT_EQ(cls(IpProtocol::kUdp, 5938), EduClass::kRemoteDesktop);
  EXPECT_EQ(cls(IpProtocol::kTcp, 4070), EduClass::kSpotify);
  EXPECT_EQ(cls(IpProtocol::kTcp, 6881), std::nullopt);  // P2P: unknown
  EXPECT_EQ(cls(IpProtocol::kUdp, 53), std::nullopt);
}

TEST_F(EduTest, SpotifyAlsoByAs) {
  const Timestamp t = Timestamp::from_date(Date(2020, 3, 2), 10);
  // TCP/443 towards AS 8403 counts as Spotify, not Web (Appendix B).
  EXPECT_EQ(analyzer_.classify_port(request(t, Asn(64800), Asn(8403),
                                            IpProtocol::kTcp, 443)),
            EduClass::kSpotify);
}

TEST_F(EduTest, HypergiantWebDistinguished) {
  const Timestamp t = Timestamp::from_date(Date(2020, 3, 2), 10);
  EXPECT_EQ(analyzer_.classify_port(request(t, Asn(64800), Asn(15169),
                                            IpProtocol::kTcp, 443)),
            EduClass::kHypergiantWeb);
  EXPECT_EQ(analyzer_.classify_port(request(t, Asn(64800), Asn(65001),
                                            IpProtocol::kTcp, 443)),
            EduClass::kWeb);
}

TEST_F(EduTest, VolumeDirectionality) {
  const Timestamp t = Timestamp::from_date(Date(2020, 3, 2), 10);
  // Campus download: request out (500 B), response in (100 KB).
  const auto req = request(t, Asn(64800), Asn(15169), IpProtocol::kTcp, 443);
  add(req);
  add(response(req, 100000));

  EXPECT_DOUBLE_EQ(analyzer_.egress_volume().at(t.floor_day()), 500.0);
  EXPECT_DOUBLE_EQ(analyzer_.ingress_volume().at(t.floor_day()), 100000.0);
  EXPECT_NEAR(analyzer_.in_out_ratio(Date(2020, 3, 2)), 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(analyzer_.daily_volume(Date(2020, 3, 2)), 100500.0);
}

TEST_F(EduTest, ConnectionCountingAndDirection) {
  const Timestamp t = Timestamp::from_date(Date(2020, 3, 2), 10);
  // Incoming web connection (external client -> uni server).
  const auto in_req = request(t, Asn(64710), Asn(64800), IpProtocol::kTcp, 443);
  add(in_req);
  add(response(in_req, 9000));  // response flow: not a connection
  // Outgoing SSH connection (uni -> external).
  add(request(t, Asn(64800), Asn(65001), IpProtocol::kTcp, 22));
  // Undetermined: unknown service port.
  add(request(t, Asn(64800), Asn(64650), IpProtocol::kTcp, 6881));

  const auto web_in = analyzer_.daily_connections(EduClass::kWeb, Direction::kIncoming);
  ASSERT_EQ(web_in.size(), 1u);
  EXPECT_DOUBLE_EQ(web_in[0].second, 1.0);
  const auto ssh_out = analyzer_.daily_connections(EduClass::kSsh, Direction::kOutgoing);
  ASSERT_EQ(ssh_out.size(), 1u);
  const auto undet = analyzer_.daily_connections(Direction::kUndetermined);
  ASSERT_EQ(undet.size(), 1u);
  EXPECT_NEAR(analyzer_.undetermined_fraction(), 1.0 / 3.0, 1e-9);
}

TEST_F(EduTest, MedianGrowthRatios) {
  const TimeRange before{Timestamp::from_date(Date(2020, 2, 27)),
                         Timestamp::from_date(Date(2020, 3, 5))};
  const TimeRange after{Timestamp::from_date(Date(2020, 4, 16)),
                        Timestamp::from_date(Date(2020, 4, 23))};
  // 2 VPN-in connections per day before; 9 after (growth 4.5x).
  for (int d = 0; d < 7; ++d) {
    for (int i = 0; i < 2; ++i) {
      add(request(before.begin.plus(d * 86400 + i * 60 + 36000),
                  Asn(64710), Asn(64800), IpProtocol::kUdp, 1194));
    }
    for (int i = 0; i < 9; ++i) {
      add(request(after.begin.plus(d * 86400 + i * 60 + 36000),
                  Asn(64710), Asn(64800), IpProtocol::kUdp, 1194));
    }
  }
  EXPECT_NEAR(analyzer_.median_growth(EduClass::kVpn, Direction::kIncoming,
                                      before, after),
              4.5, 1e-9);
  EXPECT_NEAR(analyzer_.median_growth(Direction::kIncoming, before, after), 4.5, 1e-9);
  EXPECT_NEAR(analyzer_.median_growth_total(before, after), 4.5, 1e-9);
  // A class never seen yields 0.
  EXPECT_DOUBLE_EQ(analyzer_.median_growth(EduClass::kSpotify,
                                           Direction::kIncoming, before, after),
                   0.0);
}

}  // namespace
}  // namespace lockdown::analysis
