// edu_shift: deep dive into the academic metropolitan network (paper
// section 7) -- the antagonistic vantage point where the lockdown *removed*
// the users. Tracks the in/out ratio day by day, the connection growth of
// remote-work classes, and the out-of-hours access pattern of overseas
// students.
//
//   $ ./edu_shift
#include <iostream>

#include "analysis/scan.hpp"
#include "analysis/edu.hpp"
#include "synth/vantage.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace lockdown;

int main() {
  const auto registry = synth::AsRegistry::create_default();
  const auto edu = synth::build_vantage(synth::VantagePointId::kEdu, registry,
                                        {.seed = 42});
  const analysis::AsView view(registry.trie());
  analysis::EduAnalyzer analyzer(
      view, analysis::AsnSet(edu.local_ases),
      analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));

  // Hour-of-day connection histogram for national vs overseas clients.
  std::array<double, 24> national_hours{};
  std::array<double, 24> overseas_hours{};
  const analysis::AsnSet overseas({net::Asn(64730), net::Asn(64720), net::Asn(64721)});
  const analysis::AsnSet unis(edu.local_ases);

  filter::FlowColumns cols;
  std::cout << "Synthesizing the EDU capture window (Feb 28 - May 8, 71 days,\n"
            << "the paper's 72-day capture) through NetFlow v5...\n\n";
  analysis::synthesize_through_wire(
      edu, registry,
      net::TimeRange{net::Timestamp::from_date(net::Date(2020, 2, 28)),
                     net::Timestamp::from_date(net::Date(2020, 5, 9))},
      {.connections_per_hour = 700}, [&](std::span<const flow::FlowRecord> batch) {
        cols.build(batch, &registry.trie());
        analyzer.add_batch(batch, cols);
        for (const flow::FlowRecord& r : batch) {
          // Incoming web requests by client origin (post-lockdown window).
          if (r.first.date() < net::Date(2020, 3, 14)) continue;
          if (r.dst_port >= r.src_port || !unis.contains(r.dst_as)) continue;
          if (r.dst_port != 443 && r.dst_port != 80) continue;
          auto& hours = overseas.contains(r.src_as) ? overseas_hours : national_hours;
          hours[r.first.hour_of_day()] += 1.0;
        }
      });

  // --- In/out ratio timeline (weekly sample) --------------------------------
  std::cout << "Ingress/egress byte ratio (Tuesdays):\n";
  util::Table ratio({"date", "in/out ratio", "phase"});
  for (net::Date d(2020, 3, 3); d < net::Date(2020, 5, 9); d = d.plus_days(7)) {
    const char* phase = d < net::Date(2020, 3, 11)   ? "campus open"
                        : d < net::Date(2020, 3, 20) ? "transition"
                                                     : "online lecturing";
    ratio.add_row({d.to_string(), util::format_fixed(analyzer.in_out_ratio(d), 1),
                   phase});
  }
  std::cout << ratio << "\n";

  // --- Remote-work class growth --------------------------------------------
  const net::TimeRange before{net::Timestamp::from_date(net::Date(2020, 2, 28)),
                              net::Timestamp::from_date(net::Date(2020, 3, 11))};
  const net::TimeRange after{net::Timestamp::from_date(net::Date(2020, 3, 14)),
                             net::Timestamp::from_date(net::Date(2020, 5, 9))};
  std::cout << "Median daily incoming connections, after/before closure:\n";
  util::Table growth({"class", "growth"});
  using analysis::Direction;
  using analysis::EduClass;
  for (const auto cls : {EduClass::kWeb, EduClass::kEmail, EduClass::kVpn,
                         EduClass::kRemoteDesktop, EduClass::kSsh}) {
    growth.add_row({to_string(cls),
                    util::format_fixed(
                        analyzer.median_growth(cls, Direction::kIncoming,
                                               before, after), 1) + "x"});
  }
  std::cout << growth << "\n";

  // --- Overseas access hours -------------------------------------------------
  std::cout << "Incoming web connections by hour (post-closure), share of each\n"
            << "population's daily total:\n";
  double nat_total = 0, ovs_total = 0;
  for (unsigned h = 0; h < 24; ++h) {
    nat_total += national_hours[h];
    ovs_total += overseas_hours[h];
  }
  util::Table hours({"hour", "national", "overseas"});
  for (unsigned h = 0; h < 24; h += 3) {
    double nat = 0, ovs = 0;
    for (unsigned i = h; i < h + 3; ++i) {
      nat += national_hours[i];
      ovs += overseas_hours[i];
    }
    hours.add_row({std::to_string(h) + "-" + std::to_string(h + 2),
                   util::format_fixed(100 * nat / nat_total, 1) + "%",
                   util::format_fixed(100 * ovs / ovs_total, 1) + "%"});
  }
  std::cout << hours << "\n";
  std::cout << "(paper: national users connect 10am-9pm; Latin-American users\n"
            << " peak from midnight until 7 am -- time-zone differences are\n"
            << " clearly visible in the out-of-hours connections)\n";
  return 0;
}
