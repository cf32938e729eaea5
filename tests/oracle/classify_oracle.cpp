#include "oracle/classify_oracle.hpp"

#include <algorithm>

namespace lockdown::oracle {

std::optional<analysis::AppClass> classify_reference(
    const analysis::AppClassifier& classifier, const flow::FlowRecord& r,
    const analysis::AsView& view) {
  const net::Asn src = view.src_as(r);
  const net::Asn dst = view.dst_as(r);
  const flow::PortKey port = r.service_port();

  for (const analysis::AppFilter& f : classifier.filters()) {
    if (!f.asns.empty()) {
      const bool as_match =
          std::find(f.asns.begin(), f.asns.end(), src) != f.asns.end() ||
          std::find(f.asns.begin(), f.asns.end(), dst) != f.asns.end();
      if (!as_match) continue;
    }
    if (!f.ports.empty() &&
        std::find(f.ports.begin(), f.ports.end(), port) == f.ports.end()) {
      continue;
    }
    return f.target;
  }
  return std::nullopt;
}

}  // namespace lockdown::oracle
