// The benchmark's workloads. Each builds its inputs from the seed, runs the
// system for the configured seconds, checks the outputs, and returns every
// end-to-end metric (and, in traced runs, every per-layer metric).
// README.md gives the reason each exists.
#pragma once

#include "probe.hpp"

namespace perfbench {

/// IXP-CE IPFIX over loopback UDP: 1 wire lane -> 1 shard -> Table-1
/// monitors -> StreamMonitor -> 300 s slices. Closed loop + open loop.
[[nodiscard]] Outcome run_ixp_ipfix_live(const RunConfig& cfg);

/// ISP-CE NetFlow v9 from ~1,024 source ids, small datagrams with
/// templates and sampling options: 1 wire lane -> 2 shards. Open loop.
[[nodiscard]] Outcome run_isp_v9_many_exporters(const RunConfig& cfg);

/// Three analysis weeks of spooled IXP-CE slices read back and scanned by a
/// 2-lane ScanEngine, then rendered. No network.
[[nodiscard]] Outcome run_report_from_slices(const RunConfig& cfg);

}  // namespace perfbench
