#!/usr/bin/env python3
"""Compare BENCH_*.json bench output against committed baselines.

The perf-smoke CI job runs the compiled-hot-path benches and writes one
BENCH_<binary>.json per binary (see bench/bench_common.hpp). This script
compares those runs against the JSON committed under bench/baselines/.

Absolute ns/op is useless across machines, so the comparison is built on
WITHIN-FILE SPEEDUP RATIOS: each tracked pair divides a reference series
(the interpreted/per-field path) by its compiled counterpart from the same
binary's run. Machine speed cancels out of the ratio; what remains is how
much faster the compiled path is than the code it replaced -- exactly the
quantity a perf regression erodes.

Each BENCH json carries a `host` stamp (nproc, cpu_model, kernel,
compiler, build_type, git_sha). The script prints the current and baseline
host of every file and warns when they differ or a baseline has no stamp:
ratios cancel machine speed only to first order, so a cross-host
comparison is weaker evidence than a same-host one.

A pair FAILS when its current speedup falls below baseline/ (1 + slack),
i.e. more than --slack (default 25%) of the baselined advantage is gone.
Pairs may also carry an absolute floor (the DESIGN.md acceptance bars);
falling below the floor fails regardless of the baseline.

Usage:
  scripts/bench_compare.py --current bench-json [--baseline bench/baselines]
                           [--slack 0.25]

Exit status: 0 all pairs pass, 1 any regression, 2 usage/missing files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# (file, reference series, compiled series, absolute floor, label)
# Floors are the acceptance bars: decode plans >= 3x, encode plans >= 4x,
# filter plans >= 5x. CI noise on shared runners can graze an exact bar, so
# every enforced floor keeps a small margin under the documented target;
# the documented bar itself is verified by the baselining run (the
# committed baseline ratio must meet it) rather than re-proved on every
# noisy CI box.
PAIRS = [
    ("BENCH_bench_filter_match.json", "BM_MatchReference",
     "BM_MatchPlan", 4.5, "filter plan (Table-1 DSL objects)"),
    # Fused monitoring-object routing (DESIGN.md section 12): Table-1
    # objects routed per 21-record datagram, the per-object match_batch
    # loop of the unfused router vs MonitorSet::route_batch's one pass.
    ("BENCH_bench_filter_match.json", "BM_RoutePerObjectDatagrams",
     "BM_RouteFusedDatagrams", 3.0, "routing (per-object vs fused)"),
    ("BENCH_bench_flow_decode_plan.json", "BM_DecodeInterpreted",
     "BM_DecodePlan", 2.5, "decode plan (IPFIX v4)"),
    ("BENCH_bench_flow_encode_plan.json", "BM_EncodeReferenceV5",
     "BM_EncodeBatchV5", 3.5, "encode plan (NetFlow v5)"),
    ("BENCH_bench_flow_encode_plan.json", "BM_EncodeReferenceV9",
     "BM_EncodeBatchV9", 3.5, "encode plan (NetFlow v9)"),
    ("BENCH_bench_flow_encode_plan.json", "BM_EncodeReferenceIpfix",
     "BM_EncodeBatchIpfix", 3.5, "encode plan (IPFIX mixed)"),
    # Trace record codec (DESIGN.md section 9): spooling a 4096-record
    # IXP-CE slice through a fresh WireWriter per record vs the fixed-offset
    # stores of flow::TraceWriter (~11x in the baselining run; the traced
    # wire-lane spool fell from 337 to 29 ns/record). The floor guards that
    # the writer never falls back to per-record allocation.
    ("BENCH_bench_flow_trace.json", "BM_TraceWriteReference",
     "BM_TraceWriteFixed", 4.0, "trace write"),
    # Tracer overhead gate: a disabled TRACE_SPAN must stay dramatically
    # cheaper than an enabled one (~32x on the baseline machine; enabled is
    # dominated by two steady_clock reads). If this ratio collapses, the
    # disabled path grew real work and the always-on instrumentation in the
    # per-datagram hot loops is no longer free.
    ("BENCH_bench_obs_trace.json", "BM_SpanEnabled",
     "BM_SpanDisabled", 2.5, "trace span (disabled vs enabled)"),
    # Async network plane gates (DESIGN.md section 14). The acceptance bar
    # is >= 2x ingest throughput for the 4-lane SO_REUSEPORT event plane
    # over the seed's blocking drain (one recvmsg + one 64 KiB allocation
    # per datagram) at equal (zero) kernel-drop rate; the bench skips with
    # an error instead of reporting a ratio whenever a burst drops. The
    # single-socket recvmmsg pair gates the syscall-batching win on its
    # own, with no dependence on thread scheduling, so it stays meaningful
    # on single-core runners.
    ("BENCH_bench_net_eventloop.json", "BM_BlockingDrainReference/real_time",
     "BM_BatchDrainReuseport4/real_time", 2.0,
     "wire ingest (blocking vs 4-lane plane)"),
    ("BENCH_bench_net_eventloop.json", "BM_BlockingDrainReference/real_time",
     "BM_BatchDrainSingleSocket/real_time", 2.0,
     "wire ingest (blocking vs recvmmsg)"),
    # Sampling-profiler overhead gate (DESIGN.md section 16): ingest
    # throughput with the 97 Hz SIGPROF sampler armed must stay >= 0.97x of
    # profiler-off. The ratio is off/on ns-per-op, ~1.0 when the handler is
    # as cheap as budgeted; it falls through the floor if the signal path
    # (or anything the handler touches) grows real work.
    ("BENCH_bench_obs_recorder.json", "BM_IngestProfilerOff",
     "BM_IngestProfilerOn", 0.97, "ingest (profiler off vs 97 Hz on)"),
    # Non-blocking flush gate: with the double-banked window state, ingest
    # under a continuously rotating flusher must cost about the same as
    # ingest with a quiescent clock (ratio ~1.0). If window retirement
    # starts holding the ingest path, under-flush time grows and the ratio
    # falls through the floor.
    ("BENCH_bench_stream_window.json", "BM_WindowAccumulateQuiescent",
     "BM_WindowAccumulateUnderFlush", 0.75,
     "window ingest (quiescent vs flush)"),
    # Columnar analysis kernels (DESIGN.md section 15). The acceptance bar
    # is >= 3x for the full figure-aggregator bundle consuming shared
    # FlowColumns batches vs the seed's per-record std::function sinks
    # (interpreted monitor filters included); the committed baseline ratio
    # meets it, the enforced floor keeps the usual noise margin.
    ("BENCH_bench_analysis_scan.json", "BM_AnalysisPerRecord",
     "BM_AnalysisBatchColumns", 2.2,
     "analysis kernels (per-record vs columnar)"),
    # Scan-engine lane scaling. The committed baseline comes from a 1-core
    # container where extra lanes can only add overhead (ratio < 1), so this
    # pair is tracked baseline-relative: it gates the ratio from collapsing
    # (sharding overhead growing), not a parallel speedup the baseline box
    # cannot measure. On multi-core runners the ratio rises above 1 and
    # passes with margin; the >= 2.5x scaling target of DESIGN.md section 15
    # is an 8-core acceptance bar, not a floor enforceable here.
    ("BENCH_bench_analysis_scan.json", "BM_AnalysisScan/1/real_time",
     "BM_AnalysisScan/8/real_time", 0.6,
     "analysis scan (1 vs 8 lanes)"),
    # Table-1 app classification (DESIGN.md section 9): the batch entry
    # over the fused filter plan, FlowColumns built in the timed loop, must
    # beat the interpreted reference scan by the >= 5x acceptance bar.
    ("BENCH_bench_abl_classifier_bins.json", "BM_AppClassify_Reference",
     "BM_AppClassify_Batch", 5.0, "app classifier (reference vs batch)"),
]


def load_ns_per_op(path: Path) -> dict[str, float]:
    """ns/op per series: the `<series>_median` aggregate when the run
    had --benchmark_repetitions, else the series' single (first) run.

    One run of a short series can land on a noisy slice of a shared
    runner; the median of five repetitions is what a pair is gated on.
    """
    with path.open() as f:
        doc = json.load(f)
    out: dict[str, float] = {}
    medians: dict[str, float] = {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("name")
        ns = entry.get("ns_per_op")
        if not (isinstance(name, str) and isinstance(ns, (int, float))
                and ns > 0):
            continue
        if name.endswith("_median"):
            medians[name[: -len("_median")]] = float(ns)
        else:
            out.setdefault(name, float(ns))
    out.update(medians)
    return out


HOST_FIELDS = ("nproc", "cpu_model", "kernel", "compiler", "build_type",
               "git_sha")


def load_host(path: Path) -> dict | None:
    """The file's host stamp, or None when it has none."""
    with path.open() as f:
        host = json.load(f).get("host")
    return host if isinstance(host, dict) else None


def describe_host(host: dict | None) -> str:
    if host is None:
        return "no host stamp"
    return ", ".join(f"{k}={host.get(k, '?')}" for k in HOST_FIELDS)


def report_hosts(current: Path, baseline: Path) -> None:
    """Print both hosts of one bench file; warn when they cannot be
    compared like for like. The git sha is expected to differ."""
    cur = load_host(current)
    print(f"{current.name}:")
    print(f"  current host:  {describe_host(cur)}")
    if not baseline.exists():
        print("  baseline host: - (no baseline file)")
        return
    base = load_host(baseline)
    print(f"  baseline host: {describe_host(base)}")
    if base is None:
        print("  warning: baseline has no host stamp; the comparison may be "
              "cross-host")
    elif cur is not None:
        differ = [k for k in HOST_FIELDS
                  if k != "git_sha" and cur.get(k) != base.get(k)]
        if differ:
            print(f"  warning: hosts differ in {', '.join(differ)}; the "
                  "comparison is cross-host")


def speedup(series: dict[str, float], ref: str, fast: str) -> float | None:
    if ref not in series or fast not in series:
        return None
    return series[ref] / series[fast]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True, type=Path,
                    help="directory with the run's BENCH_*.json files")
    ap.add_argument("--baseline", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "bench" / "baselines",
                    help="directory with committed baseline JSON")
    ap.add_argument("--slack", type=float, default=0.25,
                    help="tolerated fractional loss of baselined speedup")
    args = ap.parse_args()

    for fname in dict.fromkeys(fname for fname, *_ in PAIRS):
        if (args.current / fname).exists():
            report_hosts(args.current / fname, args.baseline / fname)
    print()

    failures = 0
    checked = 0
    header = f"{'pair':34} {'baseline':>9} {'current':>9} {'floor':>6}  verdict"
    print(header)
    print("-" * len(header))
    for fname, ref, fast, floor, label in PAIRS:
        cur_path = args.current / fname
        base_path = args.baseline / fname
        if not cur_path.exists():
            print(f"{label:34} {'-':>9} {'-':>9} {floor:>6.1f}  SKIP "
                  f"(no current run: {cur_path})")
            continue
        current = speedup(load_ns_per_op(cur_path), ref, fast)
        if current is None:
            print(f"{label:34} {'-':>9} {'-':>9} {floor:>6.1f}  FAIL "
                  f"(series missing from {fname})")
            failures += 1
            continue
        baseline = None
        if base_path.exists():
            baseline = speedup(load_ns_per_op(base_path), ref, fast)
        checked += 1
        threshold = floor
        if baseline is not None:
            threshold = max(threshold, baseline / (1.0 + args.slack))
        ok = current >= threshold
        failures += 0 if ok else 1
        base_col = f"{baseline:>8.2f}x" if baseline is not None else f"{'-':>9}"
        verdict = "ok" if ok else f"FAIL (min {threshold:.2f}x)"
        print(f"{label:34} {base_col} {current:>8.2f}x {floor:>6.1f}  {verdict}")

    if checked == 0:
        print("error: no tracked pair had a current run", file=sys.stderr)
        return 2
    print()
    if failures:
        print(f"{failures} regression(s): the compiled paths lost more than "
              f"{args.slack:.0%} of their baselined speedup (or fell below "
              "an acceptance floor)")
        return 1
    print("all tracked speedup ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
