#!/bin/sh
# Output-error gate for figure_export, trace_tool and lockdown_report: an
# output that cannot be written must fail the run with a non-zero exit,
# naming the path and the reason.
#   1. figure_export: its first CSV is a symlink to /dev/full, so the
#      buffered write fails only when the file is flushed and closed.
#   2. trace_tool synth into /dev/full.
#   3. lockdown_report with its stdout on /dev/full.
#
#   usage: export_output_errors.sh <figure_export> <trace_tool>
#                                  <lockdown_report> <work-dir>
set -eu
figure_export=$1
trace_tool=$2
lockdown_report=$3
work=$4
rm -rf "$work"
mkdir -p "$work/csv"
ln -s /dev/full "$work/csv/fig01_isp_ce.csv"

if "$figure_export" "$work/csv" > "$work/csv.out" 2> "$work/csv.err"; then
  echo "figure_export exited 0 with fig01_isp_ce.csv on /dev/full" >&2
  exit 1
fi
if ! grep -q 'fig01_isp_ce.csv: No space left on device' "$work/csv.err"; then
  echo "figure_export failed without naming the path and the reason:" >&2
  cat "$work/csv.err" >&2
  exit 1
fi

if "$trace_tool" synth /dev/full ixp-se 2020-03-25 1 > "$work/trace.out" 2> "$work/trace.err"; then
  echo "trace_tool synth /dev/full exited 0" >&2
  exit 1
fi
if ! grep -q '/dev/full: No space left on device' "$work/trace.err"; then
  echo "trace_tool failed without naming the path and the reason:" >&2
  cat "$work/trace.err" >&2
  exit 1
fi

if "$lockdown_report" > /dev/full 2> "$work/report.err"; then
  echo "lockdown_report > /dev/full exited 0" >&2
  exit 1
fi
if ! grep -q '^stdout: No space left on device$' "$work/report.err"; then
  echo "lockdown_report failed without naming stdout and the reason:" >&2
  cat "$work/report.err" >&2
  exit 1
fi
echo "unwritable CSV, trace and report outputs are reported and fail the run"
