#!/bin/sh
# Output-error gate for live_collector: a run whose outputs cannot be
# written must name the failing path and exit non-zero instead of
# reporting success.
#   1. --trace-out /dev/full: the span trace write fails with ENOSPC.
#   2. the first slice's path is pre-created as a directory: that slice
#      cannot be opened, so the spool is incomplete.
#
#   usage: live_collector_output_errors.sh <live_collector> <work-dir>
set -eu
bin=$1
work=$2
rm -rf "$work"
mkdir -p "$work"

if "$bin" "$work/full" --trace-out /dev/full > "$work/full.out" 2> "$work/full.err"; then
  echo "--trace-out /dev/full exited 0" >&2
  exit 1
fi
if ! grep -q '/dev/full' "$work/full.err"; then
  echo "--trace-out /dev/full failed without naming the path:" >&2
  cat "$work/full.err" >&2
  exit 1
fi

set -- "$work"/full/slice-*.lft
if [ ! -e "$1" ]; then
  echo "the first run spooled no slice" >&2
  exit 1
fi
first=$(basename "$1")
mkdir -p "$work/blocked/$first"
if "$bin" "$work/blocked" > "$work/blocked.out" 2> "$work/blocked.err"; then
  echo "a slice that could not be written still exited 0" >&2
  exit 1
fi
if ! grep -q "$first" "$work/blocked.err"; then
  echo "the unwritable slice was not named:" >&2
  cat "$work/blocked.err" >&2
  exit 1
fi
echo "unwritable trace and slice outputs both reported and fail the run"
