#!/bin/sh
# Determinism gate for the collector's ingest path: live_collector with its
# defaults (one wire lane, one shard) and with four lanes and four shards
# must spool the same, non-empty set of byte-identical slices.
#
#   usage: live_collector_lanes_identical.sh <live_collector> <work-dir>
set -eu
bin=$1
work=$2
rm -rf "$work"
"$bin" "$work/default" > /dev/null
"$bin" "$work/lanes4" --shards 4 --wire-threads 4 > /dev/null
set -- "$work"/default/slice-*.lft
if [ ! -e "$1" ]; then
  echo "the default run spooled no slice" >&2
  exit 1
fi
if [ "$(ls "$work/default" | wc -l)" != "$(ls "$work/lanes4" | wc -l)" ]; then
  echo "slice counts differ between the runs" >&2
  exit 1
fi
for f in "$@"; do
  cmp "$f" "$work/lanes4/$(basename "$f")"
done
echo "$# slices byte-identical across lane and shard counts"
