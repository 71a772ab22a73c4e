#!/bin/sh
# Round-level trace replay regression: record the per-message/per-round
# JSONL trace of a reduction sweep, replay it (`hardness replay`
# regenerates the sweep and differences the event streams), and require
# (a) a clean bit-identical replay on the 2-party mds sweep, the
# directed 2-party hampath sweep and the 4-party bitgadget sweep, and (b) a nonzero exit naming the first
# divergent event when the recorded trace is corrupted.
#
# Usage: scripts/check_trace_replay.sh HARDNESS_EXE
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 HARDNESS_EXE" >&2
  exit 2
fi
exe=$1

work=$(mktemp -d "${TMPDIR:-/tmp}/check_replay.XXXXXX")
cleanup() { rm -rf "$work"; }
trap cleanup EXIT INT TERM

# 2-party: exhaustive mds k=2.
"$exe" reduction mds -k 2 --exhaustive --trace "$work/mds.jsonl" \
  > "$work/mds.log" 2>&1
[ -s "$work/mds.jsonl" ] || {
  echo "FAIL: --trace wrote no events" >&2
  cat "$work/mds.log" >&2
  exit 1
}
"$exe" replay mds "$work/mds.jsonl" -k 2 --exhaustive > "$work/replay.log" 2>&1 || {
  echo "FAIL: mds replay diverged" >&2
  cat "$work/replay.log" >&2
  exit 1
}
grep -q 'trace replay ok' "$work/replay.log" || {
  echo "FAIL: no replay-ok line" >&2
  cat "$work/replay.log" >&2
  exit 1
}

# directed 2-party: sampled hampath k=2 (the directed lockstep path).
"$exe" reduction hampath --pairs 4 --trace "$work/hp.jsonl" \
  > "$work/hp.log" 2>&1
"$exe" replay hampath "$work/hp.jsonl" --pairs 4 > "$work/hp_replay.log" 2>&1 || {
  echo "FAIL: hampath replay diverged" >&2
  cat "$work/hp_replay.log" >&2
  exit 1
}
grep -q 'trace replay ok' "$work/hp_replay.log" || {
  echo "FAIL: no hampath replay-ok line" >&2
  cat "$work/hp_replay.log" >&2
  exit 1
}

# t=4 multiparty: sampled bitgadget k=4 (same seed on both sides).
"$exe" reduction bitgadget -k 4 --pairs 2 --seed 7 \
  --trace "$work/bg.jsonl" > "$work/bg.log" 2>&1
"$exe" replay bitgadget "$work/bg.jsonl" -k 4 --pairs 2 --seed 7 \
  > "$work/bg_replay.log" 2>&1 || {
  echo "FAIL: bitgadget replay diverged" >&2
  cat "$work/bg_replay.log" >&2
  exit 1
}

# Corrupt one recorded message width: the replay must fail and point at
# the divergent event.
sed '4s/"bits": [0-9]*/"bits": 9999/' "$work/mds.jsonl" > "$work/bad.jsonl"
if "$exe" replay mds "$work/bad.jsonl" -k 2 --exhaustive \
  > "$work/bad.log" 2>&1; then
  echo "FAIL: corrupted trace replayed cleanly" >&2
  cat "$work/bad.log" >&2
  exit 1
fi
grep -q 'traces diverge at event' "$work/bad.log" || {
  echo "FAIL: divergence not reported" >&2
  cat "$work/bad.log" >&2
  exit 1
}

echo "trace replay ok: mds k=2 exhaustive, hampath k=2 (directed), bitgadget k=4 (t=4), corruption detected"
