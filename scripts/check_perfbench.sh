#!/bin/sh
# Benchmark correctness smoke: run every perfbench workload once, short
# and untraced, and fail unless its result line reports every op's
# output correct.  perfbench/run.py exits 0 even when ops fail (it
# reports them in the result line), so the line itself is checked.
# There is no timing gate: CI hosts are too noisy to gate on wall time.
#
# Usage: scripts/check_perfbench.sh   (from the repository root)
set -eu

status=0
for w in verify-tables sweep-solver reduction-lockstep serve-closed; do
  out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0) || {
    echo "FAIL: $w: run.py exited non-zero" >&2
    status=1
    continue
  }
  last=$(printf '%s\n' "$out" | tail -n 1)
  if printf '%s\n' "$last" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' 2>/dev/null; then
    echo "ok: $w: $last"
  else
    echo "FAIL: $w: $last" >&2
    status=1
  fi
done
exit $status
