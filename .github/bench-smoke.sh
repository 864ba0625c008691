#!/usr/bin/env bash
# The four benchmark workloads for one second each at seed 0, every output
# checked against bench/reference.py; fails unless each run is correct with
# no failed operation. Run from the repository root: bash .github/bench-smoke.sh
set -eo pipefail
for workload in tower l2_grid zeta oracles; do
  result=$(python3 bench/run.py --workload "$workload" --seed 0 --seconds 1 | tail -n 1)
  python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$result" \
    || { echo "$workload: $result"; exit 1; }
done
