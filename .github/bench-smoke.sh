#!/usr/bin/env bash
# The four benchmark workloads for one second each at seed 0, `tower` also at
# seeds 3 and 5, whose Petersen towers the least-degree gauge moves the most
# (their line degree bounds fall from 20 and 24 to 13 and 12), and `tower` at
# seed 0 with `--trace 1`, whose traced passes evaluate a `torus:` target one
# point at a time through `L2Zeta.__call__`, the one rank-1 `l2_log_det` read
# outside a tower run's shared line means. Every output is checked against
# bench/reference.py; fails unless each run is correct with no failed
# operation and its run record (the line before the result) lists no CSV with
# numpy reprs such as np.float64(0.0), which the reference check reads past.
# Run from the repository root: bash .github/bench-smoke.sh
set -eo pipefail
for run in tower:0:0 tower:3:0 tower:5:0 tower:0:1 l2_grid:0:0 zeta:0:0 oracles:0:0; do
  IFS=: read -r workload seed trace <<< "$run"
  lines=$(python3 bench/run.py --workload "$workload" --seed "$seed" --trace "$trace" --seconds 1 | tail -n 2)
  python3 -c '
import json, sys
record, result = (json.loads(line) for line in sys.argv[1].splitlines())
sys.exit(not (result["correct"] is True and result["failed"] == 0
              and not record["record"]["csv_files_with_numpy_repr"]))' "$lines" \
    || { echo "$run: $lines"; exit 1; }
done
