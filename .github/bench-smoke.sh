#!/usr/bin/env bash
# The four benchmark workloads for one second each at seed 0, every output
# checked against bench/reference.py; fails unless each run is correct with
# no failed operation and its run record (the line before the result) lists
# no CSV with numpy reprs such as np.float64(0.0), which the reference
# check reads past. Run from the repository root: bash .github/bench-smoke.sh
set -eo pipefail
for workload in tower l2_grid zeta oracles; do
  lines=$(python3 bench/run.py --workload "$workload" --seed 0 --seconds 1 | tail -n 2)
  python3 -c '
import json, sys
record, result = (json.loads(line) for line in sys.argv[1].splitlines())
sys.exit(not (result["correct"] is True and result["failed"] == 0
              and not record["record"]["csv_files_with_numpy_repr"]))' "$lines" \
    || { echo "$workload: $lines"; exit 1; }
done
