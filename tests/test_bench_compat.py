"""The benchmark's pass runner against the current sources.

`bench/passrun.py` drives the package through `graphzeta.cli.run` (`cli`
mode) and through the public functions that `tower run` calls (`traced`
mode): tower specs, levels' `graph` and `index`, `spectrum`,
`normalized_zeta`, `torus_l2`, `GridSpec`. Both modes run here, each in a
subprocess as the benchmark runs them, on a tiny tower plan, so that a
renamed or removed name fails a test rather than a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphzeta import bouquet_graph, cycle_graph, save_graph

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mode", ["cli", "traced"])
def test_passrun_runs_a_tower_plan(tmp_path, mode):
    save_graph(cycle_graph(1), tmp_path / "loop.json")
    save_graph(bouquet_graph(2), tmp_path / "b2.json")
    specs = {
        "loop_tower.json": {
            "base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2, 4]
        },
        "loop_z.json": {"voltages": [[1]], "rank": 1},
        "b2_homology.json": {"base": "b2.json", "kind": "homology", "p": 2, "depth": 1},
    }
    for name, doc in specs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    ops = [
        {"kind": "tower", "spec": str(tmp_path / "loop_tower.json"),
         "target": "torus:loop_z.json", "grid": "disk:0.5:5:0.05"},
        {"kind": "tower", "spec": str(tmp_path / "b2_homology.json"),
         "target": "constant:1.0", "grid": "disk:0.3:5:0.05"},
    ]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"workload": "tower", "seed": 0, "ops": ops}))
    result = tmp_path / "result.json"
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "passrun.py"), str(plan), str(tmp_path / "out"),
         str(result), mode],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert [op["ok"] for op in doc["ops"]] == [True, True], doc["ops"]
    for i, indices in enumerate(((1, 2, 4), (1, 4))):
        written = sorted(p.name for p in (tmp_path / "out" / f"op{i:02d}").glob("errors_N*.csv"))
        assert written == sorted(f"errors_N{n}.csv" for n in indices)
