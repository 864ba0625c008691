"""The benchmark's pass runner against the current sources.

`bench/passrun.py` drives the package through `graphzeta.cli.run` (`cli`
mode) and through the public functions that each command calls (`traced`
mode): tower specs, levels' `graph` and `index`, `spectrum`,
`normalized_zeta`, `torus_l2`, `GridSpec`, `l2_zeta_abelian`, `det_poly`,
the Euler-product coefficients, `functional_equation_sides`,
`deitmar_residual` and the series oracle. Both modes run here, each in a
subprocess as the benchmark runs them, on tiny plans of every operation
kind, so that a renamed or removed name fails a test rather than a
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphzeta import (
    bouquet_graph,
    complete_graph,
    cycle_graph,
    l2_log_det,
    load_voltages,
    save_graph,
    torus_symbol,
)

ROOT = Path(__file__).resolve().parents[1]


def run_plan(tmp_path, workload, ops, mode):
    """The result document of one pass over `ops`, which must all be ok."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"workload": workload, "seed": 0, "ops": ops}))
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
    assert [op["ok"] for op in doc["ops"]] == [True] * len(ops), doc["ops"]
    return doc


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
    run_plan(tmp_path, "tower", ops, mode)
    for i, indices in enumerate(((1, 2, 4), (1, 4))):
        written = sorted(p.name for p in (tmp_path / "out" / f"op{i:02d}").glob("errors_N*.csv"))
        assert written == sorted(f"errors_N{n}.csv" for n in indices)


@pytest.mark.parametrize("mode", ["cli", "traced"])
def test_passrun_runs_every_other_operation_kind(tmp_path, mode):
    save_graph(bouquet_graph(2), tmp_path / "b2.json")
    save_graph(complete_graph(4), tmp_path / "k4.json")
    (tmp_path / "b2_z2.json").write_text(json.dumps({"voltages": [[1, 0], [0, 1]], "rank": 2}))
    b2, z2, k4 = (str(tmp_path / name) for name in ("b2.json", "b2_z2.json", "k4.json"))
    ops = [
        {"kind": "l2_grid", "base": b2, "voltages": z2, "grid": "disk:0.3:3:0.02"},
        {"kind": "zeta", "graph": k4, "exact": False},
        {"kind": "zeta", "graph": k4, "exact": True},
        {"kind": "euler", "graph": k4, "terms": 6},
        {"kind": "functional", "graph": k4, "points": 5, "seed": 3},
        {"kind": "deitmar", "graph": k4},
        {"kind": "series", "base": b2, "voltages": z2, "u": [0.02, 0.01], "q": 3, "terms": 10},
    ]
    doc = run_plan(tmp_path, "mixed", ops, mode)
    out = tmp_path / "out"
    assert (out / "op00" / "values.csv").read_text().startswith("re,im,value_re,value_im\n")
    for i in (1, 2):
        assert json.loads((out / f"op{i:02d}" / "coeffs.json").read_text()) == [
            1, 0, 2, -8, -3, -16, 8, 0, 16
        ]
    # the series value is the torus log-determinant, as the quadrature gives it
    quad = l2_log_det(torus_symbol(bouquet_graph(2), load_voltages(z2)), 3, 0.02 + 0.01j)
    assert complex(*doc["ops"][6]["value"]) == pytest.approx(quad, abs=1e-10)
