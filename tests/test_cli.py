import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from graphzeta import (
    IntPolynomial,
    bouquet_graph,
    cli,
    complete_graph,
    covers,
    cycle_graph,
    derived_graph,
    errors,
    graphs,
    l2,
    save_graph,
    zeta,
)
from graphzeta.cli import run
from graphzeta.zeta import _det_poly

from corpus import CUBIC48, K4, det_at, factorization_error, path_graph, random_regular


@pytest.fixture()
def workdir(tmp_path):
    save_graph(complete_graph(4), tmp_path / "k4.json")
    save_graph(bouquet_graph(2), tmp_path / "b2.json")
    save_graph(cycle_graph(1), tmp_path / "loop.json")
    (tmp_path / "v2.json").write_text(
        json.dumps({"voltages": [[1, 0], [0, 1]], "rank": 2})
    )
    (tmp_path / "tower.json").write_text(
        json.dumps(
            {"base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2, 4, 8]}
        )
    )
    (tmp_path / "tower_h.json").write_text(
        json.dumps({"base": "b2.json", "kind": "homology", "p": 2, "depth": 2})
    )
    return tmp_path


def summary_of(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_zeta_compute(workdir, capsys):
    emit = workdir / "poly.json"
    code = run(
        [
            "zeta",
            "compute",
            "--graph",
            str(workdir / "k4.json"),
            "--eval",
            "0.1",
            "--emit",
            str(emit),
        ]
    )
    assert code == 0
    doc = summary_of(capsys)
    assert doc["q"] == 2 and doc["chi"] == -2
    assert json.loads(emit.read_text()) == [1, 0, 2, -8, -3, -16, 8, 0, 16]
    manifest = json.loads((workdir / "poly.json.manifest.json").read_text())
    assert manifest["command"] == "zeta compute"
    assert str(workdir / "k4.json") in manifest["inputs"]


def test_zeta_compute_where_fft_interpolation_fails(workdir, capsys):
    save_graph(CUBIC48, workdir / "cubic48.json")
    for extra in ([], ["--exact"]):  # --exact is accepted and changes nothing
        emit = workdir / "cubic48_poly.json"
        argv = ["zeta", "compute", "--graph", str(workdir / "cubic48.json"), "--emit", str(emit)]
        assert run(argv + extra) == 0
        assert summary_of(capsys)["det_poly_degree"] == 96
        poly = IntPolynomial(tuple(json.loads(emit.read_text())))
        assert [poly(t) for t in (-1, 2, 3)] == [det_at(CUBIC48, t) for t in (-1, 2, 3)]


def test_modular_route_vertex_cap(workdir, capsys, monkeypatch):
    # the cap is on matrix order: v for a regular graph, 2v for any other
    save_graph(path_graph(257), workdir / "p257.json")
    assert run(["zeta", "compute", "--graph", str(workdir / "p257.json")]) == 2
    assert "257 vertices" in capsys.readouterr().err
    cubic260, emit = random_regular(260, 3, 1), workdir / "cubic260_poly.json"
    save_graph(cubic260, workdir / "cubic260.json")
    argv = ["zeta", "compute", "--graph", str(workdir / "cubic260.json"), "--emit", str(emit)]
    assert run(argv) == 0
    assert factorization_error(cubic260, IntPolynomial(tuple(json.loads(emit.read_text())))) < 1e-8
    save_graph(CUBIC48, workdir / "cubic48.json")
    monkeypatch.setattr(zeta, "ORDER_CAP", 40)
    _det_poly.cache_clear()
    assert run(["zeta", "compute", "--graph", str(workdir / "cubic48.json")]) == 2
    err = capsys.readouterr().err
    assert "order at most 40" in err and "48 vertices" in err


def test_zeta_zeros_check(workdir, capsys):
    out = workdir / "zeros.csv"
    code = run(
        ["zeta", "zeros", "--graph", str(workdir / "k4.json"), "--out", str(out), "--check-c"]
    )
    assert code == 0
    doc = summary_of(capsys)
    assert doc["all_on_C"] is True
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,multiplicity,dist_to_C"
    assert len(lines) == 1 + doc["distinct_zeros"]
    # the tolerance is a constant, reported in the summary and the manifest
    assert doc["tol"] == 1e-8
    assert json.loads((workdir / "zeros.csv.manifest.json").read_text())["parameters"]["tol"] == 1e-8
    argv = ["zeta", "zeros", "--graph", str(workdir / "k4.json"), "--out", str(out), "--tol", "1e-9"]
    assert run(argv) == 1
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


def test_zeta_zeros_needs_no_determinant(workdir, capsys, monkeypatch):
    # the zeros come from the spectrum, so a graph the determinant routes
    # refuse still has them
    save_graph(CUBIC48, workdir / "cubic48.json")
    monkeypatch.setattr(zeta, "ORDER_CAP", 40)
    _det_poly.cache_clear()
    graph, out = str(workdir / "cubic48.json"), str(workdir / "z.csv")
    assert run(["zeta", "zeros", "--graph", graph, "--out", out]) == 0
    assert summary_of(capsys)["zero_count"] == 96 + 2 * abs(CUBIC48.euler_characteristic)


def test_zeta_euler_check(workdir, capsys):
    code = run(["zeta", "euler-check", "--graph", str(workdir / "k4.json"), "--terms", "8"])
    assert code == 0
    assert summary_of(capsys)["match"] is True


def test_zeta_functional_check(workdir, capsys, monkeypatch):
    k4 = ["zeta", "functional-check", "--graph", str(workdir / "k4.json")]
    # --points and --seed are accepted and ignored: the check is exact
    assert run(k4 + ["--points", "20", "--seed", "3"]) == 0
    doc = summary_of(capsys)
    assert doc["pass"] is True and doc["first_mismatch"] is None
    # float sampling gave a 2.01e-9 residual here against a 1e-9 tolerance
    save_graph(random_regular(32, 3, 2), workdir / "cubic32.json")
    assert run(["zeta", "functional-check", "--graph", str(workdir / "cubic32.json")]) == 0
    assert summary_of(capsys)["pass"] is True
    assert run(k4 + ["--tol", "1e-9"]) == 1
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
    # one coefficient of K4's (1, 0, 2, -8, -3, -16, 8, 0, 16) off by one
    monkeypatch.setattr(zeta, "det_poly", lambda g: IntPolynomial((1, 0, 2, -7, -3, -16, 8, 0, 16)))
    assert run(k4) == 2
    doc = summary_of(capsys)
    assert doc["pass"] is False and doc["first_mismatch"] == 3


def test_cover_build(workdir, capsys):
    (workdir / "vc.json").write_text(json.dumps({"voltages": [1], "orders": [6]}))
    out = workdir / "cover.json"
    code = run(
        [
            "cover",
            "build",
            "--base",
            str(workdir / "loop.json"),
            "--voltages",
            str(workdir / "vc.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = summary_of(capsys)
    assert doc["vertices"] == 6 and doc["connected"] is True
    assert json.loads(out.read_text())["vertices"] == 6


def test_cover_build_size_cap(workdir, capsys):
    (workdir / "vbig.json").write_text(json.dumps({"voltages": [1], "orders": [10001]}))
    out = workdir / "cover.json"
    argv = ["cover", "build", "--base", str(workdir / "loop.json"), "--out", str(out)]
    # the default cap of 10000 vertices
    assert run(argv + ["--voltages", str(workdir / "vbig.json")]) == 2
    assert "10001 vertices, over the cap of 10000" in capsys.readouterr().err
    assert not out.exists()


def test_tower_build_and_run(workdir, capsys):
    built = workdir / "built"
    assert run(["tower", "build", "--spec", str(workdir / "tower.json"), "--out", str(built)]) == 0
    doc = summary_of(capsys)
    assert doc["indices"] == [1, 2, 4, 8]
    assert (built / "tower.json").exists()
    assert (built / "level_01_N1.json").exists()

    outdir = workdir / "run"
    code = run(
        [
            "tower",
            "run",
            "--spec",
            str(workdir / "tower.json"),
            "--target",
            "constant:1",
            "--grid",
            "disk:0.5:9:0.02",
            "--out",
            str(outdir),
            "--jobs",
            "2",
        ]
    )
    assert code == 0
    doc = summary_of(capsys)
    sups = [lvl["sup_error"] for lvl in doc["levels"]]
    assert sups == sorted(sups, reverse=True)
    # each level's size and the number of twisted matrices behind its spectrum
    assert [(lvl["vertices"], lvl["characters"]) for lvl in doc["levels"]] == [
        (1, 1), (2, 2), (4, 4), (8, 8)
    ]
    # the run writes what it computed: the summary, the manifest and one error field per level
    assert {p.name for p in outdir.iterdir()} == {"summary.json", "manifest.json"} | {
        f"errors_N{i}.csv" for i in (1, 2, 4, 8)
    }
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest["parameters"]) == {"target", "grid"}
    for name in ("summary.json", "manifest.json"):
        text = (outdir / name).read_text()
        assert '"vertices"' not in text and '"characters"' not in text

    # a rerun of every command that writes files lands byte-identical outputs
    # and prints the same summary
    (workdir / "vc.json").write_text(json.dumps({"voltages": [1], "orders": [6]}))
    k4, b2, loop = (str(workdir / f"{name}.json") for name in ("k4", "b2", "loop"))
    out = workdir / "out"
    commands = [
        ["tower", "run", "--spec", str(workdir / "tower.json"), "--target", "constant:1",
         "--grid", "disk:0.5:9:0.02", "--out", str(outdir), "--jobs", "2"],
        ["zeta", "compute", "--graph", k4, "--emit", str(out / "poly.json")],
        ["zeta", "zeros", "--graph", k4, "--out", str(out / "zeros.csv")],
        ["cover", "build", "--base", loop, "--voltages", str(workdir / "vc.json"),
         "--out", str(out / "cover.json")],
        ["l2", "torus", "--base", b2, "--voltages", str(workdir / "v2.json"),
         "--grid", "disk:0.3:5:0.02", "--out", str(out / "values.csv")],
        ["l2", "cdf", "--spec", str(workdir / "tower.json"), "--out", str(out / "cdfs")],
    ]

    def outputs():
        summaries = []
        for argv in commands:
            assert run(argv) == 0
            summaries.append(summary_of(capsys))
        files = {p: p.read_bytes() for d in (outdir, out) for p in d.rglob("*") if p.is_file()}
        return summaries, files

    before = outputs()
    assert len(before[1]) == 6 + 8 + 5  # tower run, the four file outputs with manifests, l2 cdf
    assert outputs() == before


def test_manifests_hash_the_spec_base(workdir, capsys):
    # the spec names loop.json; editing that file changes every tower manifest
    spec = ["--spec", str(workdir / "tower.json")]
    commands = [
        ["tower", "build", *spec, "--out", str(workdir / "built")],
        ["tower", "run", *spec, "--target", "constant:1", "--grid", "disk:0.5:5:0.02",
         "--out", str(workdir / "run")],
        ["l2", "cdf", *spec, "--out", str(workdir / "cdfs")],
    ]

    def manifest_inputs():
        found = []
        for argv in commands:
            assert run(argv) == 0
            doc = summary_of(capsys)
            data = Path(doc["manifest"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == doc["manifest_sha256"]
            manifest = json.loads(data)
            assert manifest["inputs"] == doc["inputs"]
            found.append(manifest["inputs"])
        return found

    before = manifest_inputs()
    base = str(workdir / "loop.json")
    assert all(set(inputs) == {str(workdir / "tower.json"), base} for inputs in before)
    (workdir / "loop.json").write_text(json.dumps({"vertices": 1, "edges": [[0, 0]], "name": "L"}))
    after = manifest_inputs()
    for old, new in zip(before, after):
        assert old[base] != new[base]
        assert old[str(workdir / "tower.json")] == new[str(workdir / "tower.json")]


def test_tower_run_refuses_an_over_budget_level_before_the_target(workdir, capsys, monkeypatch):
    # the top level of this K4 lattice spec has 128^3 characters x 4 vertices,
    # 8,388,608 eigenvalues
    rank3 = [[0, 0, 0]] * 3 + [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    (workdir / "v3.json").write_text(json.dumps({"voltages": rank3, "rank": 3}))
    spec = {"base": "k4.json", "kind": "lattice", "voltages": rank3, "orders": [1, 2, 128]}
    (workdir / "big.json").write_text(json.dumps(spec))
    unread = l2.L2Zeta(evaluate=lambda u: pytest.fail("the target was evaluated"))
    monkeypatch.setattr(cli, "torus_l2", lambda base, volt: unread)
    argv = ["tower", "run", "--spec", str(workdir / "big.json"), "--target", "torus:v3.json",
            "--grid", "disk:0.47:5:0.01", "--out", str(workdir / "run")]
    assert run(argv) == 2
    assert "8388608 eigenvalues" in capsys.readouterr().err


def test_tower_run_reports_each_level_route_outside_its_files(workdir, capsys, monkeypatch):
    # the loop with voltage 3 has degree bound 3: order 8 > 2D + 1 reads the roots of
    # its line, which the summary reports with their largest |rho|
    (workdir / "loop3.json").write_text(
        json.dumps({"base": "loop.json", "kind": "cyclic", "voltages": [3], "orders": [1, 8]})
    )
    argv = ["tower", "run", "--spec", str(workdir / "loop3.json"), "--target", "constant:1",
            "--grid", "disk:0.6:5:0.02", "--out", str(workdir / "r")]
    assert run(argv) == 0
    doc = summary_of(capsys)
    levels = doc["levels"]
    assert [lvl["route"] for lvl in levels] == ["characters", "lines"] and doc["line_solves"] == 1
    assert levels[0]["rho_max"] is None and 0 < levels[1]["rho_max"] < 1
    assert [lvl["degree_bound"] for lvl in levels] == [0, 3]
    files = {p.name: p.read_bytes() for p in (workdir / "r").iterdir()}
    keys = (b"route", b"rho_max", b"line_solves", b"degree_bound")
    assert not any(key in body for body in files.values() for key in keys)
    # its root solve is charged (2D)^2 = 36 nodes; past the budget, and within the
    # level's 8 eigenvalues, the level is read from its characters
    monkeypatch.setattr(l2, "NODE_BUDGET", 20)
    assert run(argv) == 0
    doc = summary_of(capsys)
    budgeted = doc["levels"]
    assert [lvl["route"] for lvl in budgeted] == ["characters", "characters"] and doc["line_solves"] == 0
    assert abs(budgeted[1]["sup_error"] - levels[1]["sup_error"]) < 1e-12
    assert {p.name: p.read_bytes() for p in (workdir / "r").iterdir()}.keys() == files.keys()


def test_rank_one_reads_outside_the_levels_lines_keep_their_means_alone(workdir, capsys, monkeypatch):
    # the loop with voltage 3 at orders 1, 2, 4, 8: order 1 reads its characters,
    # orders 2 and 4 (voltage -1, D = 1) one line and order 8 (D = 3) another, each
    # line solved once for its levels; a torus: target of either symbol reads the
    # means the levels kept, one of another symbol solves its own line, and the l2
    # torus grid solves its one line
    solves, line_roots = [], l2._line_roots
    monkeypatch.setattr(l2, "_line_roots", lambda sums, degree: solves.append(degree) or line_roots(sums, degree))
    for s in (1, 2, 3):
        (workdir / f"v{s}.json").write_text(json.dumps({"voltages": [s], "rank": 1}))
    (workdir / "loop3.json").write_text(
        json.dumps({"base": "loop.json", "kind": "cyclic", "voltages": [3], "orders": [1, 2, 4, 8]})
    )
    grid = ["--grid", "disk:0.6:5:0.02"]
    argv = ["l2", "torus", "--base", str(workdir / "loop.json"), "--voltages", str(workdir / "v3.json")]
    assert run(argv + grid + ["--out", str(workdir / "values.csv")]) == 0
    assert solves == [3]
    argv = ["tower", "run", "--spec", str(workdir / "loop3.json")] + grid + ["--out", str(workdir / "r")]
    for target, solved in (("torus:v1.json", [1, 3]), ("torus:v3.json", [1, 3]), ("torus:v2.json", [1, 3, 2])):
        solves.clear()
        assert run(argv + ["--target", target]) == 0
        doc = summary_of(capsys)
        assert [lvl["route"] for lvl in doc["levels"]] == ["characters", "lines", "lines", "lines"]
        assert [lvl["degree_bound"] for lvl in doc["levels"]] == [0, 1, 1, 3]
        assert solves == solved and doc["line_solves"] == len(solved)


def test_line_roots_moved_by_1e_8_exit_2(workdir, capsys, monkeypatch):
    # every rho moved by 1e-8, with the mean Jensen's formula gives for the moved roots:
    # the root count still holds, and only the node-sum residual can see the move
    line_roots = l2._line_roots

    def moved(sums, degree):
        means, rhos = line_roots(sums, degree)
        shifted = rhos + 1e-8
        return means + np.log1p(-rhos).sum(axis=1) - np.log1p(-shifted).sum(axis=1), shifted

    monkeypatch.setattr(l2, "_line_roots", moved)
    tower = ["tower", "run", "--spec", str(workdir / "tower.json"), "--target", "constant:1",
             "--grid", "disk:0.5:5:0.02", "--out", str(workdir / "run")]
    torus = ["l2", "torus", "--base", str(workdir / "b2.json"), "--voltages", str(workdir / "v2.json"),
             "--eval", "0.1+0.1j"]
    for argv in (tower, torus):
        assert run(argv) == 2
        assert "misses the sum of its 3 node logarithms" in capsys.readouterr().err


def test_tower_run_torus_target(workdir, capsys):
    # unroll one loop of the bouquet: levels are cycles with a loop at
    # every vertex, the limit is the matching Z-cover
    (workdir / "vz1.json").write_text(json.dumps({"voltages": [1, 0], "rank": 1}))
    (workdir / "tower_l.json").write_text(
        json.dumps(
            {"base": "b2.json", "kind": "cyclic", "voltages": [1, 0], "orders": [1, 2, 4]}
        )
    )
    code = run(
        [
            "tower",
            "run",
            "--spec",
            str(workdir / "tower_l.json"),
            "--target",
            "torus:vz1.json",
            "--grid",
            "disk:0.15:5:0.02",
            "--out",
            str(workdir / "run_t"),
        ]
    )
    assert code == 0
    doc = summary_of(capsys)
    assert len(doc["levels"]) == 3
    sups = [lvl["sup_error"] for lvl in doc["levels"]]
    assert sups[-1] < sups[0]
    # the level of order 4 > 2D + 1 = 3 and the target read one line
    assert [lvl["route"] for lvl in doc["levels"]][-1] == "lines" and doc["line_solves"] == 1


def test_csv_fields_are_plain_numbers(workdir, capsys):
    (workdir / "vz1.json").write_text(json.dumps({"voltages": [1, 0], "rank": 1}))
    (workdir / "tower_l.json").write_text(
        json.dumps(
            {"base": "b2.json", "kind": "cyclic", "voltages": [1, 0], "orders": [1, 2]}
        )
    )
    grid = "disk:0.15:5:0.02"
    tower_args = ["--target", "torus:vz1.json", "--grid", grid, "--out", str(workdir / "run")]
    assert run(["tower", "run", "--spec", str(workdir / "tower_l.json")] + tower_args) == 0
    values = workdir / "values.csv"
    l2_args = ["--voltages", str(workdir / "v2.json"), "--grid", grid, "--out", str(values)]
    assert run(["l2", "torus", "--base", str(workdir / "b2.json")] + l2_args) == 0
    zeros = workdir / "zeros.csv"
    assert run(["zeta", "zeros", "--graph", str(workdir / "k4.json"), "--out", str(zeros)]) == 0
    cdf_args = ["--spec", str(workdir / "tower_l.json"), "--out", str(workdir / "cdf")]
    assert run(["l2", "cdf"] + cdf_args) == 0
    capsys.readouterr()
    files = sorted((workdir / "run").glob("errors_N*.csv")) + [values, zeros]
    files += sorted((workdir / "cdf").glob("cdf_N*.csv"))
    assert len(files) == 6
    # every number is the repr of the Python int or float it parses to: an
    # np.float64(...) field, an int written as a float or a float written as
    # an int fails
    for path in files:
        header, *rows = path.read_text().splitlines()
        assert rows
        for row in rows:
            for name, field in zip(header.split(","), row.split(","), strict=True):
                number = (int if name == "multiplicity" else float)(field)
                assert field == repr(number), (path.name, name, field)


def test_l2_torus_eval(workdir, capsys):
    code = run(
        [
            "l2",
            "torus",
            "--base",
            str(workdir / "b2.json"),
            "--voltages",
            str(workdir / "v2.json"),
            "--eval",
            "0.1",
        ]
    )
    assert code == 0
    doc = summary_of(capsys)
    assert doc["eval"]["value_re"] == pytest.approx(0.99979573, abs=1e-6)


def test_l2_torus_eval_near_the_slit(workdir, capsys):
    # 3 x 4096 nodes, where 4096^2 nodes on the square would pass the node budget
    argv = ["l2", "torus", "--base", str(workdir / "b2.json"),
            "--voltages", str(workdir / "v2.json"), "--eval", "0.55+0.05j"]
    assert run(argv) == 0
    assert summary_of(capsys)["eval"]["value_re"] == pytest.approx(0.9875714, abs=1e-6)


def test_l2_torus_refuses_a_root_solve_over_the_node_budget(workdir, capsys):
    # voltage 10^6 on the loop: a companion matrix of order 2 x 10^6 for the point
    (workdir / "v1.json").write_text(json.dumps({"voltages": [[1000000]], "rank": 1}))
    argv = ["l2", "torus", "--base", str(workdir / "loop.json"),
            "--voltages", str(workdir / "v1.json"), "--eval", "0.3+0.1j"]
    assert run(argv) == 2
    assert "degree bound 1000000" in capsys.readouterr().err


def test_l2_cdf(workdir, capsys):
    outdir = workdir / "cdfs"
    code = run(["l2", "cdf", "--spec", str(workdir / "tower.json"), "--out", str(outdir)])
    assert code == 0
    doc = summary_of(capsys)
    assert doc["indices"] == [1, 2, 4, 8]
    assert (outdir / "cdf_N8.csv").read_text().startswith("lambda,F")


K4_RANK2 = [[1, 0], [0, 1], [0, 0], [1, 1], [0, 0], [2, -1]]
LAZY_SPECS = {  # spec, free voltages of the limit, vertices of the top level
    "cyclic K4": ({"kind": "cyclic", "voltages": [1, 2, 0, 1, 1, 0], "orders": [1, 2, 4]},
                  {"voltages": [1, 2, 0, 1, 1, 0], "rank": 1}, 16),
    "rank-2 K4 lattice": ({"kind": "lattice", "voltages": K4_RANK2, "orders": [1, 2, 4]},
                          {"voltages": K4_RANK2, "rank": 2}, 64),
    "K4 mod-7 homology": ({"kind": "homology", "p": 7, "depth": 1},
                          {"voltages": [[0, 0, 0]] * 3 + [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           "rank": 3}, 1372),
}


@pytest.mark.parametrize("name", sorted(LAZY_SPECS))
def test_tower_commands_derive_no_graph(workdir, capsys, monkeypatch, name):
    spec, target, top_vertices = LAZY_SPECS[name]
    (workdir / "lazy.json").write_text(json.dumps({"base": "k4.json", **spec}))
    (workdir / "lazy_v.json").write_text(json.dumps(target))

    def refuse(parent, volt):
        raise AssertionError("a tower command derived a level graph")

    monkeypatch.setattr(covers, "derived_graph", refuse)
    spec_arg = ["--spec", str(workdir / "lazy.json")]
    for target_arg in ("constant:1", "torus:lazy_v.json"):
        argv = ["tower", "run", *spec_arg, "--target", target_arg,
                "--grid", "disk:0.2:3:0.02", "--out", str(workdir / "run")]
        assert run(argv) == 0
        top = summary_of(capsys)["levels"][-1]
        assert top["vertices"] == top_vertices
    assert run(["l2", "cdf", *spec_arg, "--out", str(workdir / "cdf")]) == 0
    capsys.readouterr()


def test_tower_commands_derive_only_homology_parents(workdir, capsys, monkeypatch):
    # B2 mod-2 depth 2: only level 2, the parent of the top level, is derived
    sizes = []

    def counting(parent, volt):
        cover = derived_graph(parent, volt)
        sizes.append(cover.vertex_count)
        return cover

    monkeypatch.setattr(covers, "derived_graph", counting)
    spec_arg = ["--spec", str(workdir / "tower_h.json")]
    run_args = ["--target", "constant:1", "--grid", "disk:0.3:3:0.02", "--out", str(workdir / "r")]
    assert run(["tower", "run", *spec_arg, *run_args]) == 0
    assert [lvl["vertices"] for lvl in summary_of(capsys)["levels"]] == [1, 4, 128]
    assert sizes == [4]
    assert run(["l2", "cdf", *spec_arg, "--out", str(workdir / "cdf")]) == 0
    assert sizes == [4, 4]
    assert run(["tower", "build", *spec_arg, "--out", str(workdir / "built")]) == 0
    assert summary_of(capsys)["sizes"] == [1, 4, 128]
    assert sizes == [4, 4, 4, 128]


def test_deitmar_check(workdir, capsys):
    code = run(["deitmar", "check", "--graph", str(workdir / "k4.json")])
    assert code == 0
    doc = summary_of(capsys)
    assert doc["pass"] is True and doc["max_residual"] < 1e-10 and doc["tol"] == 1e-10
    assert run(["deitmar", "check", "--graph", str(workdir / "k4.json"), "--tol", "1e-9"]) == 1
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


def test_exit_codes(workdir, capsys, monkeypatch):
    # missing file: input error
    assert run(["zeta", "compute", "--graph", str(workdir / "nope.json")]) == 1
    # malformed grid grammar
    assert (
        run(
            [
                "tower",
                "run",
                "--spec",
                str(workdir / "tower.json"),
                "--target",
                "constant:1",
                "--grid",
                "square:3",
                "--out",
                str(workdir / "x"),
            ]
        )
        == 1
    )
    # unknown subcommand, and a missing one at either level
    assert run(["zeta", "frobnicate"]) == 1
    capsys.readouterr()
    for argv in ([], ["zeta"], ["tower"]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        prog = " ".join(["graphzeta", *argv])
        assert out == "" and err.startswith(f"error: {prog}: the following arguments are required"), err
    # resource exhaustion: exit 2. A tower level graph over the vertex cap is
    # refused before anything is written, for homology and cyclic towers alike
    for spec, cap, size in (("tower_h.json", 50, 128), ("tower.json", 2, 4)):
        with monkeypatch.context() as m:
            m.setattr(graphs, "SIZE_CAP", cap)
            argv = ["tower", "build", "--spec", str(workdir / spec), "--out", str(workdir / "tb")]
            assert run(argv) == 2
        assert f"the cover needs {size} vertices, over the cap of {cap}" in capsys.readouterr().err
        assert not (workdir / "tb").exists()
    # the mod-2 homology tower of K4 to depth 2: a 4194304-vertex top level
    (workdir / "k4_mod2.json").write_text(
        json.dumps({"base": "k4.json", "kind": "homology", "p": 2, "depth": 2})
    )
    assert run(["tower", "build", "--spec", str(workdir / "k4_mod2.json"), "--out", str(workdir / "tb")]) == 2
    assert "4194304 vertices, over the cap of 10000" in capsys.readouterr().err
    assert not (workdir / "tb").exists()
    # the cap is no option and no spec field: either is an input error
    spec_h = ["--spec", str(workdir / "tower_h.json")]
    for argv in (
        ["tower", "build", *spec_h, "--out", str(workdir / "tb")],
        ["tower", "run", *spec_h, "--target", "constant:1", "--grid", "disk:0.3:3:0.02",
         "--out", str(workdir / "tb")],
        ["l2", "cdf", *spec_h, "--out", str(workdir / "tb")],
    ):
        assert run(argv + ["--size-cap", "50"]) == 1
        assert "unrecognized arguments: --size-cap 50" in capsys.readouterr().err
    (workdir / "capped.json").write_text(
        json.dumps({"base": "b2.json", "kind": "homology", "p": 2, "depth": 2, "size_cap": 200})
    )
    assert run(["l2", "cdf", "--spec", str(workdir / "capped.json"), "--out", str(workdir / "tb")]) == 1
    assert "a homology tower spec takes no 'size_cap'" in capsys.readouterr().err
    assert not (workdir / "tb").exists()
    # the Euler product is checked on every coefficient, whatever --terms says,
    # up to ORDER_CAP = 512 oriented edges
    save_graph(complete_graph(5), workdir / "k5.json")
    assert run(["zeta", "euler-check", "--graph", str(workdir / "k5.json"), "--terms", "31"]) == 0
    assert summary_of(capsys)["match"] is True
    save_graph(cycle_graph(257), workdir / "c257.json")
    assert run(["zeta", "euler-check", "--graph", str(workdir / "c257.json")]) == 2
    assert "order at most 512; 257 edges need 514" in capsys.readouterr().err
    # a voltage that is not an integer: input error, not a traceback or a truncation
    for bad in ("a", 1.5):
        (workdir / "bad_v.json").write_text(json.dumps({"voltages": [[bad]], "orders": [2]}))
        argv = ["cover", "build", "--base", str(workdir / "loop.json"),
                "--voltages", str(workdir / "bad_v.json"), "--out", str(workdir / "c.json")]
        assert run(argv) == 1
        assert f"a voltage must be an integer, got {bad!r}" in capsys.readouterr().err
    assert not (workdir / "c.json").exists()
    # covers take finite voltages and L2 limits free ones, whichever command reads them
    (workdir / "vc.json").write_text(json.dumps({"voltages": [1, 0], "orders": [2]}))
    (workdir / "vz.json").write_text(json.dumps({"voltages": [1], "rank": 1}))
    for argv, message in (
        (["cover", "build", "--base", str(workdir / "loop.json"), "--voltages", str(workdir / "vz.json"),
          "--out", str(workdir / "c.json")], "a derived cover needs a finite voltage group"),
        (["l2", "torus", "--base", str(workdir / "b2.json"), "--voltages", str(workdir / "vc.json"),
          "--grid", "disk:0.3:5:0.02", "--out", str(workdir / "c.json")], "need a free abelian"),
        (["tower", "run", "--spec", str(workdir / "tower.json"), "--target", "torus:vc.json",
          "--grid", "disk:0.3:3:0.02", "--out", str(workdir / "c.json")], "need a free abelian"),
    ):
        assert run(argv) == 1
        assert message in capsys.readouterr().err
    assert not (workdir / "c.json").exists()
    # a cyclic tower spec entry that is not an integer: input error naming the field
    for key, value in (("orders", [1, "a"]), ("voltages", ["x"])):
        spec = {"base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2]}
        spec[key] = value
        (workdir / "bad_t.json").write_text(json.dumps(spec))
        argv = ["tower", "build", "--spec", str(workdir / "bad_t.json"), "--out", str(workdir / "bt")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f'tower spec "{key}" must be an integer, got {value[-1]!r}' in err
    # an order of 0 is refused before any voltage is reduced modulo it
    (workdir / "bad_t.json").write_text(
        json.dumps({"base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2, 0]})
    )
    spec_bad = ["--spec", str(workdir / "bad_t.json")]
    for argv in (
        ["tower", "build", *spec_bad, "--out", str(workdir / "bt")],
        ["tower", "run", *spec_bad, "--target", "constant:1", "--grid", "disk:0.3:3:0.02",
         "--out", str(workdir / "bt")],
        ["l2", "cdf", *spec_bad, "--out", str(workdir / "bt")],
    ):
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: cyclic orders must be >= 1\n"
    # a constant target is a finite complex number, read as --eval reads one
    run_bt = ["tower", "run", "--spec", str(workdir / "tower.json"), "--grid", "disk:0.3:3:0.02",
              "--out", str(workdir / "bt")]
    for value in ("nan", "inf", "1+infj", "one"):
        assert run([*run_bt, "--target", f"constant:{value}"]) == 1
        assert repr(value) in capsys.readouterr().err
    assert not (workdir / "bt").exists()
    assert run([*run_bt, "--target", "constant:1 + 0j"]) == 0
    assert summary_of(capsys)["target"] == "constant:1 + 0j"
    # a grid that keeps no point: input error, and no file written
    empty = ["--grid", "disk:0.1:1:0.01"]
    for argv in (
        ["deitmar", "check", "--graph", str(workdir / "k4.json"), *empty],
        ["l2", "torus", "--base", str(workdir / "b2.json"), "--voltages", str(workdir / "v2.json"),
         *empty, "--out", str(workdir / "e" / "values.csv")],
        ["tower", "run", "--spec", str(workdir / "tower.json"), "--target", "constant:1",
         *empty, "--out", str(workdir / "e")],
    ):
        assert run(argv) == 1
        assert "the grid contains no admissible points" in capsys.readouterr().err
    assert not (workdir / "e").exists()
    # an output path that cannot be written: input error naming it
    (workdir / "afile").write_text("")
    for out in (workdir, workdir / "afile" / "zeros.csv"):
        assert run(["zeta", "zeros", "--graph", str(workdir / "k4.json"), "--out", str(out)]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err


def test_grid_output_target_and_grid_text_errors_exit_1(workdir, capsys):
    # a grid needs a CSV to write, a target one of two kinds, a grid numbers
    torus = ["l2", "torus", "--base", str(workdir / "b2.json"), "--voltages", str(workdir / "v2.json")]
    tower = ["tower", "run", "--spec", str(workdir / "tower.json"), "--grid", "disk:0.3:3:0.02",
             "--out", str(workdir / "r")]
    for argv, message in (
        ([*torus, "--grid", "disk:0.3:5:0.02"], "--grid output needs --out <csv>"),
        ([*torus, "--eval", "0.1", "--out", str(workdir / "g.csv")], "--out needs --grid"),
        ([*tower, "--target", "zeta:1"], "unknown target 'zeta:1'"),
        ([*torus, "--grid", "disk:x:3:0.05", "--out", str(workdir / "g.csv")], "malformed grid 'disk:x:3:0.05'"),
    ):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
    assert not (workdir / "r").exists() and not (workdir / "g.csv").exists()


def test_level_over_the_node_budget_exits_2(workdir, capsys, monkeypatch):
    # a level's spectrum holds one eigenvalue per parent vertex and character
    (workdir / "huge.json").write_text(
        json.dumps({"base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2**23]})
    )
    run_args = ["--target", "constant:1", "--grid", "disk:0.3:3:0.02", "--out", str(workdir / "r")]
    assert run(["tower", "run", "--spec", str(workdir / "huge.json"), *run_args]) == 2
    err = capsys.readouterr().err
    assert ("the level of index 8388608 has 8388608 eigenvalues (8388608 characters of a "
            "1-vertex parent), over the node budget of 4194304") in err
    # a large base with a small order: 1025 x 4096 eigenvalues
    save_graph(cycle_graph(1025), workdir / "c1025.json")
    (workdir / "wide.json").write_text(
        json.dumps({"base": "c1025.json", "kind": "cyclic",
                    "voltages": [1] + [0] * 1024, "orders": [1, 4096]})
    )
    for argv in (["tower", "run", "--spec", str(workdir / "wide.json"), *run_args],
                 ["l2", "cdf", "--spec", str(workdir / "wide.json"), "--out", str(workdir / "c")]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert ("the level of index 4096 has 4198400 eigenvalues (4096 characters of a "
                "1025-vertex parent), over the node budget of 4194304") in err
    # the top level of B2 mod-2 depth 2 has index 128: 2^5 characters of a 4-vertex parent
    monkeypatch.setattr(l2, "NODE_BUDGET", 16)
    spec = ["--spec", str(workdir / "tower_h.json")]
    for argv in (["tower", "run", *spec, *run_args], ["l2", "cdf", *spec, "--out", str(workdir / "c")]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert ("the level of index 128 has 128 eigenvalues (32 characters of a 4-vertex parent), "
                "over the node budget of 16") in err
    assert not (workdir / "r").exists()
    assert not (workdir / "c").exists()
    # a homology prime over the budget is refused before it is tested for primality
    (workdir / "mersenne.json").write_text(
        json.dumps({"base": "k4.json", "kind": "homology", "p": 2**61 - 1, "depth": 1})
    )
    spec = ["--spec", str(workdir / "mersenne.json")]
    for argv in (["tower", "run", *spec, *run_args], ["tower", "build", *spec, "--out", str(workdir / "c")],
                 ["l2", "cdf", *spec, "--out", str(workdir / "c")]):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "p = 2305843009213693951 is over the node budget of 4194304" in capsys.readouterr().err
    assert not (workdir / "r").exists()
    assert not (workdir / "c").exists()


def refused_quickly(argv, code, capsys) -> str:
    """Runs argv, asserts its exit code within 1 s, and returns its one-line error."""
    start = time.perf_counter()
    assert run(argv) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_euler_check_terms_are_bounded_before_any_work(workdir, capsys):
    # --terms is accepted and ignored, so no value of it is work: C3, K4 and a
    # graph with no edges are checked whole; the order of T is what is bounded
    save_graph(cycle_graph(3), workdir / "c3.json")
    save_graph(path_graph(1), workdir / "dot.json")
    for name in ("c3.json", "k4.json", "dot.json"):
        argv = ["zeta", "euler-check", "--graph", str(workdir / name), "--terms", "1000000000000"]
        assert run(argv) == 0
        doc = summary_of(capsys)
        assert doc["match"] is True and "terms" not in doc
    save_graph(cycle_graph(257), workdir / "c257.json")
    err = refused_quickly(["zeta", "euler-check", "--graph", str(workdir / "c257.json")], 2, capsys)
    assert "257 edges need 514" in err


def _mutated_charpoly(monkeypatch, order, index):
    """zeta._charpoly with coefficient `index` of x^index raised by 1 on
    matrices of the given order, and the det_poly memo emptied around it."""
    charpoly = zeta._charpoly

    def mutated(mat, bound):
        coeffs = charpoly(mat, bound)
        if mat.shape[0] == order:
            coeffs[index] += 1
        return coeffs

    monkeypatch.setattr(zeta, "_charpoly", mutated)
    _det_poly.cache_clear()


def test_euler_check_catches_a_wrong_det_poly(workdir, capsys, monkeypatch):
    # det(A) + 1 on a 64-vertex cubic graph moves det_poly's u^64 coefficient: the
    # functional equation holds for it by construction, the Euler product does not
    save_graph(random_regular(64, 3, 1), workdir / "cubic64.json")
    graph = ["--graph", str(workdir / "cubic64.json")]
    _mutated_charpoly(monkeypatch, 64, 0)
    try:
        assert run(["zeta", "euler-check", *graph, "--terms", "12"]) == 2
        doc = summary_of(capsys)
        assert doc["match"] is False and doc["first_mismatch"] == 64
        assert run(["zeta", "functional-check", *graph]) == 0
        assert summary_of(capsys)["pass"] is True
        # one coefficient of chi_A + 1 on K4
        _mutated_charpoly(monkeypatch, 4, 1)
        assert run(["zeta", "euler-check", "--graph", str(workdir / "k4.json")]) == 2
        assert summary_of(capsys)["match"] is False
    finally:
        _det_poly.cache_clear()


def test_homology_depth_is_bounded(workdir, capsys):
    # a tree's steps have rank 0 and repeat the level below, so only the bound ends them
    save_graph(path_graph(3), workdir / "p3.json")
    (workdir / "deep.json").write_text(
        json.dumps({"base": "p3.json", "kind": "homology", "p": 3, "depth": 10**9})
    )
    spec, out = ["--spec", str(workdir / "deep.json")], ["--out", str(workdir / "d")]
    for argv in (["tower", "build", *spec, *out],
                 ["tower", "run", *spec, "--target", "constant:1", "--grid", "disk:0.3:3:0.02", *out],
                 ["l2", "cdf", *spec, *out]):
        err = refused_quickly(argv, 2, capsys)
        assert "depth 1000000000 is over 22 = log2 of the node budget 4194304" in err
    assert not (workdir / "d").exists()


def test_torus_target_is_read_beside_the_spec(workdir, capsys, monkeypatch):
    # a relative target path resolves against the spec's directory, as its base does
    specdir = workdir / "specdir"
    specdir.mkdir()
    save_graph(cycle_graph(1), specdir / "loop.json")
    (specdir / "tower.json").write_text(
        json.dumps({"base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2]})
    )
    (workdir / "vz.json").write_text(json.dumps({"voltages": [1], "rank": 1}))
    monkeypatch.chdir(workdir)
    argv = ["tower", "run", "--spec", "specdir/tower.json", "--target", "torus:vz.json",
            "--grid", "disk:0.3:3:0.02", "--out", "r"]
    err = refused_quickly(argv, 1, capsys)
    assert f"cannot read voltage file {Path('specdir') / 'vz.json'}" in err
    assert not (workdir / "r").exists()
    (workdir / "vz.json").rename(specdir / "vz.json")
    assert run(argv) == 0
    assert str(Path("specdir") / "vz.json") in summary_of(capsys)["inputs"]
    # an absolute target path is read as it is
    absolute = str((specdir / "vz.json").resolve())
    argv[argv.index("torus:vz.json")] = f"torus:{absolute}"
    assert run(argv) == 0
    assert absolute in summary_of(capsys)["inputs"]


def test_l2_torus_checks_every_argument_before_it_evaluates(workdir, capsys, monkeypatch):
    # every argument is checked before the rank-3 cover of K4 is evaluated
    (workdir / "v3.json").write_text(
        json.dumps({"voltages": [[0, 0, 0]] * 3 + [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "rank": 3})
    )
    monkeypatch.setattr(cli, "l2_zeta_abelian", lambda *args: pytest.fail("evaluated"))
    argv = ["l2", "torus", "--base", str(workdir / "k4.json"), "--voltages", str(workdir / "v3.json"),
            "--eval", "0.47+0.02j"]
    assert "l2 torus needs --eval or --grid" in refused_quickly(argv[:-2], 1, capsys)
    err = refused_quickly([*argv, "--grid", "disk:0.3:3:0.02"], 1, capsys)
    assert "--grid output needs --out <csv>" in err
    assert "--out needs --grid" in refused_quickly([*argv, "--out", str(workdir / "v.csv")], 1, capsys)
    err = refused_quickly([*argv, "--grid", "disk:oops", "--out", str(workdir / "v.csv")], 1, capsys)
    assert "grid must look like disk:<radius>:<resolution>:<margin>, got 'disk:oops'" in err
    assert not (workdir / "v.csv").exists()


def test_dense_spectrum_vertex_cap(workdir, capsys, monkeypatch):
    # a graph file over the cap is refused as it loads, before any dense matrix
    save_graph(cycle_graph(graphs.SIZE_CAP + 1), workdir / "c10001.json")
    argv = ["zeta", "zeros", "--graph", str(workdir / "c10001.json"), "--out", str(workdir / "z.csv")]
    assert run(argv) == 2
    assert "a graph file needs 10001 vertices, over the cap of 10000" in capsys.readouterr().err
    assert not (workdir / "z.csv").exists()
    # graphs built in memory meet the cap at the dense solvers: the spectrum,
    # and the symbol of a level's parent
    with pytest.raises(errors.ResourceError, match="a dense spectrum of C10001 needs 10001 vertices"):
        graphs.spectrum(cycle_graph(graphs.SIZE_CAP + 1))
    level = covers.lattice_tower(K4, [(1,)] + [(0,)] * 5, (1, 2)).levels[-1]
    monkeypatch.setattr(graphs, "SIZE_CAP", 3)
    with pytest.raises(errors.ResourceError, match="a dense symbol eigensolve needs 4 vertices, over the cap of 3"):
        l2.level_cdf(level)


FILE_ARGUMENTS = {  # every file a command reads, as "bad.json" with the others valid
    "zeta compute": ["zeta", "compute", "--graph", "bad.json", "--emit", "out/poly.json"],
    "zeta zeros": ["zeta", "zeros", "--graph", "bad.json", "--out", "out/zeros.csv"],
    "zeta euler-check": ["zeta", "euler-check", "--graph", "bad.json"],
    "zeta functional-check": ["zeta", "functional-check", "--graph", "bad.json"],
    "deitmar check": ["deitmar", "check", "--graph", "bad.json"],
    "cover build base": ["cover", "build", "--base", "bad.json", "--voltages", "vc.json",
                         "--out", "out/cover.json"],
    "cover build voltages": ["cover", "build", "--base", "loop.json", "--voltages", "bad.json",
                             "--out", "out/cover.json"],
    "l2 torus base": ["l2", "torus", "--base", "bad.json", "--voltages", "v2.json",
                      "--grid", "disk:0.3:5:0.02", "--out", "out/values.csv"],
    "l2 torus voltages": ["l2", "torus", "--base", "b2.json", "--voltages", "bad.json",
                          "--grid", "disk:0.3:5:0.02", "--out", "out/values.csv"],
    "tower build spec": ["tower", "build", "--spec", "bad.json", "--out", "out"],
    "tower build spec base": ["tower", "build", "--spec", "tower_bad.json", "--out", "out"],
    "tower run spec": ["tower", "run", "--spec", "bad.json", "--target", "constant:1",
                       "--grid", "disk:0.3:3:0.02", "--out", "out"],
    "tower run spec base": ["tower", "run", "--spec", "tower_bad.json", "--target", "constant:1",
                            "--grid", "disk:0.3:3:0.02", "--out", "out"],
    "tower run target": ["tower", "run", "--spec", "tower.json", "--target", "torus:bad.json",
                         "--grid", "disk:0.3:3:0.02", "--out", "out"],
    "l2 cdf spec": ["l2", "cdf", "--spec", "bad.json", "--out", "out"],
    "l2 cdf spec base": ["l2", "cdf", "--spec", "tower_bad.json", "--out", "out"],
}


@pytest.mark.parametrize("command", sorted(FILE_ARGUMENTS))
def test_file_that_is_not_an_object_exits_1(workdir, capsys, monkeypatch, command):
    (workdir / "vc.json").write_text(json.dumps({"voltages": [1], "orders": [2]}))
    (workdir / "tower_bad.json").write_text(
        json.dumps({"base": "bad.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2]})
    )
    monkeypatch.chdir(workdir)
    for doc in (5, None, [], "x"):
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert run(FILE_ARGUMENTS[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (workdir / "out").exists()


OVERSIZED_COMMANDS = {  # a 10^11-vertex graph file as every graph argument
    "zeta compute": ["zeta", "compute", "--graph", "big.json"],
    "zeta zeros": ["zeta", "zeros", "--graph", "big.json", "--out", "out/zeros.csv"],
    "l2 torus": ["l2", "torus", "--base", "big.json", "--voltages", "vbig.json", "--eval", "0.1"],
    "deitmar check": ["deitmar", "check", "--graph", "big.json"],
    "tower build": ["tower", "build", "--spec", "tower_big.json", "--out", "out"],
}


@pytest.mark.parametrize("command", sorted(OVERSIZED_COMMANDS))
def test_oversized_graph_file_exits_2(workdir, capsys, monkeypatch, command):
    (workdir / "big.json").write_text(json.dumps({"vertices": 100000000000, "edges": []}))
    (workdir / "vbig.json").write_text(json.dumps({"voltages": [], "rank": 1}))
    (workdir / "tower_big.json").write_text(
        json.dumps({"base": "big.json", "kind": "cyclic", "voltages": [], "orders": [1]})
    )
    monkeypatch.chdir(workdir)
    assert run(OVERSIZED_COMMANDS[command]) == 2
    err = capsys.readouterr().err
    assert err == "error: a graph file needs 100000000000 vertices, over the cap of 10000\n"
    assert not (workdir / "out").exists()


IRREGULAR_COMMANDS = {
    "zeta zeros": ["zeta", "zeros", "--graph", "p3.json", "--out", "zeros.csv"],
    "zeta functional-check": ["zeta", "functional-check", "--graph", "p3.json"],
    "l2 torus": ["l2", "torus", "--base", "p3.json", "--voltages", "vp3.json", "--eval", "0.1"],
    "tower run": ["tower", "run", "--spec", "tower_p3.json", "--target", "constant:1",
                  "--grid", "disk:0.5:5:0.02", "--out", "run"],
    "deitmar check": ["deitmar", "check", "--graph", "p3.json"],
}


@pytest.mark.parametrize("command", sorted(IRREGULAR_COMMANDS))
def test_irregular_graph_exits_1(workdir, capsys, monkeypatch, command):
    save_graph(path_graph(3), workdir / "p3.json")
    (workdir / "vp3.json").write_text(json.dumps({"voltages": [1, 0], "rank": 1}))
    (workdir / "tower_p3.json").write_text(
        json.dumps({"base": "p3.json", "kind": "cyclic", "voltages": [1, 0], "orders": [1, 2]})
    )
    monkeypatch.chdir(workdir)
    assert run(IRREGULAR_COMMANDS[command]) == 1
    assert "is not (q+1)-regular with q >= 1" in capsys.readouterr().err


def test_exit_codes_match_the_errors_docstring(capsys, monkeypatch):
    table = dict(re.findall(r"^ +(\w+Error) +(\d)$", errors.__doc__, re.M))
    base = errors.GraphZetaError
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, base)]
    assert table == {c.__name__: str(c.exit_code) for c in classes}
    for cls in classes:

        def fail(path, cls=cls):
            raise cls("raised on purpose")

        monkeypatch.setattr(cli, "load_graph", fail)
        assert run(["zeta", "compute", "--graph", "g.json"]) == cls.exit_code
        assert "raised on purpose" in capsys.readouterr().err


def test_one_parser_serves_every_run_in_a_process(workdir, capsys):
    # an option set in one run is absent from the next, and a bad flag is an
    # input error, exactly as with a parser built afresh for each run
    k4 = str(workdir / "k4.json")
    runs = [
        ["zeta", "compute", "--graph", k4, "--eval", "0.1", "--emit", str(workdir / "p.json")],
        ["zeta", "compute", "--graph", k4],
        ["zeta", "euler-check", "--graph", k4, "--terms", "5"],
        ["zeta", "compute", "--graph", k4, "--bogus"],
        ["l2", "torus", "--base", str(workdir / "b2.json"), "--voltages", str(workdir / "v2.json"),
         "--eval", "0.1"],
        ["zeta", "compute", "--graph", k4],
    ]

    def outcomes(fresh):
        seen = []
        for argv in runs:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            out, err = capsys.readouterr()
            seen.append((code, out, err))
        return seen

    shared = outcomes(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert shared == outcomes(fresh=True)
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0, 0]
    assert "eval" in json.loads(shared[0][1]) and "eval" not in json.loads(shared[1][1])
    assert "unrecognized arguments: --bogus" in shared[3][2]


def test_console_script_runs(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "graphzeta.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "zeta" in proc.stdout


def test_help_exits_zero():
    assert run(["--help"]) == 0
    assert run(["zeta", "--help"]) == 0
    assert run(["tower", "--help"]) == 0
