import json

import numpy as np
import pytest

from graphzeta import (
    GridSpec,
    InputError,
    UnsupportedError,
    VoltageAssignment,
    cdf_convergence,
    convergence,
    cyclic_tower,
    deitmar_residual,
    empirical_cdf,
    homology_tower,
    l2,
    lattice_tower,
    level_spectrum,
    normalized_zeta,
    omega_contains,
    path_graph,
    spectrum,
    torus_l2,
    tower_convergence,
    tree_l2_reference,
    write_convergence_report,
)

from corpus import B2, K4, LOOP, PETERSEN


def test_grid_spec_points():
    grid = GridSpec(q=1, radius=0.5, resolution=5)
    pts = grid.points
    # all points admissible with the default margin
    assert len(pts) > 0
    for u in pts:
        assert abs(u) <= 0.5 + 1e-12
        assert omega_contains(1, u, grid.margin * 0.999)
    # row-major and deterministic
    assert pts == GridSpec(q=1, radius=0.5, resolution=5).points


def test_grid_spec_validation():
    with pytest.raises(InputError):
        GridSpec(q=0, radius=0.5, resolution=4)
    with pytest.raises(InputError):
        GridSpec(q=1, radius=1.5, resolution=4)  # radius reaches the circle
    with pytest.raises(InputError):
        GridSpec(q=1, radius=0.5, resolution=0)
    with pytest.raises(InputError):
        GridSpec(q=1, radius=0.5, resolution=4, margin=-0.1)


def test_cyclic_tower_converges_to_tree_reference():
    tower = cyclic_tower(LOOP, (1,), (1, 2, 4, 8, 16))
    grid = GridSpec(q=1, radius=0.5, resolution=9)
    report = tower_convergence(tower, tree_l2_reference(), grid)
    errs = report.sup_errors
    assert len(errs) == 5
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-5
    assert report.limit_verified
    # the worst point is recorded and is on the grid
    assert report.levels[0].argmax in grid.points


def test_lattice_tower_converges_to_torus_target():
    tower = lattice_tower(B2, ((1, 0), (0, 1)), (1, 2, 4, 8))
    grid = GridSpec(q=3, radius=0.2, resolution=7, margin=0.03)
    report = tower_convergence(tower, torus_l2(B2, VoltageAssignment.free(((1, 0), (0, 1)))), grid)
    errs = report.sup_errors
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05


def test_tower_errors_match_dense_normalized_zeta():
    # the character route against normalized_zeta on each level graph
    shifts = (1, 0, 2, -1, 0, 1)
    torus = torus_l2(K4, VoltageAssignment.free([(s,) for s in shifts]))
    grid = GridSpec(q=2, radius=0.5, resolution=8, margin=0.05)
    cases = (
        (cyclic_tower(K4, shifts, (1, 2, 4, 8, 16)), torus),
        (homology_tower(K4, 3, 1), tree_l2_reference()),
    )
    for tower, target in cases:
        report = tower_convergence(tower, target, grid)
        target_values = target.evaluate(grid.array)
        for level, row in zip(tower.levels, report.levels):
            dense = normalized_zeta(level.graph, level.index, K4.euler_characteristic, grid.array)
            assert np.max(np.abs(row.errors - np.abs(dense - target_values))) < 1e-12


def test_tower_convergence_validates_grid():
    tower = cyclic_tower(LOOP, (1,), (1, 2))
    with pytest.raises(InputError):
        tower_convergence(tower, tree_l2_reference(), GridSpec(q=2, radius=0.3, resolution=5))


def test_cdf_convergence_to_arcsine():
    # eigenvalue distribution of big cycles approaches the arcsine law
    tower = cyclic_tower(LOOP, (1,), (1, 2, 10, 50, 200))

    def arcsine(lams):
        lams = np.clip(np.asarray(lams, dtype=float), -2.0, 2.0)
        return 0.5 + np.arcsin(lams / 2.0) / np.pi

    lambdas = np.linspace(-1.93, 1.93, 41) + 0.003
    sups = cdf_convergence(tower, arcsine, lambdas)
    assert sups[-1] < 0.02
    assert sups[-1] < sups[0]


def test_cdf_convergence_accepts_spectral_cdf_target():
    tower = cyclic_tower(LOOP, (1,), (1, 2, 4))
    target = empirical_cdf(spectrum(tower.levels[-1].graph).eigenvalues, 4)
    sups = cdf_convergence(tower, target, np.linspace(-1.9, 1.9, 21))
    assert sups[-1] == pytest.approx(0.0, abs=1e-12)


def test_tower_errors_do_not_depend_on_log_chunk(monkeypatch):
    # each point's error is the same alone or with the whole grid, whatever the chunk
    shifts = (1, 0, 2, -1, 0, 1)
    tower = cyclic_tower(K4, shifts, (1, 2, 4, 8, 16))
    target = torus_l2(K4, VoltageAssignment.free([(s,) for s in shifts]))
    grid = GridSpec(q=2, radius=0.5, resolution=6, margin=0.05)
    alone = []
    for u in grid.points:
        one = GridSpec(q=2, radius=0.5, resolution=6, margin=0.05)
        one.__dict__["points"] = (u,)  # the cached point list, cut to u
        alone.append([row.errors[0] for row in tower_convergence(tower, target, one).levels])
    for chunk in (1, 7, 2**18):
        monkeypatch.setattr(l2, "LOG_CHUNK", chunk)
        report = tower_convergence(tower, target, grid)
        assert np.array([row.errors for row in report.levels]).T.tolist() == alone


def test_tower_and_cdf_convergence_never_build_a_level_spectrum(monkeypatch):
    # counts are integers, so streamed CDFs equal the sorted-spectrum ones exactly
    tower = homology_tower(B2, 2, 2)
    lambdas = np.linspace(-4.1, 4.1, 37) + 0.001
    target = empirical_cdf(np.linspace(-4.0, 4.0, 17), 17)
    expected = []
    for level in tower.levels:
        sorted_cdf = empirical_cdf(level_spectrum(level), level.index)
        expected.append(float(np.max(np.abs(sorted_cdf(lambdas) - target(lambdas)))))

    def refuse(level):
        raise AssertionError("a level spectrum was built")

    for module in (l2, convergence):
        monkeypatch.setattr(module, "level_spectrum", refuse, raising=False)
    assert cdf_convergence(tower, target, lambdas) == expected
    report = tower_convergence(tower, tree_l2_reference(), GridSpec(q=3, radius=0.4, resolution=5))
    assert len(report.levels) == 3


def test_deitmar_residual_small_on_regular_graphs():
    rng = np.random.default_rng(5)
    for g, q in [(K4, 2), (PETERSEN, 2)]:
        pts = []
        while len(pts) < 40:
            u = complex(*rng.uniform(-0.6, 0.6, 2))
            if omega_contains(q, u, margin=0.02):
                pts.append(u)
        res = deitmar_residual(g, np.array(pts))
        assert float(np.max(res)) < 1e-10


def test_deitmar_requirements():
    with pytest.raises(UnsupportedError):
        deitmar_residual(path_graph(3), 0.1)
    with pytest.raises(InputError):
        deitmar_residual(K4.__class__(8, K4.edges + tuple((x + 4, y + 4) for x, y in K4.edges)), 0.1)


def test_write_convergence_report(tmp_path):
    tower = cyclic_tower(LOOP, (1,), (1, 2, 4))
    grid = GridSpec(q=1, radius=0.4, resolution=5)
    report = tower_convergence(tower, tree_l2_reference(), grid)
    paths = write_convergence_report(report, tmp_path)
    names = {p.name for p in paths}
    assert "summary.json" in names
    assert "set_c.csv" in names
    assert {f"errors_N{i}.csv" for i in (1, 2, 4)} <= names
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["target"] == "constant 1 (regular tree cover)"
    assert [lvl["index"] for lvl in doc["levels"]] == [1, 2, 4]
    # csv has one row per grid point plus a header
    body = (tmp_path / "errors_N1.csv").read_text().strip().splitlines()
    assert body[0] == "re,im,abs_error"
    assert len(body) == 1 + len(grid.points)
    # deterministic rerun produces identical bytes
    first = {p.name: p.read_bytes() for p in paths}
    for p in write_convergence_report(report, tmp_path):
        assert first[p.name] == p.read_bytes()


def test_unverified_limit_is_flagged():
    tower = cyclic_tower(LOOP, (1,), (1, 2, 2))  # repeated level, limit not certified
    grid = GridSpec(q=1, radius=0.3, resolution=4)
    report = tower_convergence(tower, tree_l2_reference(), grid)
    assert not report.limit_verified
    assert report.summary_dict()["flags"] == ["limit target unverified"]
