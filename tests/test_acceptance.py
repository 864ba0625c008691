"""Acceptance gate: one timed pass/fail line per criterion.

Run `python3 -m pytest tests/test_acceptance.py -v -s` to watch the lines
as they print. Criteria with a stated runtime budget fail when they run
over it.
"""

import time
from contextlib import contextmanager

import numpy as np

from graphzeta import (
    GridSpec,
    VoltageAssignment,
    cdf_convergence,
    deitmar_residual,
    derived_graph,
    det_poly,
    euler_log_coeffs,
    functional_equation_sides,
    homology_tower,
    l2_log_det,
    l2_series_oracle,
    lattice_tower,
    nth_root_det,
    regularity,
    spectrum,
    torus_l2,
    torus_symbol,
    tower_convergence,
    tree_l2_reference,
    zeta_log_coeffs,
    zeta_zeros,
)
from graphzeta.zeta import _linearized_det_poly

from corpus import B2, CYCLES, K4, LOOP, PETERSEN, RANDOM_CUBIC

CORPUS = [CYCLES[n] for n in range(3, 9)] + [K4, PETERSEN, B2] + RANDOM_CUBIC[:3]

VZ = VoltageAssignment.free(((1,),), rank=1)
VZ2 = VoltageAssignment.free(((1, 0), (0, 1)), rank=2)


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"acceptance {num:02d} {name}: FAIL ({elapsed:.2f} s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(
            f"acceptance {num:02d} {name}: FAIL ({elapsed:.2f} s over the {budget:g} s budget)",
            flush=True,
        )
        raise AssertionError(f"{name}: {elapsed:.2f} s exceeds the {budget:g} s budget")
    print(f"acceptance {num:02d} {name}: PASS ({elapsed:.2f} s)", flush=True)


def admissible_grid(q, count):
    """The first `count` points of the deterministic grid for this q."""
    resolution = 13
    while True:
        pts = GridSpec(q=q, radius=0.6 * q**-0.5, resolution=resolution).points
        if len(pts) >= count:
            return np.asarray(pts[:count])
        resolution += 2


def is_bipartite(g):
    color = [None] * g.vertex_count
    adj = [[] for _ in range(g.vertex_count)]
    for x, y in g.edges:
        adj[x].append(y)
        adj[y].append(x)
    for s in range(g.vertex_count):
        if color[s] is not None:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if color[w] is None:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def test_01_cycle_covers_exact():
    with criterion(1, "cycle covers of the loop have zeta (1 - u^n)^2", budget=1.0):
        for n in range(1, 13):
            cover = derived_graph(LOOP, VoltageAssignment.cyclic((1,), n))
            assert cover.euler_characteristic == 0
            expected = [0] * (2 * n + 1)
            expected[0], expected[n], expected[2 * n] = 1, -2, 1
            assert _linearized_det_poly(cover).to_list() == expected
            assert det_poly(cover).to_list() == expected


def test_02_euler_log_matches_determinant_log():
    with criterion(2, "12 Euler log coefficients match the closed form exactly", budget=10.0):
        for g in CORPUS:
            assert euler_log_coeffs(g, 12) == zeta_log_coeffs(g, 12), g.name


def test_03_zeros_on_c():
    with criterion(3, "all zeros lie on the set C", budget=5.0):
        for g in CORPUS:
            report = zeta_zeros(g)
            assert report.max_distance < 1e-8, (g.name, report.max_distance)
        for z in zeta_zeros(K4).zeros:
            if abs(z.value.imag) > 1e-9:
                assert abs(abs(z.value) - 2.0**-0.5) < 1e-10


def test_04_functional_equation():
    with criterion(4, "functional equation residual at 100 random points", budget=5.0):
        rng = np.random.default_rng(2024)
        for g in (K4, PETERSEN):
            q = regularity(g).q
            tested = 0
            while tested < 100:
                u = complex(*rng.uniform(-1.5, 1.5, 2))
                if abs(u) < 0.05 or abs(u * u - 1) < 1e-2 or abs(q * q * u * u - 1) < 1e-2:
                    continue
                lhs, rhs = functional_equation_sides(g, u)
                scale = max(abs(lhs), abs(rhs), 1.0)
                assert abs(lhs - rhs) < 1e-9 * scale, (g.name, u)
                tested += 1


def test_05_analytic_roots():
    with criterion(5, "analytic roots: N-th power identity and loop continuity"):
        for g in CORPUS:
            q = regularity(g).q
            pts = admissible_grid(q, 200)
            direct = det_poly(g)(pts)
            scale = np.maximum(np.abs(direct), 1.0)
            for n in (2, 4, 8):
                powered = nth_root_det(g, n, pts) ** n
                assert np.max(np.abs(powered - direct) / scale) < 1e-9, (g.name, n)
            # continuity along the closed loop of radius 0.99/q: a branch
            # jump would show up as a consecutive ratio far from 1
            m = 131072
            loop = (0.99 / q) * np.exp(2j * np.pi * np.arange(m) / m)
            for n in (2, 4, 8):
                vals = nth_root_det(g, n, loop)
                jumps = np.abs(vals[1:] / vals[:-1] - 1.0)
                worst = max(float(np.max(jumps)), abs(vals[0] / vals[-1] - 1.0))
                assert worst < 0.01, (g.name, n, worst)


def test_06_cycle_tower_converges():
    with criterion(6, "cycle tower converges to the constant target", budget=5.0):
        tower = lattice_tower(LOOP, [(1,)], (1, 2, 4, 8, 16))
        grid = GridSpec(q=1, radius=0.5, resolution=21)
        report = tower_convergence(tower, tree_l2_reference(), grid)
        errs = [lvl.sup_error for lvl in report.levels]
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 1e-5, errs[-1]


def test_07_torus_tower_converges():
    with criterion(7, "discrete torus tower converges to the quadrature target", budget=120.0):
        tower = lattice_tower(B2, ((1, 0), (0, 1)), (1, 2, 4, 8, 16, 32))
        grid = GridSpec(q=3, radius=0.25, resolution=16, margin=0.05)
        report = tower_convergence(tower, torus_l2(B2, VZ2), grid)
        errs = [lvl.sup_error for lvl in report.levels]
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 1e-2, errs[-1]


def test_08_homology_tower_converges():
    with criterion(8, "homology tower heads toward the tree target", budget=60.0):
        tower = homology_tower(B2, 2, 2)
        assert [lvl.graph.vertex_count for lvl in tower.levels] == [1, 4, 128]
        grid = GridSpec(q=3, radius=0.3, resolution=16, margin=0.05)
        report = tower_convergence(tower, tree_l2_reference(), grid)
        errs = [lvl.sup_error for lvl in report.levels]
        assert errs[2] < errs[1], errs


def test_09_cdf_approaches_arcsine():
    with criterion(9, "cycle spectra approach the arcsine law", budget=5.0):
        tower = lattice_tower(LOOP, [(1,)], (1, 2, 10, 50, 200))

        def arcsine(lams):
            lams = np.clip(np.asarray(lams, dtype=float), -2.0, 2.0)
            return 0.5 + np.arcsin(lams / 2.0) / np.pi

        lambdas = np.linspace(-1.94, 1.94, 50) + 0.0037
        sups = cdf_convergence(tower, arcsine, lambdas)
        assert sups[-1] <= 0.05, sups


def test_10_series_matches_quadrature():
    with criterion(10, "walk series agrees with torus quadrature", budget=30.0):
        for base, volt, q in ((LOOP, VZ, 1), (B2, VZ2, 3)):
            sym = torus_symbol(base, volt)
            limit = 1.0 / (2.0 * (q + 1.0))
            rng = np.random.default_rng(q)
            pts = []
            while len(pts) < 20:
                u = complex(*rng.uniform(-limit, limit, 2))
                if 0.05 * limit < abs(u) <= 0.97 * limit:
                    pts.append(u)
            series = l2_series_oracle(sym, q, pts, terms=60)
            quad = l2_log_det(sym, q, pts)
            assert np.max(np.abs(series - quad)) < 1e-8, q
        assert abs(l2_log_det(torus_symbol(LOOP, VZ), 1, 0.5)) < 1e-10


def test_11_determinant_identity():
    with criterion(11, "finite zeta equals the tree-normalized determinant", budget=5.0):
        for g in (K4, PETERSEN):
            pts = admissible_grid(regularity(g).q, 100)
            res = deitmar_residual(g, pts)
            assert float(np.max(res)) < 1e-10, g.name


def test_12_structural_invariants():
    with criterion(12, "structural invariants of the determinant polynomials", budget=10.0):
        for g in CORPUS:
            p = det_poly(g)
            if g.is_connected:
                assert p(1) == 0, g.name
            if is_bipartite(g):
                assert p(-1) == 0, g.name
            else:
                assert p(-1) != 0, g.name
        pairs = [
            (K4, derived_graph(K4, VoltageAssignment.cyclic((1, 2, 0, 1, 1, 0), 4))),
            (LOOP, derived_graph(LOOP, VoltageAssignment.cyclic((1,), 6))),
            (B2, homology_tower(B2, 2, 1).levels[1].graph),
            (CYCLES[3], derived_graph(CYCLES[3], VoltageAssignment.cyclic((0, 0, 1), 3))),
        ]
        for base, cover in pairs:
            base_eigs = np.sort(spectrum(base))
            cover_eigs = list(np.sort(spectrum(cover)))
            # multiset containment: match each base eigenvalue to a
            # distinct cover eigenvalue
            for lam in base_eigs:
                hit = min(range(len(cover_eigs)), key=lambda i: abs(cover_eigs[i] - lam))
                assert abs(cover_eigs[hit] - lam) < 1e-9, (base.name, lam)
                cover_eigs.pop(hit)
            assert det_poly(base).divides(det_poly(cover)), base.name
