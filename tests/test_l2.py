"""Torus symbols, quadrature, and the series oracle.

Independent oracles: central binomial closed-walk counts on the integer
lattices, a dense theta-grid evaluation of the log-determinant, and the
counting definition of the spectral distribution.
"""

import math

import numpy as np
import pytest

from graphzeta import (
    DomainError,
    GridSpec,
    InputError,
    ResourceError,
    UnsupportedError,
    VoltageAssignment,
    TowerLevel,
    bouquet_graph,
    covers,
    cycle_graph,
    cyclic_tower,
    derived_graph,
    empirical_cdf,
    equivariant_walk_counts,
    l2,
    l2_log_det,
    l2_series_oracle,
    l2_zeta_abelian,
    homology_tower,
    lattice_tower,
    level_spectrum,
    path_graph,
    spectrum,
    symbol_spectral_cdf,
    torus_l2,
    torus_symbol,
    tower_convergence,
    tree_l2_reference,
)

from corpus import B2, K4, LOOP, PETERSEN

VZ = VoltageAssignment.free(((1,),), rank=1)
VZ2 = VoltageAssignment.free(((1, 0), (0, 1)), rank=2)


def test_symbol_of_the_loop_is_two_cos():
    sym = torus_symbol(LOOP, VZ)
    thetas = np.array([[0.0], [np.pi / 3], [np.pi / 2]])
    mats = sym.matrices(thetas)
    assert mats.shape == (3, 1, 1)
    assert np.allclose(mats[:, 0, 0], 2.0 * np.cos(thetas[:, 0]))


def test_symbol_at_zero_is_adjacency():
    for base, volt in [(LOOP, VZ), (B2, VZ2)]:
        sym = torus_symbol(base, volt)
        assert np.allclose(sym.matrices(np.zeros(volt.rank))[0], base.adjacency)


def test_symbol_is_hermitian():
    sym = torus_symbol(B2, VZ2)
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-np.pi, np.pi, (5, 2)):
        m = sym.matrices(theta)[0]
        assert np.allclose(m, m.conj().T)


def test_symbol_requires_free_voltages():
    with pytest.raises(InputError):
        torus_symbol(LOOP, VoltageAssignment.cyclic((1,), 5))


def test_walk_counts_z():
    # closed walks on Z with steps +-1: W_{2m} = C(2m, m), odd counts vanish
    counts = equivariant_walk_counts(torus_symbol(LOOP, VZ), 8)
    expected = [math.comb(m, m // 2) if m % 2 == 0 else 0 for m in range(9)]
    assert counts == expected
    assert counts[2] == 2 and counts[4] == 6


def test_walk_counts_z2():
    # Z^2 with 4 unit steps: W_{2m} = C(2m, m)^2
    counts = equivariant_walk_counts(torus_symbol(B2, VZ2), 6)
    expected = [
        math.comb(m, m // 2) ** 2 if m % 2 == 0 else 0 for m in range(7)
    ]
    assert counts == expected
    assert counts[2] == 4 and counts[4] == 36


def test_tree_cover_log_det_vanishes():
    # the loop unrolls to the 2-regular tree (the line); q = 1 makes the
    # normalized log-determinant vanish identically on the region
    sym = torus_symbol(LOOP, VZ)
    for u in (0.5, -0.3, 0.2 + 0.4j, 0.6j):
        assert abs(l2_log_det(sym, 1, u)) < 1e-10


def test_quadrature_matches_theta_grid_oracle():
    # dense single-shot grid evaluation, written out longhand
    sym = torus_symbol(B2, VZ2)
    q, u = 3, 0.1 + 0.05j
    m = 257
    thetas = 2.0 * np.pi * np.arange(m) / m
    acc = 0.0 + 0.0j
    for t1 in thetas:
        row = np.empty(m, dtype=complex)
        for k, t2 in enumerate(thetas):
            lam = 2.0 * np.cos(t1) + 2.0 * np.cos(t2)
            row[k] = np.log(1.0 - lam * u + q * u * u)
        acc += row.sum()
    oracle = acc / (m * m)
    assert l2_log_det(sym, q, u) == pytest.approx(oracle, abs=1e-9)


def test_quadrature_matches_series_on_lattices():
    cases = [
        (torus_symbol(LOOP, VZ), 1, [0.1, -0.2, 0.1 + 0.1j, 0.24]),
        (torus_symbol(B2, VZ2), 3, [0.05, -0.06, 0.04 + 0.04j, 0.12]),
    ]
    for sym, q, us in cases:
        # one call for all points gives what one call per point gives
        batch = l2_series_oracle(sym, q, np.array(us))
        for u, value in zip(us, batch):
            series = l2_series_oracle(sym, q, u)
            assert type(series) is complex and series == value
            quad = l2_log_det(sym, q, u)
            assert quad == pytest.approx(series, abs=1e-8), (q, u)


def test_series_oracle_enforces_small_u():
    sym = torus_symbol(B2, VZ2)
    with pytest.raises(DomainError):
        l2_series_oracle(sym, 3, 0.2)  # needs |u| < 1/8


def test_quadrature_domain_gating():
    sym = torus_symbol(B2, VZ2)
    with pytest.raises(DomainError):
        l2_log_det(sym, 3, 0.5)  # on the slit [1/3, 1]
    with pytest.raises(DomainError):
        l2_log_det(sym, 3, 3.0 ** -0.5)  # on the circle
    with pytest.raises(InputError):
        l2_log_det(sym, 0, 0.1)


def test_l2_zeta_values():
    # rank-1 tree cover: Z = (1 - u^2)^(-chi) = 1 for chi = 0
    assert l2_zeta_abelian(LOOP, VZ, 0.3) == pytest.approx(1.0)
    # bouquet over Z^2: compare against the series route end to end
    u = 0.05
    sym = torus_symbol(B2, VZ2)
    expected = (1.0 - u * u) ** 1 * np.exp(l2_series_oracle(sym, 3, u))
    assert l2_zeta_abelian(B2, VZ2, u) == pytest.approx(expected, abs=1e-10)


def test_l2_zeta_requires_regular_base():
    with pytest.raises(UnsupportedError):
        l2_zeta_abelian(path_graph(3), VoltageAssignment.free(((1,), (0,))), 0.1)


def test_torus_l2_wrapper():
    target = torus_l2(B2, VZ2)
    assert target.description == "torus quadrature, rank 2"
    u = 0.1j
    assert target(u) == pytest.approx(l2_zeta_abelian(B2, VZ2, u))
    with pytest.raises(UnsupportedError):  # the base is checked when evaluated
        torus_l2(path_graph(3), VoltageAssignment.free(((1,), (0,))))(0.1)


def test_tree_reference():
    ref = tree_l2_reference()
    assert ref(0.4) == 1.0 and ref(0.9j) == 1.0
    assert ref.description == "constant 1 (regular tree cover)"


def test_empirical_cdf_counting():
    s = spectrum(cycle_graph(4))  # eigenvalues -2, 0, 0, 2
    cdf = empirical_cdf(s.eigenvalues, 4)
    # query between jumps; the jumps themselves carry eigensolver noise
    assert cdf(-3.0) == 0.0
    assert cdf(-1.0) == pytest.approx(0.25)
    assert cdf(1.0) == pytest.approx(0.75)
    assert cdf(2.5) == pytest.approx(1.0)
    assert cdf.mass == pytest.approx(1.0)
    rows = cdf.to_rows()
    assert rows[0][0] == pytest.approx(-2.0)


def test_empirical_cdf_vectorized():
    cdf = empirical_cdf(spectrum(cycle_graph(6)).eigenvalues, 6)
    lam = np.array([-3.0, 0.5, 3.0])
    out = cdf(lam)
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[2] == pytest.approx(1.0)


def test_symbol_cdf_against_counting_oracle():
    # fraction of theta samples with 2 cos(theta) <= lam, counted directly
    sym = torus_symbol(LOOP, VZ)
    lambdas = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    got = symbol_spectral_cdf(sym, lambdas)
    m = 4096
    thetas = 2.0 * np.pi * np.arange(m) / m
    vals = 2.0 * np.cos(thetas)
    oracle = np.array([np.mean(vals <= lam) for lam in lambdas])
    assert np.allclose(got, oracle, atol=1e-12)


def test_symbol_cdf_nodes_fit_the_node_budget(monkeypatch):
    # m per dimension: the largest power of two up to 4096 with m^rank <= 2^22
    seen = []
    monkeypatch.setattr(l2, "_node_eigenvalues", lambda sym, m: seen.append(m) or iter(()))
    for rank in (1, 2, 3):
        symbol_spectral_cdf(torus_symbol(LOOP, VoltageAssignment.free([(1,) * rank])), [0.0])
    assert seen == [4096, 2048, 128]


def test_rank3_symbol_cdf_against_a_dense_cover(monkeypatch):
    # with room for 4^3 nodes the CDF counts the eigenvalues of the (Z/4)^3 cover of K4
    volt = VoltageAssignment.free(((0, 0, 0),) * 3 + ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    monkeypatch.setattr(l2, "NODE_BUDGET", 100)
    lambdas = np.linspace(-3.3, 3.3, 23) + 0.0123
    got = symbol_spectral_cdf(torus_symbol(K4, volt), lambdas)
    eigs = np.linalg.eigvalsh(derived_graph(K4, volt.reduced((4, 4, 4))).adjacency)
    oracle = np.array([np.count_nonzero(eigs <= lam) for lam in lambdas]) / 4**3
    assert np.allclose(got, oracle, atol=1e-12)
    assert got[-1] == 4.0


def test_quadrature_node_budget_raises(monkeypatch):
    # 0.01 converges at 32^2 nodes, the point near the slit needs more
    sym = torus_symbol(B2, VZ2)
    monkeypatch.setattr(l2, "NODE_BUDGET", 32**2)
    with pytest.raises(ResourceError, match=r"u = \(0\.4\+0\.01j\).*64\^2"):
        l2_log_det(sym, 3, np.array([0.01, 0.4 + 0.01j]))


def test_chunked_log_sum_matches_one_block(monkeypatch):
    # the node eigenvalues of a rank-2 K4 symbol: 16^2 nodes x 4, in 1, 4 or 16 blocks
    sym = torus_symbol(K4, VoltageAssignment.free(K4_RANK2))
    eigs = np.concatenate(list(l2._node_eigenvalues(sym, 16)))
    us = np.array([0.1 + 0.2j, -0.3j, 0.25, 0.05, 0.4 + 0.1j, -0.2 - 0.2j])
    whole = l2._log_sum([eigs], 2, us)
    for parts in (1, 4, 16):
        blocks = np.split(eigs, parts)
        split = l2._log_sum(blocks, 2, us)
        assert np.max(np.abs(split - whole) / np.abs(whole)) < 1e-14
        for chunk in (1, 7, 100, 10**6):  # 1 point per group (2 for 16 parts at 100), then 6
            monkeypatch.setattr(l2, "LOG_CHUNK", chunk)
            assert l2._log_sum(blocks, 2, us).tolist() == split.tolist()
        monkeypatch.undo()


def test_lattice_level_is_the_limit_at_its_nodes():
    # a (Z/n)^k level's normalized log-determinant is the n-node trapezoid value of the
    # limit (voltages in {0, 1}, which reduction mod n leaves as they are)
    voltages = ((1, 0), (0, 1), (0, 0), (1, 1), (0, 0), (1, 0))
    tower = lattice_tower(K4, voltages, (1, 2, 4, 8))
    grid = GridSpec(q=2, radius=0.5, resolution=6, margin=0.05)
    report = tower_convergence(tower, l2.L2Zeta(evaluate=lambda u: 0.0 * u), grid)
    sym, us = torus_symbol(K4, VoltageAssignment.free(voltages)), grid.array
    for level, row in zip(tower.levels, report.levels):
        n = level.voltages.orders[0]
        assert level.index == n**2
        log_dets = l2._grid_log_det(sym, 2, us, n)
        values = (1.0 - us * us) ** (-K4.euler_characteristic) * np.exp(log_dets)
        assert row.errors.tolist() == np.abs(values).tolist()


def test_array_evaluation_matches_scalar_evaluation():
    k4_rank3 = VoltageAssignment.free(((0, 0, 0),) * 3 + ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    cases = [
        (B2, VZ2, np.array([[0.1 + 0.05j, 0.4 + 0.01j], [-0.4 - 0.01j, 0.0]])),
        (K4, k4_rank3, np.array([0.1 + 0.1j, 0.47 + 0.02j])),
    ]
    for base, volt, us in cases:
        values = l2_zeta_abelian(base, volt, us)
        assert values.shape == us.shape
        for u, value in zip(us.ravel(), values.ravel()):
            scalar = l2_zeta_abelian(base, volt, complex(u))
            assert type(scalar) is complex
            assert value == scalar, u


# ---------------------------------------------------------------------------
# level spectra from characters, against dense eigvalsh of the level graph

K4_SHIFTS = (1, 0, 2, -1, 0, 1)
K4_RANK2 = ((1, 0), (0, 1), (0, 0), (1, 1), (0, 0), (2, -1))
PETERSEN_SHIFTS = (1, 0, -1, 2, 0, 0, 1, 1, -2, 0, 1, 0, 0, -1, 1)
LEVEL_TOWERS = {
    "base": lambda: cyclic_tower(PETERSEN, PETERSEN_SHIFTS, (1,)),
    "cyclic K4": lambda: cyclic_tower(K4, K4_SHIFTS, (1, 2, 4, 8, 16, 64)),
    "cyclic Petersen": lambda: cyclic_tower(PETERSEN, PETERSEN_SHIFTS, (1, 3, 6, 12, 24)),
    "rank-2 K4 lattice": lambda: lattice_tower(K4, K4_RANK2, (1, 2, 4, 8, 16)),
    "K4 mod-7 homology": lambda: homology_tower(K4, 7, 1),
    "B2 mod-2 homology": lambda: homology_tower(B2, 2, 2),
    "rank-0 homology step": lambda: homology_tower(path_graph(3), 3, 2),
}


@pytest.mark.parametrize("name", sorted(LEVEL_TOWERS))
def test_level_spectrum_matches_dense_eigvalsh(name):
    tower = LEVEL_TOWERS[name]()
    for level in tower.levels:
        got = level_spectrum(level)
        dense = np.sort(np.linalg.eigvalsh(level.graph.adjacency))
        assert got.shape == dense.shape
        assert not got.flags.writeable
        assert np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - dense)) < 1e-10


def test_level_parents():
    # the top level of the B2 mod-2 tower is a (Z/2)^5 cover of level 2, not of the base
    levels = homology_tower(B2, 2, 2).levels
    assert [lvl.graph.vertex_count for lvl in levels] == [1, 4, 128]
    assert levels[0].parent is B2 and levels[0].voltages.orders == (1,)
    assert levels[1].parent is B2 and levels[1].voltages.orders == (2, 2)
    assert levels[2].parent is levels[1].graph and levels[2].voltages.orders == (2,) * 5
    # a rank-0 step (the level below is a tree) is the trivial cover of it
    tree_levels = homology_tower(path_graph(3), 3, 2).levels
    assert all(lvl.parent is lvl.graph and lvl.voltages.orders == (1,) for lvl in tree_levels)
    assert all(lvl.parent is K4 for lvl in lattice_tower(K4, K4_RANK2, (1, 2, 4)).levels)


def test_million_vertex_level_matches_the_l2_limit(monkeypatch):
    # the (Z/1024)^2 level over B2 has 2^20 vertices; its graph is never built
    def refuse(parent, volt):
        raise AssertionError("a level graph was derived")

    monkeypatch.setattr(covers, "derived_graph", refuse)
    tower = lattice_tower(B2, VZ2.voltages, (1, 1024))
    report = tower_convergence(tower, torus_l2(B2, VZ2), GridSpec(q=3, radius=0.3, resolution=3))
    assert len(report.grid.points) == 5
    assert report.levels[-1].sup_error < 1e-12


def test_level_spectrum_needs_equal_orders():
    volt = VoltageAssignment.product([(1, 1)], (2, 3))
    level = TowerLevel(6, LOOP, volt)
    with pytest.raises(InputError, match="equal cyclic orders"):
        level_spectrum(level)
