"""Torus symbols, quadrature, and the series oracle.

Independent oracles: central binomial closed-walk counts on the integer
lattices, a dictionary walk of every length from each start, a dense
theta-grid evaluation of the log-determinant, and the counting definition
of the spectral distribution.
"""

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from graphzeta import (
    DomainError,
    GridSpec,
    InputError,
    L2Zeta,
    MultiGraph,
    NumericError,
    ResourceError,
    UnsupportedError,
    VoltageAssignment,
    TorusSymbol,
    TowerLevel,
    bouquet_graph,
    complete_graph,
    convergence,
    covers,
    cycle_graph,
    derived_graph,
    equivariant_walk_counts,
    euler_log_coeffs,
    graphs,
    l2,
    l2_log_det,
    l2_series_oracle,
    l2_zeta_abelian,
    homology_tower,
    lattice_tower,
    level_cdf,
    symbol_spectral_cdf,
    torus_l2,
    torus_symbol,
    tower_convergence,
    tree_l2_reference,
    write_convergence_report,
    zeta,
    zeta_log_coeffs,
)

from corpus import B2, K4, LOOP, PETERSEN, path_graph, walk_counts_by_dict

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
        assert np.allclose(sym.matrices(np.zeros((1, volt.rank)))[0], base.adjacency)


def test_symbol_is_hermitian():
    sym = torus_symbol(B2, VZ2)
    rng = np.random.default_rng(3)
    for m in sym.matrices(rng.uniform(-np.pi, np.pi, (5, 2))):
        assert np.allclose(m, m.conj().T)


def test_symbol_requires_free_voltages():
    with pytest.raises(InputError):
        torus_symbol(LOOP, VoltageAssignment.cyclic((1,), 5))


def test_symbol_requires_one_voltage_per_edge():
    with pytest.raises(InputError, match="5 voltages for 6 edges"):
        torus_symbol(K4, VoltageAssignment.free([(1,)] * 5))


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
    for bad in (float("nan"), complex(0.01, float("nan")), float("inf")):
        with pytest.raises(DomainError):
            l2_series_oracle(sym, 3, bad)


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


def test_level_cdf_counting():
    # the index-4 level over the loop is the 4-cycle: eigenvalues -2, 0, 0, 2
    points, values = level_cdf(lattice_tower(LOOP, [(1,)], (1, 4)).levels[-1])
    # the two zeros come out of different character blocks a few ulps apart: one row
    assert len(points) == 3
    assert points.tolist() == pytest.approx([-2.0, 0.0, 2.0], abs=1e-15)
    assert values.tolist() == [0.25, 0.75, 1.0]
    # the mass is the base's vertex count
    points, values = level_cdf(lattice_tower(K4, K4_SHIFTS, (1, 8)).levels[-1])
    assert values[-1] == 4.0
    # Petersen's mod-2 homology cover: 2^6 x 10 eigenvalues, 19 distinct ones
    points, values = level_cdf(homology_tower(PETERSEN, 2, 1).levels[-1])
    assert len(points) == 19 and values[-1] == 10.0


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
    monkeypatch.setattr(graphs, "NODE_BUDGET", 100)
    lambdas = np.linspace(-3.3, 3.3, 23) + 0.0123
    got = symbol_spectral_cdf(torus_symbol(K4, volt), lambdas)
    eigs = np.linalg.eigvalsh(derived_graph(K4, volt.reduced((4, 4, 4))).adjacency)
    oracle = np.array([np.count_nonzero(eigs <= lam) for lam in lambdas]) / 4**3
    assert np.allclose(got, oracle, atol=1e-12)
    assert got[-1] == 4.0


def test_quadrature_node_budget_raises(monkeypatch):
    # B2's Z^2 symbol has degree bound 1 on each axis: m lines of 3 nodes, each
    # charged 2^2 for its companion matrix. 0.01 converges at 32 lines; the point
    # near the slit is named with its next refinement, 64 lines, which never runs
    sym = torus_symbol(B2, VZ2)
    read, node_eigenvalues = [], l2._node_eigenvalues

    def counting(s, m, line=1, weigh=None):
        read.append(m)
        return node_eigenvalues(s, m, line, weigh)

    monkeypatch.setattr(l2, "_node_eigenvalues", counting)
    monkeypatch.setattr(graphs, "NODE_BUDGET", 4 * 32)
    with pytest.raises(ResourceError, match=r"u = \(0\.4\+0\.01j\).*64\^1 lines"):
        l2_log_det(sym, 3, np.array([0.01, 0.4 + 0.01j]))
    assert read == [(16, 3), (32, 3)]


def test_weighed_runs_skip_blocks_with_none_kept():
    # 512^2 lines of 3 nodes come in blocks of 4e6 // 4^2 // 3 lines; keeping
    # only the first line of the third block reads that line alone
    sym = torus_symbol(K4, VoltageAssignment.free(K4_RANK3))
    per_block = 4_000_000 // 16 // 3
    wanted = np.unravel_index(2 * per_block * 3, (512, 512, 3))

    def weigh(first, _):
        return 3 * np.logical_and.reduce([c == w for c, w in zip(first, wanted)])

    (eigs, weights), = l2._node_eigenvalues(sym, (512, 512, 3), 3, weigh)
    assert weights.tolist() == [3] and eigs.size == 3 * 4
    thetas = [2 * np.pi * c / n for c, n in zip(wanted, (512, 512, 3))]
    line = np.array([thetas[:2] + [2 * np.pi * s / 3] for s in range(3)])
    assert np.allclose(eigs, np.linalg.eigvalsh(sym.matrices(line)).ravel(), atol=1e-12)


def test_chunked_log_sum_matches_one_block(monkeypatch):
    # the node eigenvalues of a rank-2 K4 symbol: 16^2 nodes x 4, in 1, 4 or 16 blocks
    sym = torus_symbol(K4, VoltageAssignment.free(K4_RANK2))
    eigs = np.concatenate([run for run, _ in l2._node_eigenvalues(sym, 16)])
    us = np.array([0.1 + 0.2j, -0.3j, 0.25, 0.05, 0.4 + 0.1j, -0.2 - 0.2j])
    whole = l2._log_sum([(eigs, None)], 2, us)
    for parts in (1, 4, 16):
        blocks = [(run, None) for run in np.split(eigs, parts)]
        split = l2._log_sum(blocks, 2, us)
        assert np.max(np.abs(split - whole) / np.abs(whole)) < 1e-14
        for chunk in (1, 7, 100, 10**6):  # 1 point per group (2 for 16 parts at 100), then 6
            monkeypatch.setattr(l2, "LOG_CHUNK", chunk)
            assert l2._log_sum(blocks, 2, us).tolist() == split.tolist()
        monkeypatch.undo()


def node_trapezoid(sym, q, us, m):
    """Periodic trapezoid values of the log-determinant integral at m^k
    nodes, one per point of the 1-d array `us`: the log-sum over the node
    eigenvalues divided by the node count."""
    return l2._log_sum(l2._node_eigenvalues(sym, m), q, us) / m**sym.rank


def test_lattice_level_is_the_limit_at_its_nodes():
    # a (Z/n)^k level's normalized log-determinant is the n-node trapezoid value of the
    # limit (voltages in {0, 1}, which reduction mod n leaves as they are): to the bit
    # for a level read from its characters (n <= 2D + 1 = 3), to rounding from its lines
    voltages = ((1, 0), (0, 1), (0, 0), (1, 1), (0, 0), (1, 0))
    tower = lattice_tower(K4, voltages, (1, 2, 4, 8))
    grid = GridSpec(q=2, radius=0.5, resolution=6, margin=0.05)
    report = tower_convergence(tower, l2.L2Zeta(evaluate=lambda u: 0.0 * u), grid)
    sym, us = torus_symbol(K4, VoltageAssignment.free(voltages)), grid.array
    assert [row.rho_max is None for row in report.levels] == [True, True, False, False]
    for level, row in zip(tower.levels, report.levels):
        n = level.voltages.orders[0]
        assert level.index == n**2
        log_dets = node_trapezoid(sym, 2, us, n)
        values = np.abs((1.0 - us * us) ** (-K4.euler_characteristic) * np.exp(log_dets))
        if row.rho_max is None:
            assert row.errors.tolist() == values.tolist()
        else:
            assert np.max(np.abs(row.errors - values) / values) < 1e-12


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
# the Laurent route: one torus axis in closed form, against the node trapezoid

K4_RANK3 = ((0, 0, 0),) * 3 + ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def degree_bounds(sym):
    return [sum(abs(f[j]) * c for _, _, f, c in sym.terms) // 2 for j in range(sym.rank)]


def test_b2_near_the_slit_matches_the_one_variable_closed_form():
    # the mean over t2 of log(a - b cos t2) is Log((a + sqrt(a^2 - b^2)) / 2),
    # written out longhand; a 4096-node trapezoid in t1 then converges
    q, u, m = 3, 0.55 + 0.05j, 4096
    t1 = 2.0 * np.pi * np.arange(m) / m
    a = 1.0 + q * u * u - 2.0 * u * np.cos(t1)
    b = 2.0 * u
    oracle = np.mean(np.log((a + np.sqrt(a * a - b * b)) / 2.0))
    assert abs(l2_log_det(torus_symbol(B2, VZ2), q, u) - oracle) < 1e-10


def test_k4_rank3_near_the_slit_matches_the_node_trapezoid():
    # 128^3 nodes: the trapezoid has converged far below 1e-12 at this point
    sym = torus_symbol(K4, VoltageAssignment.free(K4_RANK3))
    u = np.array([0.5 + 0.01j])
    assert abs(l2_log_det(sym, 2, u) - node_trapezoid(sym, 2, u, 128))[0] < 1e-12


def test_rank3_limit_reads_lines_not_cubes(monkeypatch):
    # node matrices read, 3 per line: one line of each conjugate pair, 130 of the
    # 16^2 lines, then at m = 32 .. 256 only the 3m^2 / 4 new lines, paired
    # (all m^2 lines of every refinement were 261,888; m^3 nodes to m = 128, 2,396,160)
    read, node_eigenvalues = [], l2._node_eigenvalues

    def counting(sym, m, line=1, weigh=None):
        for run, weights in node_eigenvalues(sym, m, line, weigh):
            read.append(run.size // sym.vertex_count)
            yield run, weights

    monkeypatch.setattr(l2, "_node_eigenvalues", counting)
    l2_log_det(torus_symbol(K4, VoltageAssignment.free(K4_RANK3)), 2, 0.5 + 0.01j)
    assert 0 < sum(read) <= 3 * (130 + sum(3 * m * m // 8 for m in (32, 64, 128, 256))) == 98_310


def test_negated_voltages_swap_the_line_read_of_each_conjugate_pair():
    # the symbol of -s at t is that of s at -t: the line of each pair {j, -j}
    # that the quadrature reads becomes the one it drops
    cases = [(K4, K4_RANK3, 2), (B2, ((1, 0), (0, 1)), 3), (K4, ((0, 0),) * 3 + ((1, 2), (0, 1), (1, 1)), 2)]
    us = np.array([0.5 + 0.01j, 0.3 + 0.2j, -0.2 - 0.3j, 0.3])
    for base, voltages, q in cases:
        value = l2_log_det(torus_symbol(base, VoltageAssignment.free(voltages)), q, us)
        negated = VoltageAssignment.free([[-c for c in s] for s in voltages])
        assert np.max(np.abs(l2_log_det(torus_symbol(base, negated), q, us) / value - 1)) < 1e-14


def test_a_wrong_root_count_names_the_point(monkeypatch):
    # past the region gate, on the slit, a line's roots outside the circle are not D = 1
    monkeypatch.setattr(l2, "require_inside", lambda q, us: None)
    with pytest.raises(NumericError, match=r"u = \(0\.6\+0j\).*does not have 1 roots outside"):
        l2_log_det(torus_symbol(B2, VZ2), 3, np.array([0.1, 0.6]))


def presented(rng, base, voltages):
    """A seeded isomorphic presentation: relabelled vertices, shuffled and
    partly reversed edges, a gauge change and a signed permutation of axes."""
    n, k = base.vertex_count, len(voltages[0])
    perm, axes, signs = rng.permutation(n), rng.permutation(k), rng.choice((-1, 1), k)
    phi = rng.integers(-2, 3, (n, k))
    edges, volts = [], []
    for e in rng.permutation(base.edge_count):
        (x, y), s = base.edges[e], signs * np.asarray(voltages[e])[axes]
        s = s + phi[y] - phi[x]
        if rng.random() < 0.5:
            x, y, s = y, x, -s
        edges.append((int(perm[x]), int(perm[y])))
        volts.append(tuple(int(c) for c in s))
    return MultiGraph(n, tuple(edges)), VoltageAssignment.free(volts, k)


def test_laurent_route_is_invariant_under_presentation():
    # 32^3 nodes have converged at these points; every presentation's tree gauge
    # brings the degree bound down to 1
    us = np.array([0.2 + 0.1j, -0.3 + 0.2j, 0.1j, 0.4 - 0.1j])
    oracle = node_trapezoid(torus_symbol(K4, VoltageAssignment.free(K4_RANK3)), 2, us, 32)
    rng = np.random.default_rng(15)
    for _ in range(4):
        base, volt = presented(rng, K4, K4_RANK3)
        sym = torus_symbol(base, volt)
        assert min(degree_bounds(sym)) == 1
        assert np.max(np.abs(l2_log_det(sym, 2, us) - oracle)) < 1e-12


def test_laurent_route_drops_roots_at_infinity(monkeypatch):
    # both loops of B2 carry 1, which no gauge moves: bound 2, but the symbol is
    # 2 (z + 1/z) of degree 1, so the top and bottom coefficients are dropped and
    # no 4 x 4 companion is solved
    sym = torus_symbol(B2, VoltageAssignment.free(((1,), (1,))))
    assert degree_bounds(sym) == [2]
    sizes, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: sizes.append(a.shape[-1]) or eigvals(a))
    us = np.array([0.1 + 0.1j, 0.3 + 0.05j, 0.0, -0.3 + 0.1j, 0.2])
    assert np.max(np.abs(l2_log_det(sym, 3, us) - node_trapezoid(sym, 3, us, 512))) < 1e-12
    assert sizes and max(sizes) < 4


def test_laurent_route_solves_companions_of_high_degree(monkeypatch):
    # voltage 7 on the loop substitutes 7t for t, which leaves the torus mean as it
    # is: degree bound 7, one companion matrix of order 14 per point
    us = np.array([0.1 + 0.1j, -0.6 + 0.3j, 0.0, 0.8j, 0.9])
    sym = torus_symbol(LOOP, VoltageAssignment.free(((7,),)))
    seven = l2_log_det(sym, 1, us)
    one = torus_symbol(LOOP, VoltageAssignment.free(((1,),)))
    assert np.max(np.abs(seven - l2_log_det(one, 1, us))) < 1e-12
    assert np.max(np.abs(seven - node_trapezoid(one, 1, us, 1024))) < 1e-12
    batches, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: batches.append(len(a)) or eigvals(a))
    monkeypatch.setattr(l2, "LOG_CHUNK", 2 * 14**2)  # two companion matrices at a time
    assert np.array_equal(l2_log_det(sym, 1, us), seven)
    assert max(batches) == 2


def test_a_root_solve_over_the_node_budget_is_refused():
    # voltage 1025 on the loop asks for a companion matrix of order 2050: over 2^22 entries
    volt = VoltageAssignment.free(((1025,),))
    with pytest.raises(ResourceError, match=r"u = \(0\.3\+0\.1j\).*degree bound 1025"):
        l2_log_det(torus_symbol(LOOP, volt), 1, 0.3 + 0.1j)


def test_laurent_route_on_an_unused_axis():
    # no edge moves along the second axis: bound 0, one node per line, no roots
    sym = torus_symbol(K4, VoltageAssignment.free(tuple((s, 0) for (s,) in K4_SHIFTS)))
    assert degree_bounds(sym)[1] == 0
    us = np.array([0.1 + 0.1j, -0.4 + 0.05j, 0.0, 0.3j])
    assert np.max(np.abs(l2_log_det(sym, 2, us) - node_trapezoid(sym, 2, us, 256))) < 1e-12


def test_laurent_route_on_a_disconnected_base():
    # two copies of K4: a spanning forest, one tree for each
    base = MultiGraph(8, K4.edges + tuple((x + 4, y + 4) for x, y in K4.edges))
    volt = VoltageAssignment.free(K4_SHIFTS + tuple((s,) for s in (0, 3, -1, 1, 2, 0)))
    sym = torus_symbol(base, volt)
    us = np.array([0.1 + 0.1j, 0.45 + 0.02j, 0.0, -0.5 + 0.1j])
    assert np.max(np.abs(l2_log_det(sym, 2, us) - node_trapezoid(sym, 2, us, 512))) < 1e-12


def symbol_of(base, voltages):
    """The symbol of `voltages` as given, in no gauge."""
    acc = Counter()
    for (x, y), s in zip(base.edges, voltages):
        acc[(x, y, tuple(s))] += 1
        acc[(y, x, tuple(-c for c in s))] += 1
    terms = tuple((x, y, f, c) for (x, y, f), c in sorted(acc.items()))
    return TorusSymbol(base.vertex_count, len(voltages[0]), terms)


def forest_gauged(base, voltages):
    """`voltages` with every axis in the breadth-first spanning-forest gauge."""
    phi = [np.zeros(len(voltages[0]), dtype=int) for _ in range(base.vertex_count)]
    for e, x, y in graphs.spanning_forest(base):
        phi[y] = phi[x] + (1 if base.edges[e][0] == x else -1) * np.asarray(voltages[e])
    return [tuple(int(c) for c in np.asarray(s) + phi[x] - phi[y]) for (x, y), s in zip(base.edges, voltages)]


def test_symbol_keeps_the_presentation_of_least_degree_on_each_axis():
    k8 = complete_graph(8)
    one_shift = lambda g, e, s=(1,): [s if i == e else (0,) * len(s) for i in range(g.edge_count)]
    k4_tree = min(e for e, _, _ in graphs.spanning_forest(K4))
    # axis 0: one tree-edge shift, raw 1 against gauged 2; axis 1: K4_SHIFTS, raw 5 against
    # gauged 2, which moving vertex 3 to the median of its incident voltages lowers to 1
    mixed = [(int(i == k4_tree), s) for i, (s,) in enumerate(K4_SHIFTS)]
    cases = [
        (k8, 6, one_shift(k8, min(e for e, _, _ in graphs.spanning_forest(k8))), [1], [6]),
        (K4, 2, one_shift(K4, k4_tree), [1], [2]),
        (K4, 2, mixed, [1, 1], [2, 2]),
    ]
    rng = np.random.default_rng(17)
    for base, q, voltages, least, gauged_bounds in cases:
        sym = torus_symbol(base, VoltageAssignment.free(voltages))
        raw, gauged = symbol_of(base, voltages), symbol_of(base, forest_gauged(base, voltages))
        assert degree_bounds(sym) == least and degree_bounds(gauged) == gauged_bounds
        thetas = rng.uniform(0.0, 2.0 * np.pi, (8, sym.rank))
        for other in (raw, gauged):
            assert np.max(np.abs(np.linalg.eigvalsh(sym.matrices(thetas))
                                 - np.linalg.eigvalsh(other.matrices(thetas)))) < 1e-12
            assert equivariant_walk_counts(sym, 8) == equivariant_walk_counts(other, 8)
        us = np.array([0.1 + 0.1j, -0.2 + 0.05j, 0.3j, 0.05]) * q**-0.5 / 0.45
        assert np.max(np.abs(l2_log_det(sym, q, us) - l2_log_det(gauged, q, us))) < 1e-12
    # a tie goes to the gauge: on a triangle the shift moves off the tree edge (0, 1)
    triangle = cycle_graph(3)
    voltages = [(1,) if e == (0, 1) else (0,) for e in triangle.edges]
    gauged = forest_gauged(triangle, voltages)
    assert gauged != voltages and degree_bounds(symbol_of(triangle, gauged)) == [1]
    assert torus_symbol(triangle, VoltageAssignment.free(voltages)) == symbol_of(triangle, gauged)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_the_least_gauge_raises_no_axis_and_keeps_the_cover(rank):
    rng = np.random.default_rng(26 + rank)
    thetas = rng.uniform(0.0, 2.0 * np.pi, (6, rank))
    for base in (K4, PETERSEN, B2):
        for _ in range(4):
            voltages = [tuple(int(c) for c in rng.integers(-2, 3, rank)) for _ in base.edges]
            sym = torus_symbol(base, VoltageAssignment.free(voltages, rank))
            raw, forest = voltages, forest_gauged(base, voltages)
            bounds = zip(degree_bounds(sym), degree_bounds(symbol_of(base, raw)), degree_bounds(symbol_of(base, forest)))
            assert all(d <= min(r, f) for d, r, f in bounds)
            assert np.max(np.abs(np.linalg.eigvalsh(sym.matrices(thetas))
                                 - np.linalg.eigvalsh(symbol_of(base, raw).matrices(thetas)))) < 1e-12
            assert equivariant_walk_counts(sym, 4) == equivariant_walk_counts(symbol_of(base, raw), 4)
            # the axes as torus_symbol picks and lowers them: a least presentation is kept
            picks = [f if sum(map(abs, f)) <= sum(map(abs, r)) else r for r, f in zip(zip(*raw), zip(*forest))]
            least = l2._least_gauge(base, picks)
            assert l2._least_gauge(base, least) == least
            rows = list(zip(*least))
            assert symbol_of(base, rows) == sym == torus_symbol(base, VoltageAssignment.free(rows, rank))


# ---------------------------------------------------------------------------
# level spectra from characters, against dense eigvalsh of the level graph

K4_SHIFTS = tuple((s,) for s in (1, 0, 2, -1, 0, 1))
# the 4-cycle 0 1 2 3 carries 2 on its edges (0, 1) and (2, 3): least degree bound 2
K4_BOUND2 = tuple((s,) for s in (1, 0, 0, 0, 0, 1))
K4_RANK2 = ((1, 0), (0, 1), (0, 0), (1, 1), (0, 0), (2, -1))
PETERSEN_SHIFTS = tuple((s,) for s in (1, 0, -1, 2, 0, 0, 1, 1, -2, 0, 1, 0, 0, -1, 1))
LEVEL_TOWERS = {
    "base": lambda: lattice_tower(PETERSEN, PETERSEN_SHIFTS, (1,)),
    "cyclic K4": lambda: lattice_tower(K4, K4_SHIFTS, (1, 2, 4, 8, 16, 64)),
    "cyclic Petersen": lambda: lattice_tower(PETERSEN, PETERSEN_SHIFTS, (1, 3, 6, 12, 24)),
    "rank-2 K4 lattice": lambda: lattice_tower(K4, K4_RANK2, (1, 2, 4, 8, 16)),
    "K4 mod-7 homology": lambda: homology_tower(K4, 7, 1),
    "B2 mod-2 homology": lambda: homology_tower(B2, 2, 2),
    "rank-0 homology step": lambda: homology_tower(path_graph(3), 3, 2),
}


@pytest.mark.parametrize("name", sorted(LEVEL_TOWERS))
def test_level_spectrum_matches_dense_eigvalsh(name):
    tower = LEVEL_TOWERS[name]()
    for level in tower.levels:
        got = np.sort(np.concatenate([run for run, _ in l2._level_blocks(level)]))
        dense = np.sort(np.linalg.eigvalsh(level.graph.adjacency))
        assert got.shape == dense.shape
        assert np.max(np.abs(got - dense)) < 1e-10
        # the distribution lists each eigenvalue once, at the first float of its
        # run, with the count of every eigenvalue below the next listed one
        points, values = level_cdf(level)
        assert np.all(np.diff(points) > 1e-12 * max(level.parent.degree_sequence))
        assert np.isin(points, got).all()
        below_next = np.searchsorted(got, np.append(points[1:], np.inf))
        assert values.tolist() == (below_next / level.index).tolist()
        assert values[-1] * level.index == dense.size
        # and merges only rounding: every eigenvalue lies within 1e-13 of its row
        rows = np.searchsorted(points, got, side="right") - 1
        assert np.max(got - points[rows]) < 1e-13


def test_a_long_level_is_read_in_blocks_of_4e6_matrix_entries():
    # a Petersen level of 65536 characters, 4e6 / 10^2 = 40000 of them per block
    level = lattice_tower(PETERSEN, PETERSEN_SHIFTS, (1, 65536)).levels[1]
    first, _ = next(iter(l2._level_blocks(level)))
    assert first.size * PETERSEN.vertex_count == 4_000_000


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


LINE_TOWERS = {
    "loop": (LOOP, ((1,),), 1),
    "K4": (K4, K4_SHIFTS, 2),
    "Petersen": (PETERSEN, PETERSEN_SHIFTS, 2),
}


@pytest.mark.parametrize("name", sorted(LINE_TOWERS))
def test_cyclic_levels_from_line_roots_match_their_characters(name):
    # each level reads the roots that a level of order 2^12 with the same lifted
    # voltages solved: n = 1 (bound 0), n = 2 (where -1 lifts to 1), n <= 2D + 1 and up
    base, shifts, q = LINE_TOWERS[name]
    us = GridSpec(q=q, radius=0.9 * q**-0.5, resolution=6, margin=0.02).array
    free = l2.torus_symbol(base, VoltageAssignment.free(shifts))
    for n in (1, 2, 3, 4, 5, 7, 8, 12, 33, 256, 4096):
        level = TowerLevel(n, base, VoltageAssignment.free(shifts).reduced((n,)))
        sym = l2._level_symbol(level)
        lifted = [[c - n if 2 * c > n else c for c in s] for s in level.voltages.voltages]
        carrier = TowerLevel(2**12, base, VoltageAssignment.free(lifted).reduced((2**12,)))
        assert l2._level_symbol(carrier) == sym
        if n > 2 * max(abs(s) for (s,) in shifts):
            assert sym == free
        assert sym != free or n != 2 or name == "loop"
        (_, solved, _), (logs, rho_max, _) = l2._level_log_sums([carrier, level], q, us)
        assert solved is not None and rho_max == solved
        chars = l2._log_sum(l2._level_blocks(level), q, us)
        # relative to the sum of |log| over the eigenvalues: a loop level's log-sum,
        # 2 log(1 - u^n), is near 0 and its relative error is that of cancellation
        eigs = np.concatenate([run for run, _ in l2._level_blocks(level)])
        mass = np.abs(np.log(1.0 - eigs * us[:, None] + q * us[:, None] ** 2)).sum(axis=1)
        assert np.max(np.abs(logs - chars) / mass) < 1e-12, n
    assert degree_bounds(l2._level_symbol(TowerLevel(1, base, VoltageAssignment.free(shifts).reduced((1,))))) == [0]


def test_a_seeded_k4_tower_solves_roots_at_most_three_times(monkeypatch):
    # levels 1, 2, ..., 512: the ones above 2 max |s| share one symbol
    calls, line_roots = [], l2._line_roots
    monkeypatch.setattr(l2, "_line_roots", lambda sums, degree: calls.append(degree) or line_roots(sums, degree))
    grid = GridSpec(q=2, radius=0.5, resolution=8, margin=0.05)
    rng = np.random.default_rng(16)
    for _ in range(3):
        base, volt = presented(rng, K4, K4_SHIFTS)
        tower = lattice_tower(base, volt.voltages, [2**i for i in range(10)])
        calls.clear()
        report = tower_convergence(tower, tree_l2_reference(), grid)
        assert 1 <= len(calls) <= 3
        assert all(row.rho_max is not None for row in report.levels[-4:])


def counted_line_roots(monkeypatch):
    calls, line_roots = [], l2._line_roots
    monkeypatch.setattr(l2, "_line_roots", lambda sums, degree: calls.append(degree) or line_roots(sums, degree))
    return calls


def test_a_torus_target_reads_the_line_of_its_levels(monkeypatch, tmp_path):
    # the target and the levels above 2 max |s| share one symbol: one root solve serves
    # them all, and the errors are those against the target evaluated on its own
    calls = counted_line_roots(monkeypatch)
    grid = GridSpec(q=2, radius=0.5, resolution=8, margin=0.05)
    base, volt = presented(np.random.default_rng(25), K4, K4_SHIFTS)
    tower = lattice_tower(base, volt.voltages, [2**i for i in range(10)])
    tower_convergence(tower, tree_l2_reference(), grid)
    tree_calls = len(calls)
    calls.clear()
    shared = tower_convergence(tower, torus_l2(base, volt), grid)
    assert len(calls) == tree_calls and shared.line_solves == 1
    alone = torus_l2(base, volt).evaluate(grid.array)
    own = tower_convergence(tower, L2Zeta(evaluate=lambda u: alone), grid)
    a, b = (write_convergence_report(r, tmp_path / name) for r, name in ((shared, "a"), (own, "b")))
    errors = [(p, r) for p, r in zip(a, b) if p.name.startswith("errors_N")]
    assert len(errors) == 10 and all(p.read_bytes() == r.read_bytes() for p, r in errors)


def test_other_targets_and_grids_solve_their_own_lines(monkeypatch):
    # a different rank-1 cover, and the levels' own symbol at other points, each
    # solve once more and give their values evaluated alone; so does each new call
    calls = counted_line_roots(monkeypatch)
    grid = GridSpec(q=2, radius=0.5, resolution=6, margin=0.05)
    tower = lattice_tower(K4, K4_SHIFTS, (1, 64, 128))
    other = VoltageAssignment.free(tuple((s,) for s in (0, 1, 1, 0, -1, 2)))
    shrunk = lambda u: torus_l2(K4, VoltageAssignment.free(K4_SHIFTS)).evaluate(0.5 * u)
    for evaluate in (torus_l2(K4, other).evaluate, shrunk):
        alone = evaluate(grid.array)
        own = tower_convergence(tower, L2Zeta(evaluate=lambda u: alone), grid)
        for _ in range(2):  # nothing solved in one call is kept for the next
            calls.clear()
            report = tower_convergence(tower, L2Zeta(evaluate=evaluate), grid)
            assert report.line_solves == 2 and len(calls) == 2
            assert [r.errors.tolist() for r in report.levels] == [r.errors.tolist() for r in own.levels]


def counted_line_reads(monkeypatch):
    """The node grids, (m,) * (k - 1) + (2D + 1,), of the line reads that solve."""
    reads, node_eigenvalues = [], l2._node_eigenvalues

    def counting(sym, m, line=1, weigh=None):
        if weigh is not None:
            reads.append(m)
        return node_eigenvalues(sym, m, line, weigh)

    monkeypatch.setattr(l2, "_node_eigenvalues", counting)
    return reads


def test_a_rank_two_target_reads_its_first_refinement_from_a_level_of_order_16(monkeypatch):
    # the (Z/16)^2 level of B2 and a torus: target of the same voltages read the same
    # 16 x 3 line grid: the target solves only its later refinements' new lines, and
    # its errors are those against the target evaluated on its own
    reads = counted_line_reads(monkeypatch)
    grid = GridSpec(q=3, radius=0.3, resolution=6, margin=0.05)
    alone = torus_l2(B2, VZ2).evaluate(grid.array)
    assert reads[0] == (16, 3) and len(reads) >= 2
    reads.clear()
    tower = lattice_tower(B2, VZ2.voltages, (1, 16))
    report = tower_convergence(tower, torus_l2(B2, VZ2), grid)
    assert report.levels[1].rho_max is not None
    assert reads[0] == (16, 3) and reads.count((16, 3)) == 1 and len(reads) >= 2
    assert report.line_solves == len(reads)
    own = tower_convergence(tower, L2Zeta(evaluate=lambda u: alone), grid)
    assert [r.errors.tolist() for r in report.levels] == [r.errors.tolist() for r in own.levels]


def test_a_homology_tower_counts_its_rank_three_line_read():
    # the (Z/7)^3 level of K4's mod-7 homology tower reads its lines (D = 1, 7 > 3)
    grid = GridSpec(q=2, radius=0.5, resolution=8, margin=0.05)
    report = tower_convergence(homology_tower(K4, 7, 1), tree_l2_reference(), grid)
    assert report.levels[1].rho_max is not None and report.line_solves == 1


def test_a_wrong_root_count_in_a_shared_line_names_the_point(monkeypatch):
    line_roots = l2._line_roots

    def second_wrong(sums, degree):
        means, inside = line_roots(sums, degree)
        means[1] = np.nan
        return means, inside

    monkeypatch.setattr(l2, "_line_roots", second_wrong)
    grid = GridSpec(q=2, radius=0.5, resolution=6, margin=0.05)
    tower = lattice_tower(K4, K4_BOUND2, (1, 64))
    point = re.escape(f"u = {grid.array[1]}")
    with pytest.raises(NumericError, match=point + ".* does not have 2 roots outside"):
        tower_convergence(tower, torus_l2(K4, VoltageAssignment.free(K4_BOUND2)), grid)


def test_a_line_is_read_when_its_root_solve_fits_the_node_budget(monkeypatch):
    # the loop with voltage 3 at order 8: 8 eigenvalues, a root solve of (2D)^2 = 36;
    # it reads its line at a budget of 36 whatever the point count (40 points x
    # 2D + 1 = 7 is 280), and its characters at 35
    level = lattice_tower(LOOP, [(3,)], (1, 8)).levels[1]
    us = np.linspace(-0.4, 0.4, 40) + 0.1j
    monkeypatch.setattr(graphs, "NODE_BUDGET", 36)
    (lines, rho, degree), = l2._level_log_sums([level], 1, us)
    assert rho is not None and degree == 3
    monkeypatch.setattr(graphs, "NODE_BUDGET", 35)
    (chars, rho, _), = l2._level_log_sums([level], 1, us)
    assert rho is None and chars.tolist() == l2._log_sum(l2._level_blocks(level), 1, us).tolist()
    assert np.max(np.abs(lines - chars)) < 1e-12


def test_levels_of_one_symbol_read_its_line_together(monkeypatch):
    # the loop with voltage 3 at orders 7 and 8 has one symbol of degree bound 3:
    # order 8 > 2D + 1, so both levels read the line, in one root solve, and each
    # is within 1e-12 of its characters
    calls = counted_line_roots(monkeypatch)
    levels = [TowerLevel(n, LOOP, VoltageAssignment.free([(3,)]).reduced((n,))) for n in (7, 8)]
    assert l2._level_symbol(levels[0]) == l2._level_symbol(levels[1])
    us = np.array([0.1, 0.2j, -0.3])
    read = l2._level_log_sums(levels, 1, us)
    assert [rho is None for _, rho, _ in read] == [False, False] and calls == [3]
    for level, (logs, _, _) in zip(levels, read):
        assert np.max(np.abs(logs - l2._log_sum(l2._level_blocks(level), 1, us))) < 1e-12


def test_a_repeated_order_gives_both_levels_the_same_errors(monkeypatch):
    # orders (1, 8, 8), at rank 1 and rank 2: the two order-8 levels read the same
    # lines, in one root solve
    calls = counted_line_roots(monkeypatch)
    for base, voltages, q in ((K4, K4_BOUND2, 2), (B2, VZ2.voltages, 3)):
        calls.clear()
        grid = GridSpec(q=q, radius=0.3, resolution=6, margin=0.05)
        report = tower_convergence(lattice_tower(base, voltages, (1, 8, 8)), tree_l2_reference(), grid)
        assert report.levels[1].rho_max is not None and len(calls) == 1
        assert report.levels[1].errors.tolist() == report.levels[2].errors.tolist()


def test_a_level_with_a_wrong_root_count_names_the_level_and_the_point(monkeypatch):
    # both roots of z P(z) = (z - 0.5)(z - 0.25) lie inside the circle, not D = 1 outside
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    means, inside = l2._line_roots(np.log((w - 0.5) * (w - 0.25) / w)[None, :], 1)
    assert np.isnan(means).all() and not inside.any()
    # a level whose line reads so at its second point names both
    line_roots = l2._line_roots

    def second_wrong(sums, degree):
        means, inside = line_roots(sums, degree)
        means[1] = np.nan
        return means, inside

    monkeypatch.setattr(l2, "_line_roots", second_wrong)
    level = lattice_tower(K4, K4_BOUND2, (1, 64)).levels[1]
    with pytest.raises(NumericError, match=r"u = \(0\.3\+0\.1j\).* level of index 64 does not have 2 roots"):
        list(l2._level_log_sums([level], 2, np.array([0.1, 0.3 + 0.1j])))


def test_a_rank1_level_of_two_to_the_twenty_reads_one_line():
    # index 2^20 x 4 vertices is the node budget; its characters took about 25 s
    shifts = [(s,) for s in (1, 0, 2, -1, 0, 1)]
    tower = lattice_tower(K4, shifts, (1, 2**10, 2**20))
    grid = GridSpec(q=2, radius=0.5, resolution=8, margin=0.05)
    report = tower_convergence(tower, tree_l2_reference(), grid)
    assert report.levels[0].rho_max is None and report.levels[1].rho_max == report.levels[2].rho_max
    rho = report.levels[-1].rho_max
    assert 0 < rho < 1 and rho**(2**10) < 1e-300
    assert report.levels[1].errors.tolist() == report.levels[2].errors.tolist()


def rank_levels(base, voltages, orders):
    """The (Z/n)^k levels over `base` of the free voltages, one per order n."""
    volt = VoltageAssignment.free(voltages)
    return [TowerLevel(n**volt.rank, base, volt.reduced((n,) * volt.rank)) for n in orders]


HIGHER_RANK_LEVELS = {  # odd and even orders n > 2D + 1, D = 1 on the exact axis
    "B2 Z^2": (lambda: rank_levels(B2, VZ2.voltages, (4, 5, 8)), 3),
    "K4 rank 2": (lambda: rank_levels(K4, ((0, 0),) * 3 + ((1, 0), (0, 1), (1, 1)), (4, 7, 12)), 2),
    "K4 rank 3": (lambda: rank_levels(K4, K4_RANK3, (4, 5)), 2),
    "K4 mod-7 homology": (lambda: homology_tower(K4, 7, 1).levels[1:], 2),
}


@pytest.mark.parametrize("name", sorted(HIGHER_RANK_LEVELS))
def test_higher_rank_levels_from_their_lines_match_their_characters(name, monkeypatch):
    # n^(k-1) lines of 2D + 1 nodes, folded: one of each conjugate pair {j, -j mod n}
    # at weight 2, and at weight 1 those with every coordinate 0 or n/2 (n even)
    make, q = HIGHER_RANK_LEVELS[name]
    us = GridSpec(q=q, radius=0.9 * q**-0.5, resolution=6, margin=0.02).array
    read, node_eigenvalues = [], l2._node_eigenvalues

    def counting(sym, m, line=1, weigh=None):
        for run, weights in node_eigenvalues(sym, m, line, weigh):
            read.append((run.size // sym.vertex_count, weights))
            yield run, weights

    monkeypatch.setattr(l2, "_node_eigenvalues", counting)
    for level in make():
        k, n = level.voltages.rank, level.voltages.orders[0]
        degree, _ = l2._exact_axis(l2._level_symbol(level))
        assert k >= 2 and n > 2 * degree + 1
        chars = l2._log_sum(l2._level_blocks(level), q, us)
        read.clear()
        (logs, rho_max, _), = l2._level_log_sums([level], q, us)
        weights = np.concatenate([w for _, w in read])
        selfs = 2 ** (k - 1) if n % 2 == 0 else 1
        assert weights.sum() == n ** (k - 1) and (weights == 1).sum() == selfs
        assert weights.size == (n ** (k - 1) + selfs) // 2
        assert sum(nodes for nodes, _ in read) == weights.size * (2 * degree + 1) < n**k
        assert 0 < rho_max < 1
        assert np.max(np.abs(logs - chars) / np.abs(chars)) < 1e-12, n


def test_a_higher_rank_level_reads_its_characters_unless_its_lines_are_cheaper(monkeypatch):
    # B2's Z^2 symbol has D = 1 on each axis: order 3 = 2D + 1 reads its characters,
    # to the bit; order 8 its lines at the budget of its own 64 eigenvalues, whatever
    # the point count. At rank k >= 2, n > 2D + 1 puts the root solve (2D)^2 below
    # n^k, so a level within its charge always fits it
    (three, eight), us = rank_levels(B2, VZ2.voltages, (3, 8)), np.linspace(-0.4, 0.4, 22) + 0.1j
    (logs, rho_max, _), = l2._level_log_sums([three], 3, us)
    assert rho_max is None and logs.tolist() == l2._log_sum(l2._level_blocks(three), 3, us).tolist()
    monkeypatch.setattr(graphs, "NODE_BUDGET", 64)
    assert [rho is None for _, rho, _ in l2._level_log_sums([eight], 3, us[:21])] == [False]
    assert [rho is None for _, rho, _ in l2._level_log_sums([eight], 3, us)] == [False]


def test_a_higher_rank_level_with_a_wrong_root_count_names_the_level_and_the_point(monkeypatch):
    line_roots = l2._line_roots

    def last_wrong(sums, degree):  # the last line of the block, at its last point
        means, inside = line_roots(sums, degree)
        means[-1] = np.nan
        return means, inside

    monkeypatch.setattr(l2, "_line_roots", last_wrong)
    level, = rank_levels(B2, VZ2.voltages, (8,))
    with pytest.raises(NumericError, match=r"u = \(0\.3\+0\.1j\).* level of index 64 does not have 1 roots"):
        list(l2._level_log_sums([level], 3, np.array([0.1, 0.3 + 0.1j])))


def test_level_spectrum_needs_equal_orders():
    volt = VoltageAssignment.product([(1, 1)], (2, 3))
    level = TowerLevel(6, LOOP, volt)
    with pytest.raises(InputError, match="equal cyclic orders"):
        level_cdf(level)


# ---------------------------------------------------------------------------
# walk counts at half length, against the dictionary walk of every length


WALK_COVERS = {
    "K4 rank 2": (K4, K4_RANK2, 14),
    "K4 rank 3": (K4, K4_RANK3, 11),
    "Petersen shifts": (PETERSEN, PETERSEN_SHIFTS, 12),
    "B2 Z^2": (B2, VZ2.voltages, 24),
}


@pytest.mark.parametrize("name", sorted(WALK_COVERS))
def test_walk_counts_match_the_dictionary_walk_on_presentations(name):
    base, voltages, length = WALK_COVERS[name]
    rng = np.random.default_rng(16)
    for _ in range(3):
        sym = torus_symbol(*presented(rng, base, voltages))
        counts = equivariant_walk_counts(sym, length)
        assert counts == walk_counts_by_dict(sym, length), name
        assert all(type(c) is int for c in counts)
        # an odd length ends on N_a N_(a+1) where an even one ends on N_a^2
        assert equivariant_walk_counts(sym, length - 1) == counts[:-1]


def test_walk_counts_take_symmetric_symbols_with_repeated_terms():
    # two terms (0, 0, (1,), 1) and one (0, 0, (-1,), 2): a walk on Z with two
    # ways to step right and two to step left
    sym = TorusSymbol(1, 1, ((0, 0, (1,), 1), (0, 0, (1,), 1), (0, 0, (-1,), 2)))
    assert equivariant_walk_counts(sym, 9) == walk_counts_by_dict(sym, 9)
    assert equivariant_walk_counts(sym, 9)[8] == math.comb(8, 4) * 2**8


@pytest.mark.parametrize("length", [*range(30, 37), *range(58, 65)])
def test_walk_counts_cross_from_int64_to_python_ints(length):
    # on B2 Delta = 4: the bound 4^j on a sum N_a N_b (a + b = j) reaches 2^63 at
    # j = 32, where the plain int64 dot gives way to the limb dot; W_36 = C(36, 18)^2
    # is the first count past 2^63. The entries of N_a, at most 4^a, leave int64
    # for Python ints at h = 31 (lengths 61-64), as 4^31 = 2^62
    expected = [math.comb(j, j // 2) ** 2 if j % 2 == 0 else 0 for j in range(length + 1)]
    assert equivariant_walk_counts(torus_symbol(B2, VZ2), length) == expected


def test_walk_counts_take_the_limb_dot_on_negative_entries():
    # coefficients -3, -3, 1, 1: N_1 is -3 at +-1 and 1 at +-2, and Delta = 8, so
    # lengths 21-40 take the limb dot on int64 entries of both signs (8^21 = 2^63)
    # and lengths 41-42 hold Python ints (8^20 < 2^62 <= 8^21)
    sym = TorusSymbol(1, 1, ((0, 0, (1,), -3), (0, 0, (-1,), -3), (0, 0, (2,), 1), (0, 0, (-2,), 1)))
    expected = walk_counts_by_dict(sym, 42)
    for length in range(20, 43):
        assert equivariant_walk_counts(sym, length) == expected[: length + 1]


def test_walk_counts_are_charged_against_the_node_budget(monkeypatch):
    sym = torus_symbol(B2, VZ2)
    # 160 terms: 80 half-length steps over a 161 x 161 box, exact
    counts = equivariant_walk_counts(sym, 160)
    assert counts[160] == math.comb(160, 80) ** 2 and counts[159] == 0
    # 60 terms charge 30 steps x 61 x 61 entries = 111,630
    monkeypatch.setattr(graphs, "NODE_BUDGET", 111_630)
    assert len(equivariant_walk_counts(sym, 60)) == 61
    monkeypatch.setattr(graphs, "NODE_BUDGET", 111_629)
    with pytest.raises(ResourceError, match=r"length 60 need 111630 state entries"):
        equivariant_walk_counts(sym, 60)
    monkeypatch.undo()
    # refused before any array: the box alone would hold 10^12 entries
    with pytest.raises(ResourceError, match=r"length 1000000 need 500001000000500000"):
        equivariant_walk_counts(sym, 10**6)
    with pytest.raises(ResourceError, match="1000000 terms"):
        l2_series_oracle(sym, 3, 0.01, 10**6)


def test_series_oracle_refuses_more_terms_than_its_bounds():
    # 1024 terms or more: the bound on the exact sums, before any walk
    with pytest.raises(ResourceError, match="1100 terms"):
        l2_series_oracle(torus_symbol(cycle_graph(1), VZ), 1, 0.01, 1100)
    # B2's walks of length 512 charge 256 x 513^2 box entries, past NODE_BUDGET
    with pytest.raises(ResourceError, match="walks of length 512 need"):
        l2_series_oracle(torus_symbol(B2, VZ2), 3, 0.01, 512)


def test_one_node_budget_bounds_every_charge(monkeypatch):
    # graphs binds the budget alone; each refusal below is charged 9 to 64 nodes
    assert not any(hasattr(module, "NODE_BUDGET") for module in (l2, covers, convergence))
    refusals = {
        "a grid of resolution 3 has 9 lattice points": lambda: GridSpec(2, 0.5, 3),
        "the level of index 9 has 9 eigenvalues": lambda: level_cdf(lattice_tower(LOOP, [(1,)], (1, 9)).levels[1]),
        "walks of length 4 need 10 state entries": lambda: equivariant_walk_counts(torus_symbol(LOOP, VZ), 4),
        "torus quadrature at u = (0.1+0j) needs 64 nodes": lambda: l2_log_det(torus_symbol(B2, VZ2), 3, 0.1),
        "p = 11 is the least index": lambda: homology_tower(B2, 11, 1),
    }
    for call in refusals.values():
        call()
    monkeypatch.setattr(graphs, "NODE_BUDGET", 8)
    for text, call in refusals.items():
        with pytest.raises(ResourceError, match=re.escape(text) + ".*, over the node budget of 8$"):
            call()


def test_one_cap_bounds_both_log_series(monkeypatch):
    assert not hasattr(zeta, "LOG_TERMS_CAP")
    oracle = lambda terms: l2_series_oracle(torus_symbol(cycle_graph(1), VZ), 1, 0.01, terms)
    series = (oracle, lambda terms: zeta_log_coeffs(K4, terms), lambda terms: euler_log_coeffs(K4, terms))
    monkeypatch.setattr(graphs, "LOG_TERMS_CAP", 5)
    for call in series:
        call(5)
        with pytest.raises(ResourceError, match="^a log series takes at most 5 terms, got 6 terms$"):
            call(6)


def test_series_coefficients_are_the_binomial_expansion():
    """c_n = -T_n / n from the recurrence for alpha^n + beta^n equals the
    u^n coefficient of -sum_m (d u - q u^2)^m / m, whose terms with j steps
    of d and m - j of q u^2 have degree n = 2m - j."""
    rng = np.random.default_rng(5)
    cases = [(torus_symbol(LOOP, VZ), 1), (torus_symbol(B2, VZ2), 3),
             (torus_symbol(*presented(rng, K4, K4_RANK2)), 2), (torus_symbol(K4, VoltageAssignment.free(K4_RANK3)), 2)]
    for sym, q in cases:
        walks = equivariant_walk_counts(sym, 18)
        traces = l2._log_traces(walks, q)
        assert len(traces) == 18
        for n, trace in enumerate(traces, 1):
            binomial = sum(Fraction(math.comb(m, 2 * m - n) * (-q) ** (n - m) * walks[2 * m - n], m)
                           for m in range((n + 1) // 2, n + 1))
            assert Fraction(-trace, n) == -binomial, (sym, n)


@pytest.mark.parametrize("voltages, terms", [(K4_RANK3, 20), (K4_RANK3, 26), (K4_RANK2, 24)],
                         ids=["K4 rank 3, 20 terms", "K4 rank 3, 26 terms", "K4 rank 2, 24 terms"])
def test_series_oracle_is_exact_to_rounding_near_its_radius(voltages, terms):
    # 64 points on |u| = 0.97 / (2 (q + 1)); the tail past u^terms is below 8 * 2^-terms / terms
    sym, us = torus_symbol(K4, VoltageAssignment.free(voltages)), 0.97 / 6 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.abs(l2_series_oracle(sym, 2, us, terms) - l2_log_det(sym, 2, us)).max() <= 1e-12


def test_series_oracle_takes_hundreds_of_terms():
    # B4's walks of length 400 number about 8^400, past the float range; the scaled coefficients stay below 2^-n
    sym = torus_symbol(bouquet_graph(4), VoltageAssignment.free(((1,), (0,), (0,), (2,))))
    us = 0.97 / 16 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.abs(l2_series_oracle(sym, 7, us, 400) - l2_log_det(sym, 7, us)).max() <= 1e-12


def test_series_oracle_checks_the_radius_before_any_walk(monkeypatch):
    monkeypatch.setattr(l2, "equivariant_walk_counts", lambda *args: pytest.fail("walks counted"))
    sym = torus_symbol(B2, VZ2)
    for bad in (0.125, np.array([0.01, 0.2j]), float("nan")):
        with pytest.raises(DomainError, match=r"series oracle needs \|u\| < 0.125"):
            l2_series_oracle(sym, 3, bad, 10)


def test_walk_counts_and_series_check_their_arguments():
    sym = torus_symbol(B2, VZ2)
    for bad in (2.5, True, -1, "3", None):
        with pytest.raises(InputError):
            equivariant_walk_counts(sym, bad)
    for bad in (2.5, True, 0, "3"):
        with pytest.raises(InputError):
            l2_series_oracle(sym, 3, 0.01, bad)
    assert equivariant_walk_counts(sym, np.int64(4)) == [1, 0, 4, 0, 36]
    # a step with no reverse: the cover's walks are not symmetric
    with pytest.raises(InputError, match="paired"):
        equivariant_walk_counts(TorusSymbol(1, 1, ((0, 0, (1,), 1),)), 4)
    with pytest.raises(InputError, match="paired"):
        equivariant_walk_counts(TorusSymbol(1, 1, ((0, 0, (1,), 1),) * 2 + ((0, 0, (-1,), 1),)), 4)


def test_series_oracle_is_the_series_of_the_reference_walks(monkeypatch):
    us = np.array([0.05, -0.06 + 0.01j, 0.1j, 0.12])
    rng = np.random.default_rng(7)
    cases = [(torus_symbol(B2, VZ2), 3, 40), (torus_symbol(*presented(rng, K4, K4_RANK2)), 2, 16)]
    for sym, q, terms in cases:
        values = l2_series_oracle(sym, q, us, terms)
        monkeypatch.setattr(l2, "equivariant_walk_counts", walk_counts_by_dict)
        assert np.array_equal(l2_series_oracle(sym, q, us, terms), values)
        monkeypatch.undo()
