"""Finite zeta functions against independent oracles.

The oracles here are computed inside the tests by other routes than the
library takes: convolution of factored forms, brute-force walk
enumeration over oriented edge tuples, and closed forms for cycles.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphzeta import (
    DomainError,
    InputError,
    ResourceError,
    UnsupportedError,
    bouquet_graph,
    build_graph,
    complete_graph,
    cycle_graph,
    det_poly,
    euler_log_coeffs,
    functional_equation_sides,
    normalized_zeta,
    nth_root_det,
    path_graph,
    spectrum,
    transfer_operator,
    zeta_eval,
    zeta_function,
    zeta_log_coeffs,
    zeta_zeros,
)
from graphzeta import l2
from graphzeta.zeta import _det_poly, _linearized_det_poly, closed_walk_counts

from corpus import (
    B2,
    CUBIC48,
    CYCLES,
    K4,
    LOOP,
    PETERSEN,
    RANDOM_CUBIC,
    REGULAR_CORPUS,
    bareiss_det,
    det_at,
    factorization_error,
    random_regular,
)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_k4_det_poly_matches_factored_form():
    # eigenvalues 3, -1, -1, -1 give (1 - 3u + 2u^2)(1 + u + 2u^2)^3
    expected = [1, -3, 2]
    for _ in range(3):
        expected = convolve(expected, [1, 1, 2])
    assert det_poly(K4).to_list() == expected
    assert _linearized_det_poly(K4).to_list() == expected


def test_k4_det_poly_frozen():
    assert det_poly(K4).to_list() == [1, 0, 2, -8, -3, -16, 8, 0, 16]


def test_cycle_det_polys_closed_form():
    # the n-cycle has exactly two primes, both of length n
    for n, g in CYCLES.items():
        expected = [0] * (2 * n + 1)
        expected[0], expected[n], expected[2 * n] = 1, -2, 1
        assert det_poly(g).to_list() == expected


def test_bouquet_det_poly():
    # bouquet with 2 loops: A = [[4]], Q = [[3]]
    assert det_poly(bouquet_graph(2)).to_list() == [1, -4, 3]


def test_linearizations_agree_on_regular_graphs():
    # det_poly expands the characteristic polynomial of A for these; the
    # 2v x 2v linearization is the route every other graph takes
    for g in REGULAR_CORPUS:
        assert det_poly(g).to_list() == _linearized_det_poly(g).to_list(), g.name


def test_modular_route_matches_bareiss_oracle():
    edge_cases = [
        build_graph(1, []),  # a single vertex with no edges
        build_graph(3, [(0, 1), (1, 1)]),  # vertex 2 is isolated
        path_graph(5),  # degree-1 ends
        build_graph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)]),  # loops, a double edge
        build_graph(7, K4.edges + ((4, 5), (5, 6), (6, 4))),  # K4 beside a triangle
        build_graph(4, [(0, 1), (2, 3)]),  # 1-regular: q = 0
        build_graph(3, []),  # no edges: 0-regular, q = -1
    ]
    for g in [K4, PETERSEN, B2, LOOP, *CYCLES.values(), *RANDOM_CUBIC, *edge_cases]:
        p = det_poly(g)
        v = g.vertex_count
        # 2v + 1 integer points determine a polynomial of degree at most 2v
        assert p.degree <= 2 * v
        assert [p(t) for t in range(-v, v + 1)] == [det_at(g, t) for t in range(-v, v + 1)]


def test_det_poly_beyond_float_precision_matches_bareiss():
    p = det_poly(CUBIC48)
    assert p.degree == 96 and p.coefficients[0] == 1
    for t in (-2, -1, 2, 3):
        assert p(t) == det_at(CUBIC48, t)


def test_bass_identity_checks_det_poly():
    # Bass: det(I - t T) = (1 - t^2)^(-chi) det(I - A t + Q t^2), with T the
    # oriented-edge transfer operator; the power goes to whichever side keeps
    # both sides integral
    loops_and_double_edge = build_graph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)])
    for g in REGULAR_CORPUS + [loops_and_double_edge, path_graph(4)]:
        t_mat, chi, p = transfer_operator(g), g.euler_characteristic, det_poly(g)
        for t in (-2, -1, 2, 3):
            edge_det = bareiss_det(
                [[(a == b) - t * x for b, x in enumerate(row)] for a, row in enumerate(t_mat)]
            )
            if chi < 0:
                assert edge_det == (1 - t * t) ** -chi * p(t)
            else:
                assert edge_det * (1 - t * t) ** chi == p(t)


def test_memos_are_bounded_and_ignore_exact():
    assert det_poly(K4, exact=True) is det_poly(K4)
    for memo in (_det_poly, spectrum):
        for n in range(3, 3 + memo.cache_info().maxsize + 4):
            memo(cycle_graph(n))
        info = memo.cache_info()
        assert info.currsize == info.maxsize


def brute_force_closed_nb_walks(g, length):
    # oriented edges as (tail, head, edge_id); enumerate all tuples
    oriented = []
    for k, (x, y) in enumerate(g.edges):
        oriented.append((x, y, 2 * k))
        oriented.append((y, x, 2 * k + 1))

    def successors(e):
        return [
            f
            for f in oriented
            if f[0] == e[1] and not (f[2] == e[2] ^ 1)
        ]

    count = 0
    stack = [((e,), e) for e in oriented]
    while stack:
        walk, last = stack.pop()
        if len(walk) == length:
            first = walk[0]
            if last[1] == first[0] and not (first[2] == last[2] ^ 1):
                count += 1
            continue
        for f in successors(last):
            stack.append((walk + (f,), f))
    return count


def test_transfer_operator_traces_match_brute_force():
    for g in [K4, CYCLES[3], bouquet_graph(2), cycle_graph(2)]:
        counts = closed_walk_counts(g, 4)
        for m in range(1, 5):
            assert counts[m - 1] == brute_force_closed_nb_walks(g, m), (g.name, m)


def test_k4_triangle_count():
    # 4 triangles, 2 orientations, 3 starting edges each
    assert closed_walk_counts(K4, 3)[2] == 24
    assert euler_log_coeffs(K4, 3)[2] == Fraction(-8)


def test_closed_walk_counts_stay_exact_or_refuse():
    # 20 * 3^30 < 2^53 <= 20 * 3^31 for K5: the last exact length, then a refusal
    k5 = complete_graph(5)
    assert euler_log_coeffs(k5, 30) == zeta_log_coeffs(k5, 30)
    with pytest.raises(ResourceError, match="length 31 on 20 oriented edges"):
        closed_walk_counts(k5, 31)
    with pytest.raises(ResourceError, match="at most 2048 oriented edges, got 2050"):
        closed_walk_counts(cycle_graph(1025), 2)
    assert closed_walk_counts(path_graph(1), 3) == [0, 0, 0]


def test_transfer_operator_shape():
    t = transfer_operator(K4)
    assert len(t) == 12 and all(len(row) == 12 for row in t)
    assert all(v in (0, 1) for row in t for v in row)
    # each oriented edge of K4 has q = 2 non-backtracking successors
    assert all(sum(row) == 2 for row in t)


def test_cycle_log_coeffs_closed_form():
    # log Z(C_n) = 2 log(1 - u^n); c_m = -2n/m when n | m, else 0
    for n in (3, 4, 5):
        got = euler_log_coeffs(CYCLES[n], 12)
        expected = tuple(
            Fraction(-2 * n, m) if m % n == 0 else Fraction(0) for m in range(1, 13)
        )
        assert got == expected
        assert zeta_log_coeffs(CYCLES[n], 12) == expected


def test_euler_equals_closed_form_on_corpus():
    for g in REGULAR_CORPUS + [path_graph(4)]:
        assert euler_log_coeffs(g, 10) == zeta_log_coeffs(g, 10), g.name


def test_zeta_eval_and_pole():
    z = zeta_function(K4)
    u = 0.1
    expected = (1.0 - u * u) ** 2 * det_poly(K4)(u)
    assert zeta_eval(z, u) == pytest.approx(expected)
    # chi < 0 makes (1 - u^2)^(-chi) vanish at u = 1, no pole
    assert zeta_eval(z, 1.0) == 0
    # a tree has chi > 0 and a genuine pole at u = 1
    z_tree = zeta_function(path_graph(2))
    with pytest.raises(DomainError):
        zeta_eval(z_tree, 1.0)


def test_zeta_eval_vectorized():
    z = zeta_function(PETERSEN)
    us = np.array([0.1, 0.2j, -0.3, 0.1 + 0.1j])
    vals = zeta_eval(z, us)
    assert vals.shape == (4,)
    for u, v in zip(us, vals):
        assert v == pytest.approx(zeta_eval(z, complex(u)))


def test_k4_zeros_frozen():
    report = zeta_zeros(K4)
    zs = {(round(z.value.real, 9), round(z.value.imag, 9)): z.multiplicity for z in report.zeros}
    s7 = 7.0 ** 0.5 / 4.0
    assert zs == {
        (1.0, 0.0): 3,
        (-1.0, 0.0): 2,
        (0.5, 0.0): 1,
        (-0.25, round(s7, 9)): 3,
        (-0.25, round(-s7, 9)): 3,
    }
    assert report.max_distance < 1e-10
    # complex zeros sit on the circle of radius q^(-1/2)
    for z in report.zeros:
        if abs(z.value.imag) > 1e-9:
            assert abs(abs(z.value) - 2.0 ** -0.5) < 1e-10


def test_zero_count_matches_degree():
    for g in [K4, PETERSEN, CYCLES[5]]:
        report = zeta_zeros(g)
        total = sum(z.multiplicity for z in report.zeros)
        assert total == det_poly(g).degree - 2 * g.euler_characteristic


def test_zeros_need_regular_graph():
    with pytest.raises(UnsupportedError):
        zeta_zeros(path_graph(3))


def test_nth_root_frozen_value():
    # C4 covers C2 with index 2: det(C4) = (1 - u^4)^2, root = (1 - u^4)
    val = nth_root_det(cycle_graph(4), 2, 0.5)
    assert val == pytest.approx(1.0 - 0.5**4)
    assert nth_root_det(cycle_graph(4), 2, 0.5) == pytest.approx(0.9375)


def test_nth_root_consistency():
    # the n-th root raised back to n is the determinant, on and off axis
    rng = np.random.default_rng(7)
    for g, n in [(K4, 2), (PETERSEN, 5), (CYCLES[8], 4)]:
        p = det_poly(g)
        for _ in range(25):
            u = complex(*rng.uniform(-0.3, 0.3, 2))
            from graphzeta import omega_contains

            if not omega_contains(regular_q(g), u, margin=1e-6):
                continue
            got = nth_root_det(g, n, u) ** n
            assert got == pytest.approx(p(u), rel=1e-9)


def regular_q(g):
    from graphzeta import regularity

    return regularity(g).q


def test_nth_root_rejects_points_near_c():
    with pytest.raises(DomainError):
        nth_root_det(K4, 2, 0.75)  # on the slit
    with pytest.raises(DomainError):
        nth_root_det(K4, 2, 2.0 ** -0.5)  # on the circle
    with pytest.raises(DomainError):
        nth_root_det(K4, 2, 0.9)  # outside


def test_normalized_zeta_c8_over_c1():
    # C8 covers the loop with index 8; chi(base) = 0
    val = normalized_zeta(CYCLES[8], 8, 0, 0.5j)
    expected = (1.0 - (0.5j) ** 8) ** (1.0 / 4.0)
    assert val == pytest.approx(expected)
    assert val.real == pytest.approx((255.0 / 256.0) ** 0.25)


def test_size_caps_refuse_before_any_matrix_exists():
    # the determinant route counts its matrix order, the dense spectrum its vertices
    for g, order in ((cycle_graph(6000), 6000), (path_graph(257), 514)):
        with pytest.raises(ResourceError, match=f"order at most 512; {g.vertex_count} vertices need {order}"):
            det_poly(g)
        assert "adjacency" not in g.__dict__
    g = cycle_graph(10_001)
    with pytest.raises(ResourceError, match="a dense spectrum of C10001 needs 10001 vertices"):
        spectrum(g)
    assert "adjacency" not in g.__dict__


def test_array_values_do_not_depend_on_log_chunk(monkeypatch):
    # a point's value is the same alone or among others, whatever the chunk
    us = np.array([[0.1 + 0.2j, -0.3j, 0.25], [0.05, 0.4 + 0.1j, -0.2 - 0.2j]])
    alone = [
        (normalized_zeta(CUBIC48, 24, -1, complex(u)), nth_root_det(CUBIC48, 24, complex(u)))
        for u in us.ravel()
    ]
    for chunk in (1, 7, 100, 2**18):  # 1, 1, 2 and all 6 points per group
        monkeypatch.setattr(l2, "LOG_CHUNK", chunk)
        zetas, roots = normalized_zeta(CUBIC48, 24, -1, us), nth_root_det(CUBIC48, 24, us)
        assert zetas.shape == roots.shape == us.shape
        assert list(zip(zetas.ravel().tolist(), roots.ravel().tolist())) == alone


def test_normalized_zeta_checks_chi_scaling():
    with pytest.raises(InputError):
        normalized_zeta(K4, 3, -1, 0.1)  # chi(K4) = -2 is not 3 * (-1)


def test_functional_equation_on_regular_corpus():
    rng = np.random.default_rng(11)
    for g in [K4, PETERSEN]:
        for _ in range(50):
            u = complex(*rng.uniform(-1.2, 1.2, 2))
            q = regular_q(g)
            if abs(u) < 0.1 or abs(u * u - 1) < 0.05 or abs(q * q * u * u - 1) < 0.05:
                continue
            lhs, rhs = functional_equation_sides(g, u)
            assert lhs == pytest.approx(rhs, rel=1e-9), (g.name, u)


def test_functional_equation_rejects_singular_points():
    with pytest.raises(DomainError):
        functional_equation_sides(K4, 0.0)
    with pytest.raises(DomainError):
        functional_equation_sides(K4, 1.0)
    with pytest.raises(DomainError):
        functional_equation_sides(K4, 0.5)  # 1/(qu) pole of the left side


def test_det_poly_vanishes_at_one_iff_connected_with_cycles():
    # u = 1: det vanishes for every connected graph with chi <= 0
    for g in [K4, PETERSEN, CYCLES[6]]:
        assert det_poly(g)(1) == 0


@settings(deadline=None, max_examples=40)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=1,
                max_size=8,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_det_poly_is_relabeling_invariant(data):
    n, edges, perm = data
    g = build_graph(n, edges)
    h = build_graph(n, [(perm[x], perm[y]) for x, y in edges])
    assert det_poly(g).to_list() == det_poly(h).to_list()


def test_det_poly_matches_eigenvalue_factorization():
    for g in REGULAR_CORPUS + [complete_graph(9), CUBIC48, random_regular(256, 3, 7)]:
        assert factorization_error(g, det_poly(g)) < 1e-8, g.name
