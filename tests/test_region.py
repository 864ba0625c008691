import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphzeta import (
    DomainError,
    InputError,
    VoltageAssignment,
    deitmar_residual,
    distance_to_C,
    l2,
    l2_log_det,
    l2_series_oracle,
    l2_zeta_abelian,
    normalized_zeta,
    nth_root_det,
    omega_contains,
    slit_distance,
    torus_symbol,
    zeta_eval,
)
from graphzeta.region import require_inside

from corpus import B2, K4, PETERSEN


def test_membership_examples():
    # strictly inside the disk of radius 1/sqrt(2), off the slits
    assert omega_contains(2, 0.3 + 0.2j)
    assert omega_contains(2, 0.5j)
    # outside the disk
    assert not omega_contains(2, 0.6 + 0.4j)
    assert not omega_contains(2, 0.6)
    # on the slit [1/q, 1]
    assert not omega_contains(2, 0.5)
    assert not omega_contains(2, -0.55)
    # origin is always inside
    assert omega_contains(1, 0.0)


def test_margin_semantics():
    # required margin shrinks the disk and pushes off the slits
    assert omega_contains(2, 0.65j, margin=0.0)
    assert not omega_contains(2, 0.65j, margin=0.1)
    assert not omega_contains(2, 0.45 + 0.01j, margin=0.1)


def test_q1_slits_degenerate_to_points():
    # for q = 1 the circle has radius 1 and the slits are the points +-1
    assert omega_contains(1, 0.9)
    assert omega_contains(1, -0.9)
    assert not omega_contains(1, 1.0)
    assert slit_distance(1, 0.75) == pytest.approx(0.25)


def test_distances():
    assert distance_to_C(2, 2.0 ** -0.5) == pytest.approx(0.0)
    assert distance_to_C(2, 0.75) == pytest.approx(0.0)  # on the slit
    assert slit_distance(2, 0.25) == pytest.approx(0.25)
    assert slit_distance(2, 1.5) == pytest.approx(0.5)
    assert slit_distance(2, 0.75 + 0.1j) == pytest.approx(0.1)


def test_vectorized():
    us = np.array([0.3, 0.5, 0.6, 0.1j])
    inside = omega_contains(2, us)
    assert inside.tolist() == [True, False, False, True]
    d = distance_to_C(2, us)
    assert d.shape == (4,)


def test_bad_q():
    with pytest.raises(InputError):
        omega_contains(0, 0.1)
    with pytest.raises(InputError):
        distance_to_C(-1, 0.1)


@given(
    st.integers(1, 4).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.floats(-(q + 1.0), q + 1.0),
            st.complex_numbers(max_magnitude=0.99 / np.sqrt(q), allow_nan=False),
        )
    )
)
def test_symbol_values_avoid_the_log_cut(data):
    # 1 - lam u + q u^2 stays off (-inf, 0] whenever u is in the region,
    # which is what makes the principal-branch root single valued there
    q, lam, u = data
    if not omega_contains(q, u, margin=1e-9):
        return
    w = 1.0 - lam * u + q * u * u
    assert w.real > 0.0 or w.imag != 0.0


# ---------------------------------------------------------------------------
# one shape rule for every evaluator of points

VZ2 = VoltageAssignment.free(((1, 0), (0, 1)), rank=2)
SYM = torus_symbol(B2, VZ2)
EVALUATORS = {
    "zeta_eval": (complex, lambda u: zeta_eval(PETERSEN, u)),
    "nth_root_det": (complex, lambda u: nth_root_det(PETERSEN, 5, u)),
    "normalized_zeta": (complex, lambda u: normalized_zeta(PETERSEN, 5, -1, u)),
    "deitmar_residual": (float, lambda u: deitmar_residual(PETERSEN, u)),
    "l2_log_det": (complex, lambda u: l2_log_det(SYM, 3, u)),
    "l2_zeta_abelian": (complex, lambda u: l2_zeta_abelian(B2, VZ2, u)),
    "l2_series_oracle": (complex, lambda u: l2_series_oracle(SYM, 3, u, 12)),
    "slit_distance": (float, lambda u: slit_distance(3, u)),
    "distance_to_C": (float, lambda u: distance_to_C(3, u)),
    "omega_contains": (bool, lambda u: omega_contains(3, u)),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_a_point_alone_is_its_entry_in_an_array(name):
    # inside the region for q = 2 and q = 3, and inside the series oracle's |u| < 1/8
    one, evaluate = EVALUATORS[name]
    rng = np.random.default_rng(14)
    radius, phi = 0.12 * np.sqrt(rng.uniform(0, 1, (4, 6))), rng.uniform(0, 2 * np.pi, (4, 6))
    us = radius * np.exp(1j * phi)
    values = evaluate(us)
    assert isinstance(values, np.ndarray) and values.shape == us.shape
    for u, entry in zip(us.ravel().tolist(), values.ravel()):
        alone = evaluate(u)
        assert type(alone) is one
        assert np.asarray(alone).tobytes() == np.asarray(entry).tobytes(), (u, alone, entry)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_a_point_that_is_not_a_number_is_an_input_error(name):
    # a string is not parsed, a bool is not 1, and an object array is not read
    _, evaluate = EVALUATORS[name]
    for bad in ("0.1", "x", True, np.array([True, False]), np.array([0.1, None], dtype=object)):
        with pytest.raises(InputError, match="u must be a number or an array of numbers"):
            evaluate(bad)


def test_points_within_1e_12_of_C_take_no_logarithm():
    # the one region gate is where the logarithm is, before any eigenvalue is read
    def unread():
        raise AssertionError("a block was read")
        yield

    near = ((2.0**-0.5 - 5e-13) * 1j, 0.5 + 5e-13j, -0.5 - 5e-13j)  # the circle, both slits
    for u in near:
        with pytest.raises(DomainError):
            l2._log_sum(unread(), 2, np.array([0.1, u]))
        with pytest.raises(DomainError, match="within 1e-12"):
            deitmar_residual(K4, np.array([0.1, u]))
        with pytest.raises(DomainError):
            deitmar_residual(K4, u)
    assert deitmar_residual(K4, (2.0**-0.5 - 2e-12) * 1j) < 1e-10

    # at its edges the gate takes a point exactly when it is in the open region and
    # more than 1e-12 from C: one ulp either side of 1e-12 inside the circle, 1e-12
    # either side of a slit end and off the axis, NaN and inf
    for q in (1, 2, 3, 6):
        edge = q**-0.5 - 1e-12
        radii = (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))
        points = [r * np.exp(1j * phi) for r in radii for phi in (0.0, 0.3, np.pi / 2, 2.5)]
        points += [end + d + 1j * im for end in (1 / q, 1.0, -1 / q, -1.0)
                   for d in (-1e-12, 0.0, 1e-12) for im in (0.0, 1e-12, 2e-12)]
        points += [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.1, np.nan), complex(0.1, -np.inf)]
        taken = []
        for u in points:
            expected = bool(omega_contains(q, u)) and distance_to_C(q, u) > 1e-12
            try:
                require_inside(q, u)
            except DomainError as exc:
                assert f"u = {complex(u)} is outside" in str(exc)
                taken.append(False)
            else:
                taken.append(True)
            assert taken[-1] == expected, u
        assert any(taken) and not all(taken)
        # an array is refused at its first point outside, in order
        first = points[taken.index(False)]
        with pytest.raises(DomainError, match=re.escape(f"u = {complex(first)} ")):
            require_inside(q, np.array(points))
        require_inside(q, np.array([u for u, ok in zip(points, taken) if ok]))
