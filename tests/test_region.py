import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphzeta import (
    InputError,
    distance_to_C,
    omega_contains,
    set_c_polyline,
    slit_distance,
)


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


def test_set_c_polyline():
    pts = set_c_polyline(2)
    parts = {p for p, _ in pts}
    assert parts == {"circle", "slit_pos", "slit_neg"}
    # every sampled point lies on C
    values = np.array([z for _, z in pts])
    assert np.max(distance_to_C(2, values)) < 1e-12


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
