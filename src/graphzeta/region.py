"""The boundary set C for (q+1)-regular graphs and its interior region.

C is the union of the circle |u| = q^(-1/2) with the two real segments
[-1, -1/q] and [1/q, 1]. All zeros of the zeta function of a finite
(q+1)-regular graph lie on C. The interior region (open disk of radius
q^(-1/2) minus the parts of the real slits inside it) is where analytic
N-th roots and the L2 log-determinant are taken; for q = 1 the segments
degenerate to the two points +-1 and the region is the open unit disk
without them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError
from .graphs import json_float, json_int

_CUT_MARGIN = 1e-12  # points this close to C, hence to a branch cut, take no logs
_POLYLINE_POINTS = 256


def check_q(q: int) -> int:
    """q as an int (`json_int`); InputError unless it is at least 1."""
    q = json_int(q, "q")
    if q < 1:
        raise InputError("q must be an integer >= 1")
    return q


def at_points(u, f, one=complex):
    """`f` applied to the points of `u` as one flat complex array: a point
    gives `one` of its value, an array an array of the same shape. A point
    alone thus takes the same arithmetic as inside any array. A point or
    array that is not numeric (a string, a bool, an object) is an
    InputError."""
    us = np.asarray(u)
    if us.dtype.kind not in "iufc":
        raise InputError(f"u must be a number or an array of numbers, got {u!r}")
    us = us.astype(complex, copy=False)
    values = f(us.reshape(-1))
    return one(values[0]) if us.ndim == 0 else values.reshape(us.shape)


def slit_distance(q: int, u) -> "float | np.ndarray":
    """Distance to the real slits [-1, -1/q] and [1/q, 1]: by symmetry, the
    distance from |Re u| + i Im u to [1/q, 1]."""
    q = check_q(q)
    return at_points(u, lambda z: np.hypot(
        np.maximum(np.maximum(1.0 / q - np.abs(z.real), np.abs(z.real) - 1.0), 0.0), z.imag), float)


def distance_to_C(q: int, u) -> "float | np.ndarray":
    """Distance to the boundary set C (circle plus slits)."""
    q = check_q(q)
    return at_points(u, lambda z: np.minimum(np.abs(np.abs(z) - q ** -0.5), slit_distance(q, z)), float)


def omega_contains(q: int, u, margin: float = 0.0) -> "bool | np.ndarray":
    """Membership in the interior region, optionally shrunk by a margin.

    With margin = 0 this is strict membership in the open region. With
    margin > 0 the point must satisfy |u| <= q^(-1/2) - margin and keep
    distance >= margin from the real slits.
    """
    q, margin = check_q(q), json_float(margin, "margin")
    if margin < 0:
        raise InputError("margin must be >= 0")
    radius = q ** -0.5
    if margin == 0.0:
        return at_points(u, lambda z: (np.abs(z) < radius) & (slit_distance(q, z) > 0.0), bool)
    return at_points(u, lambda z: (np.abs(z) <= radius - margin) & (slit_distance(q, z) >= margin), bool)


def require_inside(q: int, u) -> None:
    """DomainError naming the first of the points `u` that is not inside the
    open region bounded by C and more than 1e-12 away from C, where
    logarithms of the determinant factors are safe to take."""
    us, q = np.asarray(u, dtype=complex).reshape(-1), check_q(q)
    inside = (q ** -0.5 - np.abs(us) > _CUT_MARGIN) & (slit_distance(q, us) > _CUT_MARGIN)
    if not inside.all():
        raise DomainError(
            f"u = {complex(us[~inside][0])} is outside the open region bounded by C "
            f"(or within {_CUT_MARGIN} of it)"
        )


def set_c_polyline(q: int) -> list[tuple[str, complex]]:
    """Discretized polyline of C for plotting: circle and the two slits."""
    q = check_q(q)
    n = _POLYLINE_POINTS
    radius = q ** -0.5
    phi = 2.0 * np.pi * np.arange(n + 1) / n
    parts = [("circle", radius * np.cos(phi), radius * np.sin(phi))]
    for part, a, b in (("slit_pos", 1.0 / q, 1.0), ("slit_neg", -1.0, -1.0 / q)):
        parts.append((part, a + (b - a) * np.arange(n) / (n - 1), np.zeros(n)))
    return [(part, complex(x, y)) for part, xs, ys in parts for x, y in zip(xs.tolist(), ys.tolist())]
