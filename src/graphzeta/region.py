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

_CUT_MARGIN = 1e-12  # points this close to C, hence to a branch cut, take no logs
_POLYLINE_POINTS = 256


def check_q(q: int) -> None:
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise InputError("q must be an integer >= 1")


def _segment_distance(x: np.ndarray, y: np.ndarray, a: float, b: float) -> np.ndarray:
    """Distance from points x+iy to the real segment [a, b] (a <= b)."""
    dx = np.maximum(np.maximum(a - x, x - b), 0.0)
    return np.hypot(dx, y)


def slit_distance(q: int, u) -> "float | np.ndarray":
    """Distance to the real slits [-1, -1/q] and [1/q, 1]."""
    check_q(q)
    z = np.asarray(u, dtype=complex)
    x, y = z.real, z.imag
    d = np.minimum(
        _segment_distance(x, y, 1.0 / q, 1.0),
        _segment_distance(x, y, -1.0, -1.0 / q),
    )
    return float(d) if np.isscalar(u) or d.shape == () else d


def distance_to_C(q: int, u) -> "float | np.ndarray":
    """Distance to the boundary set C (circle plus slits)."""
    check_q(q)
    z = np.asarray(u, dtype=complex)
    circle = np.abs(np.abs(z) - q ** -0.5)
    d = np.minimum(circle, slit_distance(q, z))
    return float(d) if np.isscalar(u) or d.shape == () else d


def omega_contains(q: int, u, margin: float = 0.0) -> "bool | np.ndarray":
    """Membership in the interior region, optionally shrunk by a margin.

    With margin = 0 this is strict membership in the open region. With
    margin > 0 the point must satisfy |u| <= q^(-1/2) - margin and keep
    distance >= margin from the real slits.
    """
    check_q(q)
    if margin < 0:
        raise InputError("margin must be >= 0")
    z = np.asarray(u, dtype=complex)
    radius = q ** -0.5
    dist = slit_distance(q, z)
    if margin == 0.0:
        inside = (np.abs(z) < radius) & (dist > 0.0)
    else:
        inside = (np.abs(z) <= radius - margin) & (dist >= margin)
    return bool(inside) if np.isscalar(u) or inside.shape == () else inside


def require_inside(q: int, u) -> None:
    """DomainError naming the first of the points `u` that is not inside the
    open region bounded by C and more than 1e-12 away from C, where
    logarithms of the determinant factors are safe to take."""
    us = np.asarray(u, dtype=complex)
    inside = np.asarray(omega_contains(q, us)) & (np.asarray(distance_to_C(q, us)) > _CUT_MARGIN)
    if not inside.all():
        raise DomainError(
            f"u = {complex(us[~inside][0])} is outside the open region bounded by C "
            f"(or within {_CUT_MARGIN} of it)"
        )


def set_c_polyline(q: int) -> list[tuple[str, complex]]:
    """Discretized polyline of C for plotting: circle and the two slits."""
    check_q(q)
    n = _POLYLINE_POINTS
    out: list[tuple[str, complex]] = []
    radius = q ** -0.5
    for k in range(n + 1):
        phi = 2.0 * np.pi * k / n
        out.append(("circle", complex(radius * np.cos(phi), radius * np.sin(phi))))
    for part, a, b in (
        ("slit_pos", 1.0 / q, 1.0),
        ("slit_neg", -1.0, -1.0 / q),
    ):
        for k in range(n):
            t = a + (b - a) * k / (n - 1)
            out.append((part, complex(t, 0.0)))
    return out
