"""Reference computations for the benchmark's output checks.

Nothing here imports graphzeta: every value the program produces is checked
against a computation written apart from it.

* Abelian covers split over characters (Stark and Terras): the spectrum of
  the (Z/n_1 x ... x Z/n_k) cover given by integer voltages is the union,
  over the characters, of the eigenvalues of the twisted base adjacency.
  The same node sum, taken on a fine grid, is the torus integral of the L2
  zeta of the Z^k cover.
* The Z^2 cover of the bouquet B2 has the scalar symbol 2 cos t1 + 2 cos t2;
  one of its two torus integrals has a closed form, leaving a
  one-variable trapezoid sum.
* Determinant polynomials are checked modulo word-size primes by Gaussian
  elimination over Z/p at random points.

`self_test` runs each reference against a closed form before it is trusted.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

PRIMES = (2147483647, 2147483629, 2147483587)


# ---------------------------------------------------------------------------
# twisted adjacency and node sums


def twisted_eigenvalues(n, edges, voltages, thetas):
    """Eigenvalues of the twisted adjacency at each row of `thetas`.

    Edge (x, y) with voltage s adds exp(i theta.s) at (x, y) and its
    conjugate at (y, x); a loop therefore adds 2 cos(theta.s).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    mats = np.zeros((len(thetas), n, n), dtype=complex)
    for (x, y), s in zip(edges, voltages):
        phase = np.exp(1j * (thetas @ np.asarray(s, dtype=float)))
        mats[:, x, y] += phase
        mats[:, y, x] += phase.conj()
    if n == 1:
        return mats[:, 0, :].real
    return np.linalg.eigvalsh(mats)


def node_grid(orders):
    """Character angles of Z/n_1 x ... x Z/n_k, one row per character."""
    axes = [2.0 * np.pi * np.arange(n) / n for n in orders]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in mesh], axis=1)


def mean_log_det(n, edges, voltages, q, us, orders, block=8192):
    """Mean over the character nodes of sum_lam Log(1 - lam u + q u^2), per u."""
    us = np.asarray(us, dtype=complex)
    nodes = node_grid(orders)
    acc = np.zeros(len(us), dtype=complex)
    for start in range(0, len(nodes), block):
        lams = twisted_eigenvalues(n, edges, voltages, nodes[start : start + block])
        for i, u in enumerate(us):
            acc[i] += np.sum(np.log(1.0 - lams * u + q * u * u))
    return acc / len(nodes)


def converged_mean_log_det(n, edges, voltages, q, us, rank, start=16, tol=1e-9, max_m=256):
    """Torus integral, doubling the nodes per dimension until each point settles.

    Convergence is geometric, so a change below `tol` on one doubling leaves
    an error near tol^2 after it.
    """
    us = np.asarray(us, dtype=complex)
    m = start
    value = mean_log_det(n, edges, voltages, q, us, (m,) * rank)
    active = np.arange(len(us))
    while len(active) and m < max_m:
        m *= 2
        refined = mean_log_det(n, edges, voltages, q, us[active], (m,) * rank)
        settled = np.abs(refined - value[active]) < tol
        value[active] = refined
        active = active[~settled]
    return value


def zeta_from_log_det(chi, us, log_det):
    us = np.asarray(us, dtype=complex)
    return (1.0 - us * us) ** (-chi) * np.exp(log_det)


# ---------------------------------------------------------------------------
# closed forms for the Z^2 cover of B2


def b2_z2_log_det(u, tol=1e-14):
    """Torus mean of Log(1 - u (2 cos t1 + 2 cos t2) + 3 u^2).

    For fixed t1 the factor is a - b cos t2 with b = 2u; its mean log is
    Log((a + s) / 2), s = sqrt(a^2 - b^2) taken so that |a + s| >= |a - s|.
    The remaining t1 integral is a periodic trapezoid sum.
    """
    u = complex(u)
    b = 2.0 * u
    m = 64
    value = None
    while True:
        t1 = 2.0 * np.pi * np.arange(m) / m
        a = 1.0 + 3.0 * u * u - b * np.cos(t1)
        s = np.sqrt(a * a - b * b + 0j)
        s = np.where(np.abs(a + s) >= np.abs(a - s), s, -s)
        refined = complex(np.mean(np.log((a + s) / 2.0)))
        if value is not None and abs(refined - value) < tol:
            return refined
        if m >= 1 << 18:
            return refined
        value = refined
        m *= 2


# ---------------------------------------------------------------------------
# grids (the rule of `--grid disk:<radius>:<resolution>:<margin>`)


def disk_grid(q, radius, resolution, margin):
    """Row-major lattice points of the disk kept at least `margin` from C."""
    axis = np.linspace(-radius, radius, resolution)
    keep = []
    for y in axis:
        for x in axis:
            u = complex(x, y)
            slit = min(_segment_distance(u, 1.0 / q, 1.0), _segment_distance(u, -1.0, -1.0 / q))
            if abs(u) <= radius * (1 + 1e-12) and abs(u) <= q**-0.5 - margin and slit >= margin:
                keep.append(u)
    return keep


def _segment_distance(u, a, b):
    dx = max(a - u.real, u.real - b, 0.0)
    return math.hypot(dx, u.imag)


# ---------------------------------------------------------------------------
# determinant polynomials modulo primes


def det_mod(mat, p):
    """Determinant of an integer matrix over Z/p by Gaussian elimination."""
    a = np.array(mat, dtype=np.int64) % p
    n = len(a)
    det = 1
    for k in range(n):
        nz = np.nonzero(a[k:, k])[0]
        if len(nz) == 0:
            return 0
        piv = k + int(nz[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        factors = a[k + 1 :, k] * pow(pivot, p - 2, p) % p
        a[k + 1 :, k:] = (a[k + 1 :, k:] - factors[:, None] * a[k, k:][None, :]) % p
    return det % p


def vertex_det_mod(n, edges, t, p):
    """det(I - A t + Q t^2) mod p; loops count 2 in A and in the degree."""
    mat = np.zeros((n, n), dtype=np.int64)
    deg = [0] * n
    for x, y in edges:
        mat[x, y] -= t
        mat[y, x] -= t
        deg[x] += 1
        deg[y] += 1
    for x in range(n):
        mat[x, x] += 1 + (deg[x] - 1) * (t * t % p)
    return det_mod(mat % p, p)


def poly_mod(coeffs, t, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % p
    return acc


def det_samples(n, edges, rng, points=2):
    """(p, t, det(I - A t + Q t^2) mod p) at random t for each prime."""
    out = []
    for p in PRIMES:
        for _ in range(points):
            t = rng.randrange(2, p - 1)
            out.append((p, t, vertex_det_mod(n, edges, t, p)))
    return out


def check_det_poly(n, edges, coeffs, samples):
    """Problems found with claimed coefficients of det(I - A u + Q u^2); [] if none."""
    problems = []
    degrees = [0] * n
    for x, y in edges:
        degrees[x] += 1
        degrees[y] += 1
    if coeffs[0] != 1:
        problems.append(f"constant term {coeffs[0]} != 1")
    zeta_degree = len(coeffs) - 1 + 2 * (len(edges) - n)
    if min(degrees) >= 2 and zeta_degree != 2 * len(edges):
        problems.append(f"zeta degree {zeta_degree} != 2|E| = {2 * len(edges)}")
    for p, t, value in samples:
        if poly_mod(coeffs, t, p) != value:
            problems.append(f"p(t) != det(I - A t + Q t^2) mod {p} at t = {t}")
    return problems


# ---------------------------------------------------------------------------
# self test against closed forms


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def self_test():
    """Problems found when the references meet closed forms; [] if none."""
    problems = []
    rng = random.Random(0)
    if not all(_is_prime(p) for p in PRIMES):
        problems.append("a modulus is not prime")
    # cycle C_n: det(I - A u + Q u^2) = (1 - u^n)^2; bouquet B_k: 1 - 2k u + (2k-1) u^2
    for n in (1, 2, 5, 12):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        closed = [0] * (2 * n + 1)
        closed[0] += 1
        closed[n] -= 2
        closed[2 * n] += 1
        samples = det_samples(n, cycle, rng)
        if check_det_poly(n, cycle, closed, samples) or not check_det_poly(
            n, cycle, closed[:-1] + [2], samples
        ):
            problems.append(f"modular determinant disagrees with (1 - u^{n})^2")
    for k in (1, 2, 5):
        loops = [(0, 0)] * k
        if check_det_poly(1, loops, [1, -2 * k, 2 * k - 1], det_samples(1, loops, rng)):
            problems.append(f"modular determinant disagrees with the closed form of B{k}")
    # character decomposition: the Z/n cover of one loop with voltage 1 is C_n
    us = np.array([0.2 + 0.1j, -0.3j, 0.05 - 0.4j])
    for n in (3, 8, 17):
        got = np.exp(n * mean_log_det(1, [(0, 0)], [(1,)], 1, us, (n,)))
        if np.max(np.abs(got - (1.0 - us**n) ** 2)) > 1e-12:
            problems.append(f"character decomposition disagrees with C_{n}")
    # closed walks on Z^2: W_2j = C(2j, j)^2 as torus moments of the B2 symbol
    lams = twisted_eigenvalues(1, [(0, 0), (0, 0)], [(1, 0), (0, 1)], node_grid((32, 32)))
    for j in range(1, 9):
        moment = float(np.mean(lams ** (2 * j)))
        if round(moment) != math.comb(2 * j, j) ** 2 or abs(moment - round(moment)) > 1e-6 * moment:
            problems.append(f"torus moment {2 * j} of Z^2 is {moment}, not C({2 * j},{j})^2")
    # the one-variable closed form against the two-dimensional node sum
    for u in (0.1 + 0.2j, -0.3 + 0.05j):
        direct = converged_mean_log_det(1, [(0, 0), (0, 0)], [(1, 0), (0, 1)], 3, [u], 2)[0]
        if abs(cmath.exp(direct) - cmath.exp(b2_z2_log_det(u))) > 1e-12:
            problems.append(f"B2 Z^2 closed form disagrees with the torus sum at {u}")
    return problems
