"""Zeta functions of finite multigraphs.

The zeta function used here is the product of (1 - u^length) over the
equivalence classes of primitive reduced closed paths; it is the reciprocal
of the classical Euler-product convention, and it is a polynomial:

    Z(X, u) = (1 - u^2)^(-chi) * det(I - A u + Q u^2)

where A is the adjacency matrix (loops count 2 on the diagonal), Q is the
diagonal matrix of degree - 1, and chi is the Euler characteristic. The
determinant polynomial has exact integer coefficients; this module computes
them as a characteristic polynomial modulo primes, evaluates the zeta
function, locates its zeros for regular graphs, and provides analytic N-th
roots of the determinant inside the region bounded by the set C.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .covers import is_prime
from .errors import DomainError, InputError, NumericError, ResourceError
from .graphs import MultiGraph, regular_q, regularity, spectrum
from .l2 import _log_sum
from .polynomials import IntPolynomial
from .region import distance_to_C, require_inside

ORDER_CAP = 512  # largest matrix order the determinant kernel takes
WALK_CAP = 2048  # most oriented edges the closed-walk counter takes
_PRIMES: list[int] = []  # primes below 2^26, descending, found as calls need them
_GROUP_TOL = 1e-8  # zeros this close, and eigenvalues this close relative to the bound, merge


@dataclass(frozen=True)
class ZetaFunction:
    """chi and the integer determinant polynomial."""

    chi: int
    det_poly: IntPolynomial

    def __call__(self, u):
        return zeta_eval(self, u)


@dataclass(frozen=True)
class ZetaZero:
    value: complex
    multiplicity: int
    distance: float


@dataclass(frozen=True)
class ZeroReport:
    zeros: tuple[ZetaZero, ...]
    q: int
    max_distance: float

    def to_rows(self) -> list[tuple[float, float, int, float]]:
        return [
            (z.value.real, z.value.imag, z.multiplicity, z.distance) for z in self.zeros
        ]


# ---------------------------------------------------------------------------
# determinant polynomial


def _hessenberg_charpoly(mat: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """det(x I - mat) modulo each prime, one lane per prime, ascending powers of x.

    A similarity transform to upper Hessenberg form h, then the recurrence
    of Cohen, "A Course in Computational Algebraic Number Theory", Algorithm
    2.2.9. Every value that is multiplied is first reduced into [0, p) with
    p < 2^26, so a product is below 2^52, and an einsum adds at most
    n <= ORDER_CAP = 512 of them, below 2^61: no int64 product or sum can
    overflow.
    """
    n = mat.shape[0]
    lanes = np.arange(len(primes))
    p1, p2 = primes[:, None], primes[:, None, None]
    h = mat[None, :, :] % p2
    for j in range(n - 2):
        # pivot: the first row below the subdiagonal with a nonzero entry in column j
        piv = j + 1 + np.argmax(h[:, j + 1 :, j] != 0, axis=1)
        if np.any(piv != j + 1):
            h[lanes, j + 1], h[lanes, piv] = h[lanes, piv], h[lanes, j + 1]
            h[lanes, :, j + 1], h[lanes, :, piv] = h[lanes, :, piv], h[lanes, :, j + 1]
        pivots = zip(h[:, j + 1, j].tolist(), primes.tolist())
        inv = np.array([pow(x, -1, p) if x else 0 for x, p in pivots], dtype=np.int64)
        # rows i > j + 1 lose mult_i times row j + 1; column j + 1 gains mult_i times column i
        mult = h[:, j + 2 :, j] * inv[:, None] % p1
        block = h[:, j + 2 :, j:]
        block -= mult[:, :, None] * h[:, None, j + 1, j:]
        block %= p2
        h[:, :, j + 1] = (h[:, :, j + 1] + np.einsum("pij,pj->pi", h[:, :, j + 2 :], mult)) % p1
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    scale = np.ones((len(primes), n), dtype=np.int64)
    for m in range(1, n + 1):
        # p_m = x p_{m-1} - sum_{k < m} h[k, m-1] scale_k p_k, scale_k = prod_{k < r < m} h[r, r-1]
        scale[:, : m - 1] = scale[:, : m - 1] * h[:, m - 1, m - 2, None] % p1
        w = scale[:, :m] * h[:, :m, m - 1] % p1
        polys[:, m, 1:] = polys[:, m - 1, :-1]
        polys[:, m, :m] = (polys[:, m, :m] - np.einsum("pk,pkc->pc", w, polys[:, :m, :m])) % p1
    return polys[:, n]


def _charpoly(mat: np.ndarray, bound: int) -> list[int]:
    """det(x I - mat) in ascending powers of x, for an integer matrix whose
    coefficients are at most `bound`: residues modulo primes with a product
    over 2 * bound, lifted to symmetric residues by Chinese remaindering."""
    primes, modulus = [], 1
    while modulus <= 2 * bound:
        if len(primes) == len(_PRIMES):
            p = _PRIMES[-1] - 2 if _PRIMES else 2**26 - 1
            while not is_prime(p):
                p -= 2
            _PRIMES.append(p)
        primes.append(_PRIMES[len(primes)])
        modulus *= primes[-1]
    residues = _hessenberg_charpoly(mat, np.asarray(primes, dtype=np.int64))
    weights = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    lifted = [sum(int(r) * w for r, w in zip(res, weights)) % modulus for res in residues.T]
    return [c - modulus if 2 * c > modulus else c for c in lifted]


def _regular_det_poly(g: MultiGraph, q: int) -> IntPolynomial:
    """u^v chi_A((1 + q u^2) / u) = sum_r a_r (1 + q u^2)^r u^(v - r), with
    chi_A = sum_r a_r x^r; each a_r sums principal minors of A, so Hadamard's
    inequality gives |a_r| <= prod_i (1 + ||A_i||_2)."""
    v, a = g.vertex_count, g.adjacency.astype(np.int64)
    # 1 + ceil(sqrt(s)) = isqrt(s - 1) + 2 for s >= 1
    bound = math.prod(math.isqrt(s - 1) + 2 if s else 1 for s in (a * a).sum(axis=1).tolist())
    coeffs = [0] * (2 * v + 1)
    binom = [1]  # binom[k] = C(r, k) q^k, the coefficient of u^(2k) in (1 + q u^2)^r
    for r, a_r in enumerate(_charpoly(a, bound)):
        for k, b in enumerate(binom):
            coeffs[v - r + 2 * k] += a_r * b
        binom = [1] + [x + q * y for x, y in zip(binom[1:], binom)] + [q * binom[-1]]
    return IntPolynomial(tuple(coeffs))


def _linearized_det_poly(g: MultiGraph) -> IntPolynomial:
    """det(I - u L), L = [[A, -Q], [I, 0]], reversed from det(x I - L). Every
    coefficient is at most max |det(I - A u + Q u^2)| on |u| = 1, which
    Hadamard's inequality bounds by row norms there: off the diagonal A_ij,
    on it 1 + A_ii + |d_i - 1| (a vertex of degree 0 has Q_ii = -1)."""
    v, a = g.vertex_count, g.adjacency.astype(np.int64)
    qdiag = np.asarray(g.degree_sequence, dtype=np.int64) - 1
    row_sq = (a * a).sum(axis=1) - np.diag(a) ** 2 + (1 + np.diag(a) + np.abs(qdiag)) ** 2
    bound = math.prod(math.isqrt(s - 1) + 1 for s in row_sq.tolist())  # ceil(sqrt(s)), s >= 1
    lin = np.block([[a, -np.diag(qdiag)], [np.eye(v, dtype=np.int64), np.zeros_like(a)]])
    return IntPolynomial(tuple(_charpoly(lin, bound)[::-1]))


def det_poly(g: MultiGraph, exact: bool = False) -> IntPolynomial:
    """Exact integer coefficients of det(I - A u + Q u^2), memoized for 16 graphs.

    The characteristic polynomial, modulo primes, of A for a regular graph
    and of the 2v x 2v linearization [[A, -Q], [I, 0]] for any other. Raises
    ResourceError for a matrix of order over ORDER_CAP = 512: a regular graph
    of more than 512 vertices, another of more than 256. `exact` is ignored.
    """
    return _det_poly(g)


@lru_cache(maxsize=16)
def _det_poly(g: MultiGraph) -> IntPolynomial:
    info = regularity(g)
    order = g.vertex_count if info.is_regular else 2 * g.vertex_count
    if order > ORDER_CAP:
        raise ResourceError(f"exact determinant route takes matrices of order at most "
                            f"{ORDER_CAP}; {g.vertex_count} vertices need {order}")
    return _regular_det_poly(g, info.q) if info.is_regular else _linearized_det_poly(g)


def zeta_function(g: MultiGraph) -> ZetaFunction:
    return ZetaFunction(chi=g.euler_characteristic, det_poly=det_poly(g))


def zeta_eval(z: ZetaFunction, u):
    """Evaluate Z(u) = (1 - u^2)^(-chi) * det_poly(u)."""
    us = np.asarray(u, dtype=complex)
    if z.chi > 0 and np.any(np.abs(1.0 - us * us) < 1e-12):
        raise DomainError("zeta has a pole at u = +-1 when chi > 0")
    value = (1.0 - us * us) ** (-z.chi) * z.det_poly(us)
    return complex(value) if us.shape == () else value


# ---------------------------------------------------------------------------
# zeros


def zeta_zeros(g: MultiGraph) -> ZeroReport:
    """All zeros of Z(g, u) with multiplicity, for (q+1)-regular graphs only.

    Each adjacency eigenvalue lam contributes the roots of
    q u^2 - lam u + 1 via the quadratic formula; a negative Euler
    characteristic adds zeros at +-1 from the (1 - u^2) prefactor. The
    report records every zero's distance to the set C. The determinant
    polynomial is never computed.
    """
    q = regular_q(g)
    chi = g.euler_characteristic
    spec = spectrum(g)
    eigs, bound = spec.eigenvalues, max(1.0, float(spec.spectral_bound))
    # group equal eigenvalues so multiplicities carry through the formula
    groups: list[tuple[float, int]] = []
    for lam in eigs:
        if groups and abs(lam - groups[-1][0]) <= _GROUP_TOL * bound:
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((float(lam), 1))
    raw: list[tuple[complex, int]] = []
    for lam, mult in groups:
        disc = lam * lam - 4.0 * q
        if abs(disc) < 1e-9:
            raw.append((complex(lam / (2.0 * q)), 2 * mult))
        else:
            root = cmath.sqrt(complex(disc))
            raw.append(((lam + root) / (2.0 * q), mult))
            raw.append(((lam - root) / (2.0 * q), mult))
    if chi < 0:
        raw.append((1.0 + 0.0j, -chi))
        raw.append((-1.0 + 0.0j, -chi))
    raw.sort(key=lambda item: (item[0].real, item[0].imag))
    merged: list[tuple[complex, int]] = []
    for value, mult in raw:
        if merged and abs(value - merged[-1][0]) <= _GROUP_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((value, mult))
    zeros = tuple(
        ZetaZero(value, mult, float(distance_to_C(q, value))) for value, mult in merged
    )
    max_distance = max((zz.distance for zz in zeros), default=0.0)
    return ZeroReport(zeros=zeros, q=q, max_distance=max_distance)


# ---------------------------------------------------------------------------
# analytic roots inside the region


def nth_root_det(g: MultiGraph, n: int, u):
    """The analytic N-th root prod_lam exp(log(1 - lam u + q u^2) / N).

    Principal logarithms are safe here: for u inside the region, each
    factor 1 - lam u + q u^2 avoids the ray (-inf, 0] for every real
    eigenvalue lam in [-(q+1), q+1]. Accepts a scalar or an array of
    points; points on or within 1e-12 of C are rejected.
    """
    if n < 1:
        raise InputError("root order must be >= 1")
    q = regular_q(g)
    us = np.asarray(u, dtype=complex)
    require_inside(q, us)
    logs = _log_sum([spectrum(g).eigenvalues], q, us.reshape(-1))
    values = np.exp(logs / n).reshape(us.shape)
    return complex(values) if us.shape == () else values


def normalized_zeta(g: MultiGraph, n: int, chi_base: int, u):
    """Z(B_i, u)^(1/N_i) = (1 - u^2)^(-chi_base) * det^(1/N_i) for a level of a tower."""
    if g.euler_characteristic != n * chi_base:
        raise InputError(
            f"chi({g.name or 'level'}) = {g.euler_characteristic} != {n} * {chi_base}"
        )
    us = np.asarray(u, dtype=complex)
    flat = us.reshape(-1)  # a point takes the same array arithmetic alone as in a grid
    value = (1.0 - flat * flat) ** (-chi_base) * nth_root_det(g, n, flat)
    return complex(value[0]) if us.shape == () else value.reshape(us.shape)


# ---------------------------------------------------------------------------
# functional equation (regular graphs)


def functional_equation_sides(g: MultiGraph, u: complex) -> tuple[complex, complex]:
    """LHS = Z(1/(q u)); RHS = ((1-u^2)/(q^2 u^2 - 1))^chi q^(v-2e) u^(-2e) Z(u)."""
    q = regular_q(g)
    u = complex(u)
    if abs(u) < 1e-12:
        raise DomainError("functional equation is undefined at u = 0")
    for bad, why in ((1.0, "u = +-1"), (1.0 / (q * q), "q^2 u^2 = 1")):
        if abs(u * u - bad) < 1e-12:
            raise DomainError(f"functional equation has a pole where {why}")
    z = zeta_function(g)
    v, e = g.vertex_count, g.edge_count
    lhs = zeta_eval(z, 1.0 / (q * u))
    rhs = (
        ((1.0 - u * u) / (q * q * u * u - 1.0)) ** z.chi
        * q ** (v - 2 * e)
        * u ** (-2 * e)
        * zeta_eval(z, u)
    )
    return lhs, rhs


def functional_equation_residual(g: MultiGraph, u: complex) -> complex:
    """LHS - RHS; its magnitude should be < 1e-9 * max(|LHS|, |RHS|, 1)."""
    lhs, rhs = functional_equation_sides(g, u)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Euler-product log coefficients via the oriented-edge transfer operator


def _transfer_matrix(g: MultiGraph) -> np.ndarray:
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    tails, heads = ends.ravel(), ends[:, ::-1].ravel()
    t = heads[:, None] == tails[None, :]
    a = np.arange(len(tails))
    t[a, a ^ 1] = False
    return t


def transfer_operator(g: MultiGraph) -> list[list[int]]:
    """0/1 matrix on oriented edges: consecutive without immediate reversal.

    Oriented edge 2i is edge i traversed as stored, 2i+1 the reverse; the
    reversal of index a is a XOR 1. Traversing a loop twice in the same
    direction is allowed; immediately re-traversing any edge backwards is
    not.
    """
    return _transfer_matrix(g).astype(np.int64).tolist()


def closed_walk_counts(g: MultiGraph, terms: int) -> list[int]:
    """N_m = trace(T^m) for m = 1..terms, exactly.

    Every entry and partial sum of T^m is at most 2E (d_max - 1)^m, so the
    float64 products are exact while 2E max(1, d_max - 1)^terms < 2^53.
    Raises ResourceError past that bound or past WALK_CAP oriented edges.
    """
    oriented = 2 * g.edge_count
    if oriented == 0:
        return [0] * terms
    if oriented > WALK_CAP:
        raise ResourceError(
            f"closed walk counts take at most {WALK_CAP} oriented edges, got {oriented}"
        )
    d_max = max(g.degree_sequence)
    if oriented * max(1, d_max - 1) ** terms >= 2**53:
        raise ResourceError(
            f"closed walks of length {terms} on {oriented} oriented edges of degree up to "
            f"{d_max} may number 2^53 or more, past exact float64 counts"
        )
    t = _transfer_matrix(g).astype(np.float64)
    counts = []
    power = t
    for m in range(terms):
        if m:
            power = power @ t
        counts.append(int(np.trace(power)))
    return counts


def euler_log_coeffs(g: MultiGraph, terms: int) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients of log Z from the Euler product: c_m = -N_m / m."""
    if terms < 1:
        raise InputError("terms must be >= 1")
    return tuple(Fraction(-n_m, m) for m, n_m in enumerate(closed_walk_counts(g, terms), 1))


def zeta_log_coeffs(g: MultiGraph, terms: int) -> tuple[Fraction, ...]:
    """The same coefficients from the closed form (1-u^2)^(-chi) det(...)."""
    if terms < 1:
        raise InputError("terms must be >= 1")
    poly = det_poly(g)
    if poly.coefficients[0] != 1:
        raise NumericError("determinant polynomial must have constant coefficient 1")
    logs = list(poly.log_series(terms))
    chi = g.euler_characteristic
    for j in range(1, terms // 2 + 1):
        logs[2 * j - 1] += Fraction(chi, j)
    return tuple(logs)
