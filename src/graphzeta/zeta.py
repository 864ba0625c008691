"""Zeta functions of finite multigraphs.

The zeta function used here is the product of (1 - u^length) over the
equivalence classes of primitive reduced closed paths; it is the reciprocal
of the classical Euler-product convention, and it is a polynomial:

    Z(X, u) = (1 - u^2)^(-chi) * det(I - A u + Q u^2)

where A is the adjacency matrix (loops count 2 on the diagonal), Q is the
diagonal matrix of degree - 1, and chi is the Euler characteristic. The
determinant polynomial has exact integer coefficients; this module computes
them as a characteristic polynomial modulo primes, checks them against the
Euler product det(I - u T) by the same kernel, evaluates the zeta function,
locates its zeros for regular graphs, and provides analytic N-th roots of
the determinant inside the region bounded by the set C.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .covers import is_prime
from .errors import DomainError, InputError, ResourceError
from .graphs import MultiGraph, check_terms, json_int, regular_q, regularity, spectrum
from .l2 import _log_sum
from .polynomials import IntPolynomial
from .region import at_points, distance_to_C

# largest matrix order the determinant kernel takes, the float64 exactness
# limit of its sums: ORDER_CAP (2^21)^2 <= 2^51 < 2^53
ORDER_CAP = 512
# primes in (2^20, 2^21), descending, found as calls need them; their 73586
# lift bounds of 1.5e6 bits, which an order-512 matrix passes only with entries
# near 2^2900
_PRIMES: list[int] = []
_POWER_BUDGET = 2**18  # float64 entries of baby powers held at once, summed over primes
_GROUP_TOL = 1e-8  # zeros this close, and eigenvalues this close relative to the bound, merge


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


def _reduce(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x - p floor(x / p), in place, for float64 integers 0 <= x < 2^51 and
    primes p in (2^20, 2^21) broadcast against x: exact (see _power_sums)."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _power_sums(mat: np.ndarray, primes: np.ndarray, s: int) -> np.ndarray:
    """tr(mat^k) modulo each prime for k = 1..n, one lane per prime, by s
    baby powers mat^1..mat^s and giant powers G^j, G = mat^s (Paterson and
    Stockmeyer, SIAM J. Comput. 2, 1973): tr(mat^(sj + i)) = tr(mat^i G^j).
    The babies take s - 1 matrix products and each giant power past G one,
    about 2 sqrt(n) in all.

    Exactness: every matrix is a float64 array of integers in [0, p), p <
    2^21. An entry of a product, and a row of a trace, sum n <= ORDER_CAP
    = 512 products below p^2 < 2^42, so every partial sum is an integer
    below 2^51 < 2^53 in whatever order BLAS or einsum adds the terms, and
    is exact. _reduce then divides x < n p^2 by p to a quotient below n p
    < 2^30, rounded by less than 2^-23; an exact integer quotient stays
    exact, any other lies at least 1 / p > 2^-21 from an integer, so the
    floor is the true one and x - p floor(x / p) is the exact residue.
    """
    n, p = mat.shape[0], primes.astype(np.float64)[:, None, None]
    # babies[:, i - 1] = (mat^i)^T, so that its row c pairs with row c of G^j in a trace
    babies = np.empty((len(primes), s, n, n))
    babies[:, 0] = (mat.T[None] % primes[:, None, None]).astype(np.float64)
    for i in range(1, s):
        _reduce(np.matmul(babies[:, i - 1], babies[:, 0], out=babies[:, i]), p)
    sums = np.empty((len(primes), n))
    sums[:, :s] = np.trace(babies, axis1=2, axis2=3)  # n terms below p each
    giant = np.ascontiguousarray(babies[:, s - 1].swapaxes(1, 2))
    power = giant
    for j in range(1, (n - 1) // s + 1):
        if j > 1:
            power = _reduce(power @ giant, p)
        count = min(s, n - s * j)
        # tr(mat^i G^j) = sum_c sum_r mat^i[r, c] G^j[c, r], one row sum per c
        rows = np.einsum("licr,lcr->lic", babies[:, :count], power)
        sums[:, s * j : s * j + count] = _reduce(rows, p).sum(axis=2)
    return _reduce(sums, p[:, :, 0]).astype(np.int64)


def _power_sum_charpoly(mat: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """det(x I - mat) modulo each prime, one lane per prime, ascending powers of x.

    The power sums t_k = tr(mat^k) by _power_sums, s = ceil(sqrt(n)), for as
    many primes at once as keep the baby powers within _POWER_BUDGET (one
    prime at least), then Newton's identities for det(x I - mat) = sum_k
    c_k x^(n - k): k c_k = -(t_k + c_1 t_(k-1) + ... + c_(k-1) t_1), where k
    <= n < p is invertible. They run in int64 on residues: at most n
    products below p^2 < 2^42, a sum below 2^51.
    """
    n = mat.shape[0]
    if n == 0:
        return np.ones((len(primes), 1), dtype=np.int64)
    s = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    chunk = max(1, _POWER_BUDGET // (s * n * n))
    t = np.concatenate(
        [_power_sums(mat, primes[i : i + chunk], s) for i in range(0, len(primes), chunk)]
    )
    inv = np.array([[pow(k, -1, p) for k in range(1, n + 1)] for p in primes.tolist()],
                   dtype=np.int64)
    c = np.zeros((len(primes), n + 1), dtype=np.int64)
    c[:, 0] = 1
    for k in range(1, n + 1):
        # c_0 t_k + c_1 t_(k-1) + ... + c_(k-1) t_1
        acc = np.einsum("lj,lj->l", c[:, :k], t[:, k - 1 :: -1]) % primes
        c[:, k] = (primes - acc) * inv[:, k - 1] % primes
    return c[:, ::-1]


def _charpoly(mat: np.ndarray, bound: int) -> list[int]:
    """det(x I - mat) in ascending powers of x, for an integer matrix whose
    coefficients are at most `bound`: residues modulo primes with a product
    over 2 * bound, lifted to symmetric residues by Chinese remaindering."""
    primes, modulus = [], 1
    while modulus <= 2 * bound:
        if len(primes) == len(_PRIMES):
            p = _PRIMES[-1] - 2 if _PRIMES else 2**21 - 1
            while not is_prime(p):
                p -= 2
            _PRIMES.append(p)
        primes.append(_PRIMES[len(primes)])
        modulus *= primes[-1]
    residues = _power_sum_charpoly(mat, np.asarray(primes, dtype=np.int64))
    weights = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    lifted = [sum(int(r) * w for r, w in zip(res, weights)) % modulus for res in residues.T]
    return [c - modulus if 2 * c > modulus else c for c in lifted]


def _minor_sum_bound(mat: np.ndarray) -> int:
    """prod_i (1 + ceil(||mat_i||_2)): each coefficient of det(x I - mat) sums
    principal minors, and Hadamard's inequality bounds that sum by it."""
    # 1 + ceil(sqrt(s)) = isqrt(s - 1) + 2 for s >= 1
    return math.prod(math.isqrt(s - 1) + 2 if s else 1 for s in (mat * mat).sum(axis=1).tolist())


def _regular_det_poly(g: MultiGraph, q: int) -> IntPolynomial:
    """u^v chi_A((1 + q u^2) / u) = sum_r a_r (1 + q u^2)^r u^(v - r), with
    chi_A = sum_r a_r x^r, under the bound _minor_sum_bound(A)."""
    v, a = g.vertex_count, g.adjacency.astype(np.int64)
    coeffs = [0] * (2 * v + 1)
    binom = [1]  # binom[k] = C(r, k) q^k, the coefficient of u^(2k) in (1 + q u^2)^r
    for r, a_r in enumerate(_charpoly(a, _minor_sum_bound(a))):
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
    _require_order(order, f"{g.vertex_count} vertices")
    return _regular_det_poly(g, info.q) if info.is_regular else _linearized_det_poly(g)


def _require_order(order: int, what: str) -> None:
    """ResourceError past ORDER_CAP, naming what needs a matrix of that order."""
    if order > ORDER_CAP:
        raise ResourceError(f"exact determinant route takes matrices of order at most "
                            f"{ORDER_CAP}; {what} need {order}")


def zeta_eval(g: MultiGraph, u):
    """Z(g, u) = (1 - u^2)^(-chi) * det_poly(g)(u) at a point (a complex) or
    an array of points (an array of the same shape)."""
    chi, poly = g.euler_characteristic, det_poly(g)

    def value(us: np.ndarray) -> np.ndarray:
        if chi > 0 and np.any(np.abs(1.0 - us * us) < 1e-12):
            raise DomainError("zeta has a pole at u = +-1 when chi > 0")
        return (1.0 - us * us) ** (-chi) * poly(us)

    return at_points(u, value)


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
    # group equal eigenvalues so multiplicities carry through the formula;
    # q + 1 bounds them all
    groups: list[tuple[float, int]] = []
    for lam in spectrum(g):
        if groups and abs(lam - groups[-1][0]) <= _GROUP_TOL * (q + 1):
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
    n = json_int(n, "n", 1)
    q = regular_q(g)
    return at_points(u, lambda us: np.exp(_log_sum([(spectrum(g), None)], q, us) / n))


def normalized_zeta(g: MultiGraph, n: int, chi_base: int, u):
    """Z(B_i, u)^(1/N_i) = (1 - u^2)^(-chi_base) * det^(1/N_i) for a level of a tower."""
    n = json_int(n, "n", 1)
    if g.euler_characteristic != n * chi_base:
        raise InputError(
            f"chi({g.name or 'level'}) = {g.euler_characteristic} != {n} * {chi_base}"
        )
    return at_points(u, lambda us: (1.0 - us * us) ** (-chi_base) * nth_root_det(g, n, us))


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
    v, e = g.vertex_count, g.edge_count
    lhs = zeta_eval(g, 1.0 / (q * u))
    rhs = (
        ((1.0 - u * u) / (q * q * u * u - 1.0)) ** g.euler_characteristic
        * q ** (v - 2 * e)
        * u ** (-2 * e)
        * zeta_eval(g, u)
    )
    return lhs, rhs


def functional_equation_mismatch(g: MultiGraph) -> int | None:
    """The smallest j where the functional equation fails, or None when it holds.

    As 2|E| = (q+1)|V|, the equation Z(1/(q u)) = ((1-u^2)/(q^2 u^2-1))^chi
    q^(v-2e) u^(-2e) Z(u) is P(1/(q u)) = P(u) / (q u^2)^v for P =
    det_poly(g) = sum_j a_j u^j, a polynomial of degree 2v: the identity
    q^v a_j = q^j a_(2v-j) for every j = 0..2v, checked exactly.
    """
    q, v = regular_q(g), g.vertex_count
    a = det_poly(g).coefficients
    a += (0,) * (2 * v + 1 - len(a))
    return next((j for j in range(2 * v + 1) if q**v * a[j] != q**j * a[2 * v - j]), None)


# ---------------------------------------------------------------------------
# the Euler product: det(I - u T) on the oriented-edge transfer matrix T


def _transfer_matrix(g: MultiGraph) -> np.ndarray:
    """Boolean matrix on oriented edges: consecutive without immediate reversal.

    Oriented edge 2i is edge i traversed as stored, 2i+1 the reverse; the
    reversal of index a is a XOR 1. Traversing a loop twice in the same
    direction is allowed; immediately re-traversing any edge backwards is
    not.
    """
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    tails, heads = ends.ravel(), ends[:, ::-1].ravel()
    t = heads[:, None] == tails[None, :]
    a = np.arange(len(tails))
    t[a, a ^ 1] = False
    return t


def hashimoto_det_poly(g: MultiGraph) -> IntPolynomial:
    """det(I - u T), the Euler product's side of Z(g, u): the reversed
    characteristic polynomial of the transfer matrix T, by the kernel of
    det_poly. ResourceError, before T exists, for more than ORDER_CAP = 512
    oriented edges."""
    _require_order(2 * g.edge_count, f"{g.edge_count} edges")
    t = _transfer_matrix(g).astype(np.int64)
    return IntPolynomial(tuple(_charpoly(t, _minor_sum_bound(t))[::-1]))


def euler_product_mismatch(g: MultiGraph) -> int | None:
    """The lowest power of u where det(I - u T) and (1 - u^2)^(|E| - |V|)
    det_poly(g) differ (the Ihara-Bass identity), or None when every
    coefficient agrees. The factor goes to whichever side keeps both integral."""
    edge_side, vertex_side = hashimoto_det_poly(g).to_list(), det_poly(g).to_list()
    chi = g.euler_characteristic
    for _ in range(chi):
        edge_side = [x - y for x, y in zip(edge_side + [0, 0], [0, 0] + edge_side)]
    for _ in range(-chi):
        vertex_side = [x - y for x, y in zip(vertex_side + [0, 0], [0, 0] + vertex_side)]
    pairs = enumerate(zip_longest(edge_side, vertex_side, fillvalue=0))
    return next((j for j, (x, y) in pairs if x != y), None)


def _log_series(terms: int, poly) -> list[int]:
    """s_1..s_terms with log P(u) = sum_m s_m u^m / m for the integer
    polynomial P = poly(), P(0) = 1, by Newton's identities in integers:
    s_m = m a_m - sum_(j=1..min(m-1, deg)) a_j s_(m-j). `graphs.check_terms`
    refuses the length before poly() runs."""
    terms = check_terms(terms)
    a = poly().coefficients
    degree = len(a) - 1
    a += (0,) * (terms + 1 - len(a))
    s = [0]
    for m in range(1, terms + 1):
        s.append(m * a[m] - sum(a[j] * s[m - j] for j in range(1, min(m, degree + 1))))
    return s[1:]


def euler_log_coeffs(g: MultiGraph, terms: int) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients of log Z from the Euler product, c_m = -N_m / m
    with N_m = trace(T^m), the closed non-backtracking walks of length m: the
    log series of det(I - u T)."""
    series = _log_series(terms, lambda: hashimoto_det_poly(g))
    return tuple(Fraction(s, m) for m, s in enumerate(series, 1))


def zeta_log_coeffs(g: MultiGraph, terms: int) -> tuple[Fraction, ...]:
    """The same coefficients from the closed form (1-u^2)^(-chi) det(...):
    c_m = (s_m + 2 chi [m even]) / m, with s_m / m those of log det_poly."""
    chi, series = g.euler_characteristic, _log_series(terms, lambda: det_poly(g))
    return tuple(Fraction(s + 2 * chi * (m % 2 == 0), m) for m, s in enumerate(series, 1))
