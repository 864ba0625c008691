"""L2 (von Neumann) zeta data for infinite abelian covers.

A free-abelian voltage assignment on a finite base graph describes an
infinite Z^k cover. Its adjacency operator diagonalizes over the k-torus
into a field of v x v Hermitian matrices (the symbol); normalized traces
become torus integrals, evaluated here by the periodic trapezoid rule with
adaptive refinement. The L2 zeta function of the cover is

    Z(u) = (1 - u^2)^(-chi) * exp( (2 pi)^(-k) Int log det(I - d(t) u + q u^2) dt )

with chi and q taken from the base. Empirical spectral distribution
functions of finite covers, which converge to the L2 spectral function,
live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covers import TowerLevel, VoltageAssignment
from .errors import DomainError, InputError, ResourceError
from .graphs import MultiGraph, regular_q, require_size
from .region import check_q, require_inside

QUADRATURE_TOL = 1e-10
NODE_BUDGET = 2**22  # most nodes of a quadrature, most eigenvalues of a level spectrum
LOG_CHUNK = 2**18  # points x eigenvalues whose logarithms are held at once
CDF_POINTS_PER_DIM = 4096


@dataclass(frozen=True)
class SpectralCDF:
    """A right-continuous step function F(lam) = (jumps at or below lam) / N."""

    jump_points: np.ndarray
    values: np.ndarray

    def __call__(self, lam):
        idx = np.searchsorted(self.jump_points, lam, side="right")
        padded = np.concatenate(([0.0], self.values))
        out = padded[idx]
        return float(out) if np.isscalar(lam) else out

    @property
    def mass(self) -> float:
        return float(self.values[-1]) if len(self.values) else 0.0

    def to_rows(self) -> list[tuple[float, float]]:
        return [(float(x), float(v)) for x, v in zip(self.jump_points, self.values)]


def empirical_cdf(eigenvalues: np.ndarray, n: int) -> SpectralCDF:
    """Eigenvalue counting function with mass (number of eigenvalues) / n.

    For a tower level of index n over a one-vertex base the total mass is 1;
    in general it is the base's vertex count.
    """
    if n < 1:
        raise InputError("normalization must be >= 1")
    points, counts = np.unique(np.asarray(eigenvalues, dtype=float), return_counts=True)
    values = np.cumsum(counts) / float(n)
    points.setflags(write=False)
    values.setflags(write=False)
    return SpectralCDF(jump_points=points, values=values)


# ---------------------------------------------------------------------------
# torus symbols


@dataclass(frozen=True)
class TorusSymbol:
    """Matrix-valued trigonometric polynomial d(t) on the k-torus.

    Terms are (x, y, frequency, coefficient): entry (x, y) picks up
    coefficient * exp(i t . frequency). Symbols built from a voltage
    assignment are Hermitian for every real t, and d(0) is the adjacency
    matrix of the base graph.
    """

    vertex_count: int
    rank: int
    terms: tuple[tuple[int, int, tuple[int, ...], int], ...]

    def matrices(self, thetas: np.ndarray) -> np.ndarray:
        """Stack of symbol matrices at rows of `thetas` (shape (m, rank))."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim == 1:
            thetas = thetas[None, :]
        if thetas.shape[1] != self.rank:
            raise InputError(f"theta rows must have length {self.rank}")
        out = np.zeros((thetas.shape[0], self.vertex_count, self.vertex_count), dtype=complex)
        for x, y, freq, coeff in self.terms:
            out[:, x, y] += coeff * np.exp(1j * (thetas @ np.asarray(freq, dtype=float)))
        return out


def torus_symbol(base: MultiGraph, volt: VoltageAssignment) -> TorusSymbol:
    """The symbol of the Z^k cover given by a free abelian voltage assignment.

    Every edge contributes both orientations, so loops add
    coefficient * (exp(i t.s) + exp(-i t.s)) to their diagonal entry and
    the symbol at t = 0 equals the base adjacency matrix (loops count 2).
    """
    if volt.is_finite:
        raise InputError("torus symbols need a free abelian (rank k) voltage assignment")
    if len(volt.voltages) != base.edge_count:
        raise InputError(f"{len(volt.voltages)} voltages for {base.edge_count} edges")
    acc: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for (x, y), sigma in zip(base.edges, volt.voltages):
        neg = tuple(-c for c in sigma)
        acc[(x, y, sigma)] = acc.get((x, y, sigma), 0) + 1
        acc[(y, x, neg)] = acc.get((y, x, neg), 0) + 1
    terms = tuple(
        (x, y, freq, coeff) for (x, y, freq), coeff in sorted(acc.items())
    )
    return TorusSymbol(vertex_count=base.vertex_count, rank=volt.rank, terms=terms)


# ---------------------------------------------------------------------------
# torus quadrature


def _node_eigenvalues(sym: TorusSymbol, m: int):
    """Eigenvalues of the symbol at the m^k trapezoid nodes, one block of
    nodes at a time as a flat run, so that a block's matrices hold about 4e6
    entries (one matrix if it alone holds more). A symbol over SIZE_CAP
    vertices raises ResourceError before any matrix exists."""
    require_size(sym.vertex_count, "a dense symbol eigensolve")
    k = sym.rank
    axes = 2.0 * np.pi * np.arange(m) / m
    total = m**k
    block = max(1, 4_000_000 // max(1, sym.vertex_count**2))
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total))
        coords = np.unravel_index(idx, (m,) * k)
        eigs = sym.matrices(np.column_stack([axes[c] for c in coords]))
        if sym.vertex_count > 1:  # a 1 x 1 Hermitian matrix is its own (real) eigenvalue
            eigs = np.linalg.eigvalsh(eigs)  # drops the matrices before the next block
        yield eigs.reshape(-1).real


def _log_sum(blocks, q: int, us: np.ndarray) -> np.ndarray:
    """Sum of log(1 - lam u + q u^2) over the eigenvalues lam of `blocks`,
    at each point of the 1-d array `us`.

    Each block is one run of eigenvalues, so a point's sum does not depend
    on which other points are evaluated with it. Points go a group at a
    time, group x run at most LOG_CHUNK entries (one point if its run
    alone holds more).
    """
    acc = np.zeros(us.shape, dtype=complex)
    shift = q * us * us
    for run in blocks:
        group = max(1, LOG_CHUNK // run.size)
        for i in range(0, us.size, group):
            # in place: numpy reuses no temporary when an operand broadcasts
            z = 1.0 - run * us[i : i + group, None]
            z += shift[i : i + group, None]
            acc[i : i + group] += np.sum(np.log(z, out=z), axis=1)
    return acc


def _count_at_most(blocks, lambdas: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of `blocks` at or below each of `lambdas`."""
    counts = np.zeros(lambdas.shape, dtype=np.int64)
    for run in blocks:
        counts += np.searchsorted(np.sort(run), lambdas, side="right")
    return counts


def _level_blocks(level: TowerLevel):
    """Adjacency eigenvalues of a tower level, one block of character nodes
    at a time, from the characters of its voltage group.

    Over (Z/n)^k the adjacency of the derived graph splits into the n^k
    twisted matrices A_chi[x, y] = sum over parent edges x -> y of
    chi(sigma_e) (Stark and Terras); these are the parent's torus symbol at
    the nodes 2 pi j / n, so the spectrum is their union and the level's
    graph is never built. A level of more than NODE_BUDGET eigenvalues
    (characters x parent vertices) raises ResourceError before any block.
    """
    volt = level.voltages
    n, v = volt.orders[0], level.parent.vertex_count
    if any(m != n for m in volt.orders):
        raise InputError(f"level spectra need equal cyclic orders, got {volt.orders}")
    if n**volt.rank * v > NODE_BUDGET:
        raise ResourceError(
            f"the level of index {level.index} has {n**volt.rank * v} eigenvalues "
            f"({n**volt.rank} characters of a {v}-vertex parent), "
            f"over the node budget of {NODE_BUDGET}"
        )
    sym = torus_symbol(level.parent, VoltageAssignment.free(volt.voltages, volt.rank))
    return _node_eigenvalues(sym, n)


def level_spectrum(level: TowerLevel) -> np.ndarray:
    """All adjacency eigenvalues of a tower level (`_level_blocks`),
    sorted ascending and read-only."""
    eigs = np.sort(np.concatenate(list(_level_blocks(level))))
    eigs.setflags(write=False)
    return eigs


def _grid_log_det(sym: TorusSymbol, q: int, us: np.ndarray, m: int) -> np.ndarray:
    """Periodic trapezoid values of the log-determinant integral at m^k
    nodes, one per point of the 1-d array `us`: the log-sum over the node
    eigenvalues divided by the node count."""
    return _log_sum(_node_eigenvalues(sym, m), q, us) / m**sym.rank


def l2_log_det(sym: TorusSymbol, q: int, u):
    """Normalized trace of log(I - d(t) u + q u^2) over the torus.

    `u` is a point or an array of points; a point gives a complex, an array
    an array of the same shape. Each point starts from 16 nodes per
    dimension and doubles until two successive values agree within
    QUADRATURE_TOL; converged points drop out, the others share each
    refinement's node eigenvalues. Raises ResourceError, naming a point
    that has not converged, when the next doubling would pass NODE_BUDGET
    nodes in total. Every point must lie inside the open region bounded by
    C and at least 1e-12 away from it.
    """
    us = np.asarray(u, dtype=complex)
    require_inside(q, us)
    points = us.ravel()
    values = np.full(points.shape, np.nan, dtype=complex)
    changes = np.full(points.shape, np.nan)
    active = np.arange(points.size)
    m = 16
    while active.size:
        if m**sym.rank > NODE_BUDGET:
            i = active[0]
            raise ResourceError(
                f"torus quadrature at u = {points[i]} needs more than {NODE_BUDGET} "
                f"nodes (next refinement {m}^{sym.rank}, last change {changes[i]:.3g})"
            )
        refined = _grid_log_det(sym, q, points[active], m)
        changes[active] = np.abs(refined - values[active])
        values[active] = refined
        active = active[~(changes[active] < QUADRATURE_TOL)]
        m *= 2
    return complex(values[0]) if us.ndim == 0 else values.reshape(us.shape)


def l2_zeta_abelian(base: MultiGraph, volt: VoltageAssignment, u):
    """The L2 zeta value (1 - u^2)^(-chi) * exp(torus log-determinant) at a
    point (a complex) or an array of points (an array of the same shape)."""
    q = regular_q(base)
    us = np.asarray(u, dtype=complex)
    flat = us.reshape(-1)  # a point takes the same array arithmetic alone as in a grid
    log_dets = l2_log_det(torus_symbol(base, volt), q, flat)
    values = (1.0 - flat * flat) ** (-base.euler_characteristic) * np.exp(log_dets)
    return complex(values[0]) if us.ndim == 0 else values.reshape(us.shape)


# ---------------------------------------------------------------------------
# series oracle: equivariant walk counting


def equivariant_walk_counts(sym: TorusSymbol, length: int) -> list[int]:
    """W_j = closed walks of length j in the Z^k cover, summed over base
    vertices, for j = 0..length; exact integer dynamic programming."""
    if length < 0:
        raise InputError("length must be >= 0")
    steps: list[tuple[int, int, tuple[int, ...], int]] = list(sym.terms)
    counts = [0] * (length + 1)
    counts[0] = sym.vertex_count
    for start in range(sym.vertex_count):
        state: dict[tuple[int, tuple[int, ...]], int] = {
            (start, (0,) * sym.rank): 1
        }
        for j in range(1, length + 1):
            nxt: dict[tuple[int, tuple[int, ...]], int] = {}
            for (x, disp), cnt in state.items():
                for sx, sy, freq, coeff in steps:
                    if sx != x:
                        continue
                    key = (sy, tuple(d + f for d, f in zip(disp, freq)))
                    nxt[key] = nxt.get(key, 0) + cnt * coeff
            state = nxt
            counts[j] += state.get((start, (0,) * sym.rank), 0)
    return counts


def l2_series_oracle(sym: TorusSymbol, q: int, u, terms: int = 40):
    """Truncated series for the torus log-determinant, valid for small |u|.

    Expands log(I - (d u - q u^2 I)) and takes normalized traces, which
    reduces to exact closed-walk counts; requires |u| < 1 / (2 (q + 1)) so
    that 40-ish terms reach full double precision. Independent of the
    quadrature route. `u` is a point (giving a complex) or an array of
    points (giving an array of that shape); the walks are counted once.
    """
    check_q(q)
    if terms < 1:
        raise InputError("terms must be >= 1")
    us = np.asarray(u, dtype=complex)
    points, limit = us.ravel().tolist(), 1.0 / (2.0 * (q + 1.0))
    for z in points:
        if abs(z) >= limit:
            raise DomainError(f"series oracle needs |u| < {limit:.6g} (got {abs(z):.6g})")
    walks = equivariant_walk_counts(sym, terms)
    values = []
    for z in points:
        total = 0.0 + 0.0j
        for m in range(1, terms + 1):
            inner = 0.0 + 0.0j
            for j in range(m + 1):
                inner += math.comb(m, j) * (z**j) * ((-q * z * z) ** (m - j)) * float(walks[j])
            total -= inner / m
        values.append(total)
    return values[0] if us.ndim == 0 else np.array(values, dtype=complex).reshape(us.shape)


# ---------------------------------------------------------------------------
# packaged L2 zeta evaluators


@dataclass(frozen=True)
class L2Zeta:
    """An L2 zeta function as an evaluator and its description.

    `evaluate` takes a point or an array of points; a constant function
    may return one value for every array.
    """

    evaluate: Callable
    description: str = "L2 zeta"

    def __call__(self, u: complex) -> complex:
        return complex(self.evaluate(complex(u)))


def tree_l2_reference() -> L2Zeta:
    """The constant-1 L2 zeta of the universal (tree) cover of any regular base."""
    return L2Zeta(evaluate=lambda u: 1.0 + 0.0j, description="constant 1 (regular tree cover)")


def torus_l2(base: MultiGraph, volt: VoltageAssignment) -> L2Zeta:
    """The quadrature-backed L2 zeta of the Z^k cover given by `volt`."""
    return L2Zeta(
        evaluate=lambda u: l2_zeta_abelian(base, volt, u),
        description=f"torus quadrature, rank {volt.rank}",
    )


def symbol_spectral_cdf(sym: TorusSymbol, lambdas: np.ndarray) -> np.ndarray:
    """F(lam) = average over the torus of #{eigenvalues of d(t) <= lam}.

    The limit of the empirical spectral distributions of the finite
    quotients; mass is the base's vertex count. The average is taken over
    m^k trapezoid nodes on the k-torus, m the largest power of two up to
    CDF_POINTS_PER_DIM with m^k <= NODE_BUDGET.
    """
    m = CDF_POINTS_PER_DIM
    while m > 1 and m**sym.rank > NODE_BUDGET:
        m //= 2
    counts = _count_at_most(_node_eigenvalues(sym, m), np.asarray(lambdas, dtype=float))
    return counts / m**sym.rank
