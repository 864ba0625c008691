"""L2 (von Neumann) zeta data for infinite abelian covers.

A free-abelian voltage assignment on a finite base graph describes an
infinite Z^k cover. Its adjacency operator diagonalizes over the k-torus
into a field of v x v Hermitian matrices (the symbol), and the L2 zeta
function of the cover is

    Z(u) = (1 - u^2)^(-chi) * exp( (2 pi)^(-k) Int log det(I - d(t) u + q u^2) dt )

with chi and q taken from the base. Along one axis the determinant is a
Laurent polynomial whose mean comes exactly from its roots (the Mahler
measure form of the Fuglede-Kadison determinant); the other axes take the
periodic trapezoid rule with adaptive refinement. Empirical spectral
distributions of finite covers, which converge to the L2 spectral
function, live here as well.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import graphs
from .covers import TowerLevel, VoltageAssignment
from .errors import DomainError, InputError, NumericError
from .graphs import (MultiGraph, check_terms, json_int, regular_q, require_nodes, require_size,
                     spanning_forest)
from .region import at_points, check_q, require_inside

QUADRATURE_TOL = 1e-10
LINE_TOL = 1e-13  # times (2D + 1)^2, the most a line's node sums may miss its roots' fold
LOG_CHUNK = 2**18  # points x eigenvalues whose logarithms are held at once
CDF_POINTS_PER_DIM = 4096


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
        """Stack of symbol matrices at the rows of `thetas`, shape (m, rank)."""
        out = np.zeros((thetas.shape[0], self.vertex_count, self.vertex_count), dtype=complex)
        for x, y, freq, coeff in self.terms:
            out[:, x, y] += coeff * np.exp(1j * (thetas @ np.asarray(freq, dtype=float)))
        return out


def torus_symbol(base: MultiGraph, volt: VoltageAssignment) -> TorusSymbol:
    """The symbol of the Z^k cover given by a free abelian voltage assignment.

    Every edge contributes both orientations, so loops add
    coefficient * (exp(i t.s) + exp(-i t.s)) to their diagonal entry and
    the symbol at t = 0 equals the base adjacency matrix (loops count 2).
    On each axis the voltages are gauged to s + phi(x) - phi(y) on (x, y), a
    unitary conjugation of d(t): from the given ones or the gauge in which
    the breadth-first spanning forest carries 0, whichever has the smaller
    degree bound (the sum over edges of |s|), the latter on a tie, lowered
    by `_least_gauge`: no axis's bound exceeds that of either.
    """
    if volt.is_finite:
        raise InputError("torus symbols need a free abelian (rank k) voltage assignment")
    if len(volt.voltages) != base.edge_count:
        raise InputError(f"{len(volt.voltages)} voltages for {base.edge_count} edges")
    phi = [(0,) * volt.rank] * base.vertex_count
    for eidx, x, y in spanning_forest(base):
        sign = 1 if base.edges[eidx][0] == x else -1
        phi[y] = tuple(p + sign * c for p, c in zip(phi[x], volt.voltages[eidx]))
    gauged = [tuple(c + a - b for c, a, b in zip(s, phi[x], phi[y]))
              for (x, y), s in zip(base.edges, volt.voltages)]
    axes = _least_gauge(base, [g if sum(map(abs, g)) <= sum(map(abs, r)) else r
                               for r, g in zip(zip(*volt.voltages), zip(*gauged))])
    acc: Counter = Counter()
    for (x, y), sigma in zip(base.edges, zip(*axes)):
        acc[(x, y, sigma)] += 1
        acc[(y, x, tuple(-c for c in sigma))] += 1
    terms = tuple((x, y, freq, coeff) for (x, y, freq), coeff in sorted(acc.items()))
    return TorusSymbol(vertex_count=base.vertex_count, rank=volt.rank, terms=terms)


def _least_gauge(base: MultiGraph, axes) -> list[tuple[int, ...]]:
    """Each axis of voltages (one per edge) with vertex potentials moved one
    at a time to the median, nearest 0, of the values that would zero the
    vertex's incident non-loop voltages while that strictly lowers the sum of
    |s|, that is while 0 is not a median, until no move does: a presentation
    no such move lowers comes back unchanged."""
    stars = [star for x, incident in enumerate(base.incidences)
             if (star := [(e, 1 if base.edges[e][0] == x else -1) for e, y in incident if y != x])]
    least = []
    for axis in axes:
        volts, moved = list(axis), True
        while moved:
            moved = False
            for star in stars:
                signed = sorted(sign * volts[e] for e, sign in star)  # a move m adds m to each
                low, high = signed[(len(signed) - 1) // 2], signed[len(signed) // 2]
                if low > 0 or high < 0:
                    move, moved = -low if low > 0 else -high, True
                    for e, sign in star:
                        volts[e] += sign * move
        least.append(tuple(volts))
    return least


# ---------------------------------------------------------------------------
# torus quadrature


def _node_eigenvalues(sym: TorusSymbol, m, line: int = 1, weigh=None):
    """Eigenvalues of the symbol at the trapezoid nodes, m[i] on axis i (m on
    every axis if an int), in blocks (flat run node by node, weights) of a
    whole number of runs of `line` nodes (at least one run) whose matrices
    hold about 4e6 entries. Weights are None, or with `weigh` (first-node
    coordinates of each run, node counts -> integer weights) those of the
    runs of nonzero weight, the only runs read. A symbol over SIZE_CAP
    vertices raises ResourceError before any matrix exists."""
    require_size(sym.vertex_count, "a dense symbol eigensolve")
    counts = tuple(np.broadcast_to(m, sym.rank).tolist())
    axes = [2.0 * np.pi * np.arange(c) / c for c in counts]
    total = math.prod(counts)
    block = max(1, 4_000_000 // max(1, sym.vertex_count**2) // line) * line
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total))
        weights = None if weigh is None else weigh(np.unravel_index(idx[::line], counts), counts)
        if weights is not None:
            if not weights.any():
                continue
            idx, weights = idx.reshape(-1, line)[weights > 0].ravel(), weights[weights > 0]
        coords = np.unravel_index(idx, counts)
        eigs = sym.matrices(np.column_stack([axis[c] for axis, c in zip(axes, coords)]))
        if sym.vertex_count > 1:  # a 1 x 1 Hermitian matrix is its own (real) eigenvalue
            eigs = np.linalg.eigvalsh(eigs)  # drops the matrices before the next block
        eigs = eigs.reshape(-1).real
        yield eigs, weights


def _log_sum(blocks, q: int, us: np.ndarray, fold=None) -> np.ndarray:
    """Sum of log(1 - lam u + q u^2) over the eigenvalues lam of `blocks`,
    pairs (eigenvalues, weights) as from `_node_eigenvalues`, at each point
    of the 1-d array `us`. A flat run is one node; (nodes, v) rows give a
    sum per node that `fold` maps, with the weights, to one value or one row
    of values per point (by default, their sum). Points go a group at a
    time, at most LOG_CHUNK entries of group x block (one point if more),
    and no point's sum depends on another's. No block is read unless every
    point is inside the region bounded by C, 1e-12 clear of it.
    """
    require_inside(q, us)
    acc = None
    shift = q * us * us
    for block, weights in blocks:
        block = np.atleast_2d(block)  # a flat run is one node
        group = max(1, LOG_CHUNK // block.size)
        for i in range(0, us.size, group):
            # in place: numpy reuses no temporary when an operand broadcasts
            z = 1.0 - block * us[i : i + group, None, None]
            z += shift[i : i + group, None, None]
            sums = np.sum(np.log(z, out=z), axis=2)
            part = sums.sum(axis=1) if fold is None else fold(sums, weights)
            if acc is None:
                acc = np.zeros(us.shape + part.shape[1:], dtype=complex)
            acc[i : i + group] += part
    return np.zeros(us.shape, dtype=complex) if acc is None else acc


def _count_at_most(blocks, lambdas: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of `blocks` at or below each of `lambdas`."""
    counts = np.zeros(lambdas.shape, dtype=np.int64)
    for run, _ in blocks:
        counts += np.searchsorted(np.sort(run), lambdas, side="right")
    return counts


def _level_symbol(level: TowerLevel, built: dict | None = None) -> TorusSymbol:
    """The parent's torus symbol of a tower level over (Z/n)^k, its voltages
    lifted to (-n/2, n/2]: at the nodes 2 pi j / n any lift gives the n^k
    twisted matrices A_chi[x, y] = sum over parent edges x -> y of
    chi(sigma_e) (Stark and Terras), and this one the least degree bound.
    ResourceError for more than NODE_BUDGET eigenvalues (characters x parent
    vertices), checked for every level; a symbol in `built`, keyed by parent
    and lift, is taken from there, and a new one entered."""
    volt = level.voltages
    n, v = volt.orders[0], level.parent.vertex_count
    if any(m != n for m in volt.orders):
        raise InputError(f"level spectra need equal cyclic orders, got {volt.orders}")
    require_nodes(n**volt.rank * v, f"the level of index {level.index} has {n**volt.rank * v} "
                  f"eigenvalues ({n**volt.rank} characters of a {v}-vertex parent)")
    lifted = tuple(tuple(c - n if 2 * c > n else c for c in sigma) for sigma in volt.voltages)
    built = {} if built is None else built
    if (level.parent, lifted) not in built:
        built[level.parent, lifted] = torus_symbol(level.parent, VoltageAssignment.free(lifted, volt.rank))
    return built[level.parent, lifted]


def _level_blocks(level: TowerLevel):
    """Adjacency eigenvalues of a tower level, one block of character nodes
    at a time (`_level_symbol`, charged before any block); the level's graph
    is never built."""
    return _node_eigenvalues(_level_symbol(level), level.voltages.orders[0])


def _level_log_sums(levels, q: int, us: np.ndarray) -> list[tuple[np.ndarray, float | None, int]]:
    """Per tower level: its log-sum at the points `us`, that of
    `_level_blocks`, the largest |rho| of its roots (None if read from its
    characters) and its symbol's degree bound D on the exact axis. Every
    level is charged (`_level_symbol`) first; each distinct lifted symbol is
    built once.

    The levels of one lifted symbol and one n-node grid off the exact axis
    (at rank 1, every n) read the same lines. Such a group folds them for
    all its orders in one `_read_lines` call when its largest n > 2D + 1
    and a line's cost (`_line_cost`) fits NODE_BUDGET. Every other level
    reads its n^k characters.
    """
    built: dict = {}
    groups: dict = {}
    for i, level in enumerate(levels):
        sym = _level_symbol(level, built)
        groups.setdefault((sym, (level.voltages.orders[0],) * (sym.rank - 1)), []).append(i)
    out: list = [None] * len(levels)
    for (sym, _), members in groups.items():
        orders = [levels[i].voltages.orders[0] for i in members]
        degree, _ = _exact_axis(sym)
        if max(orders) <= 2 * degree + 1 or _line_cost(degree) > graphs.NODE_BUDGET:
            for i, n in zip(members, orders):
                out[i] = _log_sum(_node_eigenvalues(sym, n), q, us), None, degree
            continue
        indices = ", ".join(str(levels[i].index) for i in members)
        what = f"of the level{'s' * (len(members) > 1)} of index {indices}"
        sums, _, rho = _read_lines(sym, q, us, orders[0], what, orders)
        for i, column in zip(members, sums.T):
            out[i] = column, rho, degree
    return out


def level_cdf(level: TowerLevel) -> tuple[np.ndarray, np.ndarray]:
    """The spectral distribution of a tower level: its distinct adjacency
    eigenvalues (`_level_blocks`) ascending, and at each the number of
    eigenvalues up to the next one divided by the level's index; the last
    value is the base's vertex count. Character blocks round a repeated
    eigenvalue differently, so a run of sorted eigenvalues with gaps of at
    most 1e-12 times the largest degree is one, listed at its first value."""
    eigs = np.sort(np.concatenate([run for run, _ in _level_blocks(level)]))
    jumps = np.diff(eigs) > 1e-12 * max(level.parent.degree_sequence)
    firsts = np.concatenate(([True], jumps))
    counts = np.flatnonzero(np.concatenate((jumps, [True]))) + 1
    return eigs[firsts], counts / level.index


def _line_roots(sums: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Per run of 2D + 1 entries of `sums` (D = `degree`), where a run holds
    S_s = log P(w^s), w = exp(2 pi i / (2D + 1)), of its own Laurent
    polynomial P of degrees -D..D: the mean of log P over |z| = 1 and the
    2D values rho (r if |r| < 1, else 1 / r; 0 at 0 and infinity) over the
    roots r of z^D P.

    Jensen's formula anchored at z = 1 gives the mean S_0 - sum log(1 - rho);
    over the n-th roots of unity, sum log P(z) = n * mean + sum log(1 - rho^n).
    Inside the region both hold exactly, not modulo 2 pi i: no factor of P
    meets (-inf, 0] (see `nth_root_det`). At D = 1 the roots come from the
    stable quadratic formula. Otherwise top and bottom coefficients below
    1e-14 of the largest are dropped as roots at infinity and at 0, and the
    roots are eigenvalues of companion matrices, about LOG_CHUNK entries of
    them at a time (one matrix if more). A run's mean is NaN, and its rho 0,
    unless the roots outside, with those at infinity, number D.
    """
    width = 2 * degree + 1
    lines = sums.reshape(-1, width)
    # the coefficients of z^D P, highest first; a common factor moves no root
    scaled = np.exp(lines - lines.real.max(axis=1, keepdims=True))
    coef = np.fft.fft(scaled)[:, (degree - np.arange(width)) % width]
    if degree == 1:  # the stable quadratic: a / q' inverts the outer root, c / q' is the other
        a, b, c = coef.T
        root = np.sqrt(b * b - 4.0 * a * c)
        big = -0.5 * (b + np.where((b.conj() * root).real >= 0, root, -root))
        inside = np.stack([a, c], axis=1) / big[:, None]
        outside = (np.abs(inside[:, 0]) < 1) + (np.abs(inside[:, 1]) > 1)
    else:
        tiny = np.abs(coef) < 1e-14 * np.abs(coef).max(axis=1, keepdims=True)
        top, bottom = tiny.argmin(axis=1), tiny[:, ::-1].argmin(axis=1)
        inside = np.zeros((len(lines), 2 * degree), dtype=complex)
        outside = top.copy()
        for t, b in set(zip(top.tolist(), bottom.tolist())):
            rows = np.flatnonzero((top == t) & (bottom == b))
            order = width - 1 - t - b
            step = max(1, LOG_CHUNK // max(1, order * order))  # companion entries held at once
            for pick in np.split(rows, range(step, rows.size, step)):
                poly = coef[pick, t : width - b]
                companion = np.tile(np.eye(order, k=-1, dtype=complex), (len(pick), 1, 1))
                companion[:, :1] = (-poly[:, 1:] / poly[:, :1])[:, None]
                roots = np.linalg.eigvals(companion)
                out = np.abs(roots) > 1
                inside[pick, :order] = np.divide(1.0, roots, out=roots, where=out)
                outside[pick] += out.sum(axis=1)
    ok = outside == degree
    inside = np.where(ok[:, None], inside, 0.0)
    return np.where(ok, lines[:, 0] - np.log1p(-inside).sum(axis=1), np.nan), inside


def _exact_axis(sym: TorusSymbol) -> tuple[int, int]:
    """The torus axis j of least degree bound D = sum over edges of |s_j|, as (D, j)."""
    bounds = [sum(abs(f[i]) * c for _, _, f, c in sym.terms) // 2 for i in range(sym.rank)]
    degree = min(bounds)
    return degree, bounds.index(degree)


def _line_cost(degree: int) -> int:
    """Nodes charged for one line of degree bound D: its 2D + 1 node
    eigensolves or its root solve of degree 2D, whichever is more."""
    return max(2 * degree + 1, 4 * degree**2)


def _read_lines(sym: TorusSymbol, q: int, us: np.ndarray, m: int, what: str, orders=(), new_only=False):
    """The symbol's lines on its exact axis j (`_exact_axis`), m nodes on each
    other axis (one of each conjugate pair, `_conjugate_fold`; with
    `new_only` only those with an odd coordinate, which a doubling of m
    adds), at the points of the 1-d array `us`: 2D + 1 nodes fix a line, and
    `_line_roots` folds it to its mean and its 2D values rho. Per point, each
    order n's weighted sum of n * mean + sum log(1 - rho^n) (shape (points,
    len(orders))) and that of the means; and the largest |rho| read. In a
    `_shared_lines` block the mean sum is kept under (symbol, q, points, grid
    off the exact axis, `new_only`), and a read of no orders whose key is
    kept reads no line. NumericError names `what` and a point where a line's
    root count is not D, or where its residual |sum_s S_s - ((2D + 1) mean +
    sum log(1 - rho^(2D+1)))|, an identity of exact roots over its own 2D + 1
    nodes, passes LINE_TOL (2D + 1)^2.
    """
    degree, j = _exact_axis(sym)
    width = 2 * degree + 1
    tol = LINE_TOL * width**2
    kept = _SOLVED_LINES.get({})
    key = (sym, q, us.tobytes(), (m,) * (sym.rank - 1), new_only)
    if not orders and key in kept:
        return np.zeros((us.size, 0), dtype=complex), kept[key], 0.0
    rho = 0.0

    def weigh(first, shape):
        return _conjugate_fold(first, shape) * ((not new_only) | (np.array(first) % 2).any(axis=0))

    def fold(sums, weights):  # per point, each order's sum, the line means and the lines off, weighed
        nonlocal rho
        means, rhos = _line_roots(sums, degree)
        rho = max(rho, float(np.abs(rhos).max(initial=0.0)))
        *at, at_width = (n * means + np.log1p(-(rhos**n)).sum(axis=1) for n in [*orders, width])
        off = np.abs(sums.reshape(-1, width).sum(axis=1) - at_width) > tol
        values = np.stack(at + [means, off])
        return (values.reshape(len(values), -1, weights.size) * weights).sum(axis=2).T

    last = tuple((x, y, f[:j] + f[j + 1 :] + f[j : j + 1], c) for x, y, f, c in sym.terms)
    lines = TorusSymbol(sym.vertex_count, sym.rank, last)
    blocks = _node_eigenvalues(lines, (m,) * (sym.rank - 1) + (width,), width, weigh)
    nodes = ((run.reshape(-1, sym.vertex_count), weights) for run, weights in blocks)
    values = _log_sum(nodes, q, us, fold)
    bad = np.isnan(values).any(axis=1)
    if bad.any():
        raise NumericError(f"u = {us[bad][0]}: the determinant {what} does not have "
                           f"{degree} roots outside the unit circle")
    off = values[:, -1].real > 0
    if off.any():
        raise NumericError(f"u = {us[off][0]}: a line of the determinant {what} misses the "
                           f"sum of its {width} node logarithms by more than {tol:.3g}")
    kept[key] = values[:, -2]
    return values[:, :-2], values[:, -2], rho


def _conjugate_fold(first, shape) -> np.ndarray:
    """Weights of the lines whose first nodes have coordinates `first` in a
    grid of `shape`: one line of each conjugate pair {j, -j} (coordinatewise
    mod the shape) at weight 2, a line that is its own conjugate at 1, the
    other line of a pair at 0. A(-t) is the conjugate of A(t), with the same
    eigenvalues, so the line at -j holds the node sums of the one at j."""
    flat = np.ravel_multi_index(first, shape)
    mirror = np.ravel_multi_index(tuple(-c % n for c, n in zip(first, shape)), shape)
    return np.where(flat == mirror, 1, 2) * (flat <= mirror)


_SOLVED_LINES: ContextVar[dict] = ContextVar("solved_lines")


@contextmanager
def _shared_lines():
    """Within the block, `_read_lines` keeps the mean sum of each line read,
    one per point, so that a target reads no line a level or an earlier
    call has read; yields the map, one entry per distinct read."""
    token = _SOLVED_LINES.set({})
    try:
        yield _SOLVED_LINES.get()
    finally:
        _SOLVED_LINES.reset(token)


def l2_log_det(sym: TorusSymbol, q: int, u):
    """Normalized trace of log(I - d(t) u + q u^2) over the torus, at a point
    (giving a complex) or an array of points (giving an array of its shape).

    The mean of the line means of `_read_lines`, exact on the axis j of
    least degree bound D; within a `_shared_lines` block a read that a tower
    run's levels or an earlier call made is taken from there. The other axes
    (none at rank 1) take m = 16, 32, ... nodes each until two values agree
    within QUADRATURE_TOL, converged points dropping out. Refinement m adds
    to a running total only its new lines (an odd coordinate; all at m =
    16), but is charged `_line_cost` for each of its m^(k-1) lines:
    ResourceError names a point whose next refinement would pass NODE_BUDGET.
    Every point must be inside the region bounded by C, 1e-12 clear of it.
    """
    k = sym.rank
    degree, j = _exact_axis(sym)

    def refine(points: np.ndarray) -> np.ndarray:
        values = np.full(points.shape, np.nan, dtype=complex)
        totals = np.zeros(points.shape, dtype=complex)  # the sum of the m^(k-1) line means
        changes = np.full(points.shape, np.nan)
        active = np.arange(points.size)
        m = 16
        while active.size:
            cost, i = _line_cost(degree) * m ** (k - 1), active[0]
            require_nodes(cost, f"torus quadrature at u = {points[i]} needs {cost} nodes (next "
                          f"refinement {m}^{k - 1} lines of degree bound {degree}, "
                          f"last change {changes[i]:.3g})")
            _, means, _ = _read_lines(sym, q, points[active], m, f"along torus axis {j}", new_only=m > 16)
            totals[active] += means
            refined = totals[active] / m ** (k - 1)
            changes[active] = np.abs(refined - values[active])
            values[active] = refined
            active = active[~(changes[active] < QUADRATURE_TOL)] if k > 1 else active[:0]
            m *= 2
        return values

    return at_points(u, refine)


def l2_zeta_abelian(base: MultiGraph, volt: VoltageAssignment, u):
    """The L2 zeta value (1 - u^2)^(-chi) * exp(torus log-determinant) at a
    point (a complex) or an array of points (an array of the same shape)."""
    q, sym, chi = regular_q(base), torus_symbol(base, volt), base.euler_characteristic
    return at_points(u, lambda us: (1.0 - us * us) ** (-chi) * np.exp(l2_log_det(sym, q, us)))


# ---------------------------------------------------------------------------
# series oracle: equivariant walk counting


def equivariant_walk_counts(sym: TorusSymbol, length: int) -> list[int]:
    """W_j = closed walks of length j in the Z^k cover, summed over base
    vertices, for j = 0..length, exactly. For one start s at a time, N_a[y, d],
    the walks of length a from (s, 0) to (y, d), is one array over the box of
    displacements h = ceil(length / 2) steps reach; step a writes only the
    region a steps reach, one shifted slice per term, into the buffer N_(a-2)
    held. Each term (x, y, f, c) needs its reverse (y, x, -f, c), else
    InputError: the cover is undirected, so W_{a+b} = sum N_a N_b. With Delta
    the largest row sum of |coefficients| (the cover's largest degree), every
    entry of N_a is at most Delta^a: the arrays are int64 while Delta^h < 2^62,
    Python ints from there, and `_exact_dot` takes each sum exactly.
    ResourceError, before any array, when h v^2 (box size) passes NODE_BUDGET.
    """
    length = json_int(length, "length", 0)
    v, weights = sym.vertex_count, Counter()
    for x, y, f, c in sym.terms:
        weights[(x, y, tuple(f))] += c
    if any(weights[(y, x, tuple(-i for i in f))] != c for (x, y, f), c in weights.items()):
        raise InputError("walk counts need every symbol term (x, y, f, c) paired with (y, x, -f, c)")
    half = -(-length // 2)
    steps = [(min(0, *a), max(0, *a)) for a in zip(*(f for _, _, f in weights))]
    box = tuple(half * (hi - lo) + 1 for lo, hi in steps)
    charge = half * v * v * math.prod(box)
    require_nodes(charge, f"walks of length {length} need {charge} state entries")
    delta = max((sum(abs(c) for x, _, _, c in sym.terms if x == s) for s in range(v)), default=0)
    dtype = np.int64 if delta**half < 2**62 else object
    origin = tuple(-half * lo for lo, _ in steps)

    def reach(a, f=None):  # the displacements a steps reach, moved by f
        f = f or (0,) * len(steps)
        return tuple(slice(o + a * lo + s, o + a * hi + s + 1) for o, (lo, hi), s in zip(origin, steps, f))

    bufs = np.zeros((2, v) + box, dtype)  # N_a is bufs[a % 2], zero outside the region a steps reach
    moves = []
    for a in range(1, half + 1):
        cur, nxt = bufs[(a - 1) % 2], bufs[a % 2]
        here, every = reach(a - 1), slice(None)
        adds = [(nxt[(y,) + reach(a - 1, f)], cur[(x,) + here], c) for (x, y, f), c in weights.items()]
        # N_(a-1) and N_a over the region a - 1 steps reach, N_a over the one a steps reach
        moves.append((cur[(every,) + here], nxt[(every,) + here], nxt[(every,) + reach(a)], adds))
    counts = [v] + [0] * length
    for start in range(v):
        bufs[...] = 0
        bufs[(0, start) + origin] = 1
        for a, (cur, nxt_inner, nxt, adds) in enumerate(moves, 1):
            nxt[...] = 0
            for dst, src, c in adds:
                dst += src if c == 1 else c * src
            counts[2 * a - 1] += _exact_dot(cur, nxt_inner, delta ** (2 * a - 1))
            if 2 * a <= length:
                counts[2 * a] += _exact_dot(nxt, nxt, delta ** (2 * a))
    return counts


def _exact_dot(a: np.ndarray, b: np.ndarray, bound: int) -> int:
    """sum(a * b) as a Python int, exactly, for integer arrays of one shape
    whose sum of |a b| is at most `bound`. Object arrays sum in Python ints,
    int64 ones in one plain dot while `bound` < 2^63. Past that each int64
    entry splits into 20-bit limbs, the top one signed (x >> 60, in [-8, 8)):
    with at most 2^22 entries (`equivariant_walk_counts` charges v (box
    size) to `graphs.require_nodes`, whose NODE_BUDGET is 2^22) each sum of
    limb products stays below 2^62, and the 4 x 4 limb sums are shifted back
    together in Python ints."""
    if a.dtype == object or bound < 2**63:
        return int(np.dot(a.ravel(), b.ravel()))
    shifts = np.arange(0, 80, 20)[:, None]
    limbs = lambda x: (x.ravel() >> shifts) & np.where(shifts < 60, 2**20 - 1, -1)
    a_limbs = limbs(a)
    sums = a_limbs @ (a_limbs if b is a else limbs(b)).T
    return sum(s << 20 * (i + j) for i, row in enumerate(sums.tolist()) for j, s in enumerate(row))


def _log_traces(walks: list[int], q: int) -> list[int]:
    """T_n = sum_j a_(n,j) W_j, n = 1..len(walks) - 1, exactly: a_(n,j) are
    the integer coefficients of P_n(lam) = alpha^n + beta^n (alpha + beta =
    lam, alpha beta = q), P_0 = 2, P_1 = lam, P_n = lam P_(n-1) - q P_(n-2).
    As log(1 - lam u + q u^2) = -sum P_n(lam) u^n / n, the torus
    log-determinant has the Taylor coefficients c_n = -T_n / n."""
    prev, cur, traces = [2], [0, 1], []
    for _ in walks[1:]:
        traces.append(sum(a * w for a, w in zip(cur, walks)))
        prev, cur = cur, [a - q * b for a, b in zip([0] + cur, prev + [0, 0])]
    return traces


def l2_series_oracle(sym: TorusSymbol, q: int, u, terms: int = 40):
    """Taylor series of the torus log-determinant to u^terms, independent of
    the quadrature route, at a point (giving a complex) or an array of points
    (giving an array of that shape); DomainError, before any walk, unless
    every |u| < 1 / (2 (q + 1)) (NaN fails it).

    The coefficients c_n = -T_n / n (`_log_traces`) are exact, from one call
    of `equivariant_walk_counts`; b_n = c_n (2 (q + 1))^-n, each rounded once
    to a float, are summed by Horner at t = 2 (q + 1) u. Every eigenvalue of
    the symbol gives |alpha|, |beta| <= q, so |c_n| <= 2 v q^n / n: no b_n
    passes 2 v 2^-n, and the terms past u^terms add less than 2 v 2^-terms /
    terms. `graphs.check_terms` refuses terms < 1 and more than
    LOG_TERMS_CAP (1023), the bound on the exact sums.
    """
    q, terms = check_q(q), check_terms(terms)
    limit = 1.0 / (2.0 * (q + 1.0))
    scale = 2 * (q + 1)

    def series(us: np.ndarray) -> np.ndarray:
        outside = ~(np.abs(us) < limit)
        if outside.any():
            raise DomainError(f"series oracle needs |u| < {limit:.6g} (got {abs(us[outside][0]):.6g})")
        traces = _log_traces(equivariant_walk_counts(sym, terms), q)
        scaled = [-t / (n * scale**n) for n, t in enumerate(traces, 1)]  # int / int rounds once
        return np.polyval(scaled[::-1] + [0.0], us * scale)

    return at_points(u, series)


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
    while m > 1 and m**sym.rank > graphs.NODE_BUDGET:
        m //= 2
    counts = _count_at_most(_node_eigenvalues(sym, m), np.asarray(lambdas, dtype=float))
    return counts / m**sym.rank
