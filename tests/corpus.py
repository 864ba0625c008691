"""Shared graph corpus for the test suite.

Closed-form families (cycles, complete, bouquet, Petersen), paths, and seeded
configuration-model cubic multigraphs. The configuration model pairs
stubs uniformly, so every sample is exactly 3-regular even when it picks
up loops or doubled edges. `det_at` is the determinant oracle: Bareiss
elimination on the integer matrix I - A t + Q t^2. `hessenberg_charpoly` is
the determinant kernel's reference modulo one prime. `factorization_error`
is the floating-point oracle for regular graphs: the product of
1 - lam u + q u^2 over the adjacency eigenvalues lam. `walk_counts_by_dict`
is the walk-count oracle for torus symbols: one dictionary of states per
start, walked the whole length.
"""

import random

import numpy as np

from graphzeta import MultiGraph, bouquet_graph, complete_graph, cycle_graph, petersen_graph


def path_graph(n: int) -> MultiGraph:
    """The path on n vertices: an irregular tree, degree-1 ends."""
    return MultiGraph(n, tuple((i, i + 1) for i in range(n - 1)), name=f"P{n}")


def random_regular(n: int, degree: int = 3, seed: int = 0) -> MultiGraph:
    if n * degree % 2:
        raise ValueError("n * degree must be even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(degree)]
    rng.shuffle(stubs)
    edges = tuple((stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2))
    return MultiGraph(n, edges, name=f"cubic{n}s{seed}")


def factorization_error(g: MultiGraph, poly) -> float:
    """Largest relative distance of poly from det(I - A u + q I u^2) of a
    (q+1)-regular graph, computed from the eigenvalues, at 7 points on
    |u| = 0.3 / sqrt(q); relative to max(1, |det|)."""
    q = g.degree_sequence[0] - 1
    us = 0.3 / q**0.5 * np.exp(2j * np.pi * (np.arange(7) + 0.37) / 7)
    eigs = np.linalg.eigvalsh(g.adjacency)
    direct = np.prod(1.0 - eigs[None, :] * us[:, None] + q * us[:, None] ** 2, axis=1)
    return float(np.max(np.abs(poly(us) - direct) / np.maximum(1.0, np.abs(direct))))


K4 = complete_graph(4)
PETERSEN = petersen_graph()
B2 = bouquet_graph(2)
LOOP = bouquet_graph(1)
CYCLES = {n: cycle_graph(n) for n in range(1, 13)}

RANDOM_CUBIC = [
    random_regular(6, 3, 1),
    random_regular(8, 3, 2),
    random_regular(10, 3, 3),
    random_regular(12, 3, 4),
]

REGULAR_CORPUS = [K4, PETERSEN, B2, CYCLES[3], CYCLES[5], CYCLES[8]] + RANDOM_CUBIC

# its determinant coefficients pass 2^53, beyond what floats carry exactly
CUBIC48 = random_regular(48, 3, 0)


def bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; every division is exact."""
    n = len(m)
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hessenberg_charpoly(mat: np.ndarray, p: int) -> np.ndarray:
    """det(x I - mat) modulo the prime p < 2^26, ascending powers of x: the
    determinant kernel's reference.

    A similarity transform to upper Hessenberg form h, then the recurrence
    of Cohen, "A Course in Computational Algebraic Number Theory", Algorithm
    2.2.9. Every value that is multiplied is first reduced into [0, p), so a
    product is below 2^52, and a dot adds at most 512 of them, below 2^61:
    no int64 product or sum can overflow.
    """
    n = len(mat)
    h = np.asarray(mat, dtype=np.int64) % p
    for j in range(n - 2):
        nonzero = np.flatnonzero(h[j + 1 :, j])
        if not len(nonzero):
            continue
        piv = j + 1 + nonzero[0]
        h[[j + 1, piv]] = h[[piv, j + 1]]
        h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        # rows i > j + 1 lose mult_i times row j + 1; column j + 1 gains mult_i times column i
        mult = h[j + 2 :, j] * pow(int(h[j + 1, j]), -1, p) % p
        h[j + 2 :, j:] = (h[j + 2 :, j:] - mult[:, None] * h[j + 1, j:]) % p
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ mult) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    scale = np.ones(n, dtype=np.int64)
    for m in range(1, n + 1):
        # p_m = x p_{m-1} - sum_{k < m} h[k, m-1] scale_k p_k, scale_k = prod_{k < r < m} h[r, r-1]
        scale[: m - 1] = scale[: m - 1] * h[m - 1, m - 2] % p
        w = scale[:m] * h[:m, m - 1] % p
        polys[m, 1:] = polys[m - 1, :-1]
        polys[m, :m] = (polys[m, :m] - w @ polys[:m, :m]) % p
    return polys[n]


def det_at(g: MultiGraph, t: int) -> int:
    """det(I - A t + Q t^2) at an integer t, exactly."""
    deg, adj = g.degree_sequence, g.adjacency
    v = g.vertex_count
    return bareiss_det(
        [
            [(i == j) * (1 + (deg[i] - 1) * t * t) - int(adj[i, j]) * t for j in range(v)]
            for i in range(v)
        ]
    )


def walk_counts_by_dict(sym, length: int) -> list[int]:
    """W_j = closed walks of length j in the Z^k cover of a torus symbol,
    summed over base vertices, for j = 0..length: a dictionary walk of every
    length from each start, with no symmetry assumed."""
    counts = [0] * (length + 1)
    counts[0] = sym.vertex_count
    origin = (0,) * sym.rank
    for start in range(sym.vertex_count):
        state = {(start, origin): 1}
        for j in range(1, length + 1):
            nxt: dict = {}
            for (x, disp), cnt in state.items():
                for sx, sy, freq, coeff in sym.terms:
                    if sx == x:
                        key = (sy, tuple(d + f for d, f in zip(disp, freq)))
                        nxt[key] = nxt.get(key, 0) + cnt * coeff
            state = nxt
            counts[j] += state.get((start, origin), 0)
    return counts
