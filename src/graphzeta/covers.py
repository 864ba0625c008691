"""Abelian voltage assignments, derived covering graphs, and towers.

A voltage assignment labels each edge of a base graph, in its stored
orientation, with an element of an abelian group; the reversed orientation
carries the negated element. The derived graph has vertex set
V(base) x G and, for every base edge (x, y) with voltage s and every g in
G, an edge from (x, g) to (y, g + s). Towers are increasing chains of such
covers sharing one base, with level indices N_1 = 1 | N_2 | N_3 | ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from pathlib import Path
from typing import Sequence

from . import graphs
from .errors import InputError, NumericError, ResourceError
from .graphs import (MultiGraph, json_int, load_graph, read_json, require_nodes, require_size,
                     spanning_forest)


def _entries(value, what: str) -> tuple:
    """`value`, a list, a tuple or an array, as a tuple; anything else (a
    string, a dict, a set, a value that is not iterable) is an InputError
    naming `what`: an unordered input is not taken as ordered."""
    if not isinstance(value, (str, dict, set, frozenset)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be a list, got {value!r}")


def _json_ints(value, what: str, least: int | None = None) -> list[int]:
    """The integers of a list (orders, a voltage row), each at least `least`
    where one is given; else InputError naming `what`."""
    return [json_int(c, f"an entry of {what}", least) for c in _entries(value, what)]


@dataclass(frozen=True)
class VoltageAssignment:
    """Edge voltages in a product of cyclic groups or in free abelian Z^k.

    `orders` gives the cyclic orders (n_1, ..., n_k) of a finite group, or
    None for the free abelian group of the given rank. `voltages` holds one
    k-tuple per base edge, aligned with the base's edge order and applying
    to the stored orientation. Finite voltages are stored reduced modulo
    their orders.
    """

    voltages: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...] | None
    rank: int

    def __post_init__(self) -> None:
        rank = json_int(self.rank, "rank", 1)
        rows = (_entries(row, "a voltage") for row in _entries(self.voltages, "voltages"))
        voltages = tuple(tuple(json_int(c, "an entry of voltages") for c in row) for row in rows)
        for sigma in voltages:
            if len(sigma) != rank:
                raise InputError(f"voltage {sigma!r} does not have rank {rank}")
        orders = self.orders
        if orders is not None:
            orders = tuple(_json_ints(orders, "orders", 1))
            if len(orders) != rank:
                raise InputError("orders and rank disagree")
            voltages = tuple(tuple(c % n for c, n in zip(sigma, orders)) for sigma in voltages)
        object.__setattr__(self, "voltages", voltages)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "rank", rank)

    @property
    def is_finite(self) -> bool:
        return self.orders is not None

    @classmethod
    def cyclic(cls, shifts: Sequence[int], order: int) -> "VoltageAssignment":
        return cls(tuple((s,) for s in shifts), (order,), 1)

    @classmethod
    def trivial(cls, edge_count: int) -> "VoltageAssignment":
        """The order-1 assignment: the cover it derives is the graph itself."""
        edge_count = json_int(edge_count, "edge_count", 0)
        return cls(((0,),) * edge_count, (1,), 1)

    @classmethod
    def free(cls, voltages: Sequence[Sequence[int]], rank: int | None = None) -> "VoltageAssignment":
        vs = _entries(voltages, "voltages")
        if rank is None:
            if not vs:
                raise InputError("rank is required for an empty voltage list")
            rank = len(_entries(vs[0], "a voltage"))
        return cls(vs, None, rank)

    @classmethod
    def product(cls, voltages: Sequence[Sequence[int]], orders: Sequence[int]) -> "VoltageAssignment":
        orders = _entries(orders, "orders")
        return cls(voltages, orders, len(orders))

    def reduced(self, orders: Sequence[int]) -> "VoltageAssignment":
        """The same voltages taken modulo the given cyclic orders."""
        return VoltageAssignment(self.voltages, orders, self.rank)


def derived_graph(base: MultiGraph, volt: VoltageAssignment) -> MultiGraph:
    """The covering graph derived from a finite abelian voltage assignment.

    Vertex (x, g) is stored at index x * |G| + index(g), with group elements
    enumerated lexicographically; this fixes the covering projection to
    index // |G|. A cover over SIZE_CAP vertices raises ResourceError before
    any of it is built.
    """
    if not volt.is_finite:
        raise InputError("a derived cover needs a finite voltage group (orders)")
    if len(volt.voltages) != base.edge_count:
        raise InputError(f"{len(volt.voltages)} voltages for {base.edge_count} edges")
    orders = volt.orders
    require_size(base.vertex_count * math.prod(orders), "the cover")
    elements = list(iter_product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elements)}
    size = len(elements)
    edges = []
    for (x, y), sigma in zip(base.edges, volt.voltages):
        for gi, g in enumerate(elements):
            h = tuple((a + b) % n for a, b, n in zip(g, sigma, orders))
            edges.append((x * size + gi, y * size + index[h]))
    name = None
    if base.name:
        name = f"{base.name}~{'x'.join(str(n) for n in orders)}"
    return MultiGraph(base.vertex_count * size, tuple(edges), name)


def covering_projection(base: MultiGraph, cover: MultiGraph) -> tuple[int, ...]:
    """The index // fiber-size projection used by derived graphs."""
    if cover.vertex_count % base.vertex_count:
        raise InputError("cover size is not a multiple of base size")
    fiber = cover.vertex_count // base.vertex_count
    return tuple(w // fiber for w in range(cover.vertex_count))


def validate_cover(
    cover: MultiGraph, base: MultiGraph, projection: Sequence[int]
) -> bool:
    """Check that projection is a covering map: surjective, constant fiber
    sizes, and a local isomorphism on every vertex star."""
    if len(projection) != cover.vertex_count:
        raise InputError("projection length must equal the cover's vertex count")
    proj = [json_int(p, "an entry of projection") for p in projection]
    if any(not 0 <= p < base.vertex_count for p in proj):
        raise InputError("projection hits a vertex outside the base")
    fibers = [0] * base.vertex_count
    for p in proj:
        fibers[p] += 1
    if min(fibers) == 0 or len(set(fibers)) != 1:
        return False
    base_stars = [
        tuple(sorted(other for _, other in base.incidences[x]))
        for x in range(base.vertex_count)
    ]
    for w in range(cover.vertex_count):
        star = tuple(sorted(proj[other] for _, other in cover.incidences[w]))
        if star != base_stars[proj[w]]:
            return False
    return True


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class TowerLevel:
    """A level of a tower: the cover of `parent` derived from the finite
    `voltages`, of degree `index` over the tower base.

    The parent is the base for lattice levels and the level below for
    homology levels; the base level is the trivial order-1 cover of itself.
    `graph` is derived and validated on first read.
    """

    index: int
    parent: MultiGraph
    voltages: VoltageAssignment

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", json_int(self.index, "index", 1))

    @cached_property
    def graph(self) -> MultiGraph:
        if self.voltages.is_finite and math.prod(self.voltages.orders) == 1:
            return self.parent
        cover = derived_graph(self.parent, self.voltages)
        if not validate_cover(cover, self.parent, covering_projection(self.parent, cover)):
            raise NumericError("internal error: derived graph failed cover validation")
        return cover


@dataclass(frozen=True)
class Tower:
    """A chain of covers of one base; level 1 is the base itself."""

    base: MultiGraph
    levels: tuple[TowerLevel, ...]
    provenance: str

    def __post_init__(self) -> None:
        if not self.levels:
            raise InputError("a tower needs at least one level")
        first = self.levels[0]
        if first.index != 1 or first.parent != self.base:
            raise InputError("the first level of a tower must be the base at index 1")
        for prev, cur in zip(self.levels, self.levels[1:]):
            if cur.index % prev.index:
                raise InputError(
                    f"tower indices must form a divisibility chain ({prev.index} !| {cur.index})"
                )
        for level in self.levels:
            parent, volt = level.parent, level.voltages
            if not volt.is_finite or len(volt.voltages) != parent.edge_count:
                raise InputError("a level's voltages must be finite, one per parent edge")
            order = math.prod(volt.orders)
            if parent.vertex_count * order != level.index * self.base.vertex_count:
                raise InputError("level size must be index * base size")
            if parent.euler_characteristic * order != level.index * self.base.euler_characteristic:
                raise InputError("level Euler characteristic must scale with the index")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(level.index for level in self.levels)

    @property
    def limit_verified(self) -> bool:
        """True when the indices strictly increase: no level repeats the one below."""
        return all(a < b for a, b in zip(self.indices, self.indices[1:]))


def lattice_tower(
    base: MultiGraph, voltages: Sequence[Sequence[int]], orders: Sequence[int]
) -> Tower:
    """Covers over (Z/n)^k for a chain of n starting at 1, the finite
    quotients of the Z^k cover the integer voltages describe (k = 1 gives
    cyclic covers).

    No level graph is built here, so the levels may be of any size.
    """
    volt_free = VoltageAssignment.free(voltages)
    k = volt_free.rank
    orders = _json_ints(orders, "orders")
    if not orders or orders[0] != 1:
        raise InputError("orders must start at 1 (the base level)")
    return Tower(
        base=base,
        levels=tuple(TowerLevel(n**k, base, volt_free.reduced((n,) * k)) for n in orders),
        provenance=f"(Z/n)^{k} covers, voltages {[list(v) for v in volt_free.voltages]}, n in {orders}",
    )


def is_prime(p: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7: exact below 3,215,031,751,
    the least composite that passes all four, and so for every p that
    `homology_tower` (p <= graphs.NODE_BUDGET) and `zeta._charpoly` (below 2^21) test."""
    if p < 11:
        return p in (2, 3, 5, 7)
    odd, halvings = p - 1, 0
    while odd % 2 == 0:
        odd, halvings = odd // 2, halvings + 1
    for a in (2, 3, 5, 7):  # p is a strong probable prime to base a
        x = pow(a, odd, p)
        if x == 1:
            continue
        for _ in range(halvings):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def homology_tower(base: MultiGraph, p: int, depth: int) -> Tower:
    """Iterated mod-p homology covers.

    At each step a breadth-first spanning tree from vertex 0 is chosen;
    the j-th non-tree edge receives the j-th standard generator of
    (Z/p)^r, r = edges - vertices + 1, and the next level is the derived
    graph. Every level but the top is built for its spanning tree, so one
    over SIZE_CAP vertices raises ResourceError; the top level is not built.
    A p over NODE_BUDGET, which no level above the base could fit, raises
    ResourceError before p is tested for primality, and so does a depth over
    log2(NODE_BUDGET) = 22: each step multiplies the index by p or repeats it.
    """
    p, depth = json_int(p, "p"), json_int(depth, "depth", 0)
    require_nodes(p, f"p = {p} is the least index of a homology level above the base")
    budget = graphs.NODE_BUDGET
    if depth > budget.bit_length() - 1:
        raise ResourceError(f"depth {depth} is over {budget.bit_length() - 1} = log2 of the node "
                            f"budget {budget}: deeper levels are repeats or over the budget")
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if not base.is_connected:
        raise InputError("homology towers need a connected base")
    levels = [TowerLevel(1, base, VoltageAssignment.trivial(base.edge_count))]
    index = 1
    for _ in range(depth):
        current = levels[-1].graph
        rank = current.edge_count - current.vertex_count + 1
        if rank == 0:
            levels.append(TowerLevel(index, current, VoltageAssignment.trivial(current.edge_count)))
            continue
        tree = {eidx for eidx, _, _ in spanning_forest(current)}
        generator = 0
        voltages = []
        for eidx in range(current.edge_count):
            if eidx in tree:
                voltages.append((0,) * rank)
            else:
                sigma = [0] * rank
                sigma[generator] = 1
                generator += 1
                voltages.append(tuple(sigma))
        index *= p**rank
        levels.append(TowerLevel(index, current, VoltageAssignment.product(voltages, (p,) * rank)))
    return Tower(
        base=base,
        levels=tuple(levels),
        provenance=f"iterated mod-{p} homology covers, depth {depth}",
    )


# ---------------------------------------------------------------------------
# JSON formats


def voltage_from_json(doc: dict) -> VoltageAssignment:
    """Voltage file: {"voltages": [[..], ..], "orders": [n, ..]} or {"rank": k};
    with neither, a free assignment of the rank of its first voltage. Rank-1
    voltages may be given as one integer per edge."""
    if not isinstance(doc, dict) or "voltages" not in doc:
        raise InputError('voltage JSON needs a "voltages" list')
    rows = _entries(doc["voltages"], 'voltage JSON "voltages"')
    if rows and not isinstance(rows[0], list):
        rows = [[v] for v in rows]
    voltages = [_json_ints(sigma, "a voltage") for sigma in rows]
    if "orders" in doc:
        return VoltageAssignment.product(voltages, _json_ints(doc["orders"], "the cyclic orders"))
    rank = json_int(doc["rank"], "rank") if "rank" in doc else None
    return VoltageAssignment.free(voltages, rank)


def load_voltages(path: "str | Path") -> VoltageAssignment:
    return voltage_from_json(read_json(path, "voltage file"))


_SPEC_KEYS = {
    "cyclic": ("voltages", "orders"),
    "lattice": ("voltages", "orders"),
    "homology": ("p", "depth"),
}


def spec_base_path(doc: dict, base_dir: "str | Path" = ".") -> Path:
    """The base graph file a tower spec names, relative paths resolved
    against `base_dir`."""
    if not isinstance(doc["base"], str):
        raise InputError(f'tower spec "base" must be a file name, got {doc["base"]!r}')
    return Path(base_dir) / doc["base"]


def tower_from_spec(doc: dict, base_dir: "str | Path" = ".") -> Tower:
    """Tower spec: {"base": graph-file, "kind": "cyclic"|"lattice"|"homology", ...}.

    Cyclic towers need "voltages" (one integer per base edge) and "orders";
    lattice towers need "voltages" (one list of k integers per base edge,
    for (Z/n)^k levels) and "orders"; both are built by `lattice_tower`.
    Homology towers need "p" and "depth". Any other key, or a document that
    is not a JSON object, is an InputError. Relative base paths resolve
    against `base_dir`.
    """
    if not isinstance(doc, dict) or "base" not in doc or "kind" not in doc:
        raise InputError('tower spec needs "base" and "kind"')
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise InputError(f'unknown tower kind {kind!r} (expected one of {", ".join(_SPEC_KEYS)})')
    unknown = sorted(set(doc) - {"base", "kind", *_SPEC_KEYS[kind]})
    if unknown:
        raise InputError(f"a {kind} tower spec takes no {', '.join(map(repr, unknown))}")
    missing = [key for key in _SPEC_KEYS[kind] if key not in doc]
    if missing:
        raise InputError(f"a {kind} tower spec needs {' and '.join(map(repr, missing))}")
    base = load_graph(spec_base_path(doc, base_dir))
    if kind == "homology":
        return homology_tower(base, doc["p"], doc["depth"])
    orders = _json_ints(doc["orders"], 'tower spec "orders"')
    if kind == "cyclic":
        voltages = [[s] for s in _json_ints(doc["voltages"], 'tower spec "voltages"')]
    else:
        rows = _entries(doc["voltages"], 'lattice tower spec "voltages"')
        voltages = [_json_ints(sigma, 'a row of tower spec "voltages"') for sigma in rows]
    return lattice_tower(base, voltages, orders)


def load_tower_spec(path: "str | Path") -> Tower:
    return tower_from_spec(read_json(path, "tower spec"), Path(path).parent)
