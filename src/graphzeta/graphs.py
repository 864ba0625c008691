"""Finite undirected multigraphs and their adjacency spectra.

Conventions used throughout the package:

* loops and parallel edges are allowed;
* a loop at x contributes 2 to degree(x) and 2 to the adjacency entry (x, x);
* the Euler characteristic is chi = vertex_count - edge_count.

Graphs are immutable; derived quantities (degrees, adjacency matrix,
spectrum) are cached on first use.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError, UnsupportedError

SIZE_CAP = 10_000  # most vertices of a graph that is derived or densely diagonalized
NODE_BUDGET = 2**22  # most nodes of a quadrature, most eigenvalues of a level spectrum


@dataclass(frozen=True)
class MultiGraph:
    """An undirected multigraph on vertices 0 .. vertex_count-1.

    Edges are stored as ordered pairs so that voltage assignments can refer
    to a definite orientation, but the graph itself is undirected: (x, y)
    and (y, x) describe the same edge.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        vertices = json_int(self.vertex_count, "vertex_count")
        if vertices < 1:
            raise InputError("vertex_count must be a positive integer")
        try:
            pairs = [(x, y) for x, y in self.edges]
        except (TypeError, ValueError) as exc:  # edges, or an edge, that is not a pair
            raise InputError(f"edges must be pairs of vertices: {exc}") from exc
        edges = tuple((json_int(x, "an edge end"), json_int(y, "an edge end")) for x, y in pairs)
        for x, y in edges:
            if not (0 <= x < vertices and 0 <= y < vertices):
                raise InputError(f"edge ({x}, {y}) has an endpoint outside 0..{vertices - 1}")
        object.__setattr__(self, "vertex_count", vertices)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - len(self.edges)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Symmetric adjacency matrix; loops count 2 on the diagonal."""
        a = np.zeros((self.vertex_count, self.vertex_count), dtype=np.float64)
        for x, y in self.edges:
            a[x, y] += 1.0
            a[y, x] += 1.0
        a.setflags(write=False)
        return a

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        degrees = [0] * self.vertex_count
        for x, y in self.edges:
            degrees[x] += 1
            degrees[y] += 1
        return tuple(degrees)

    @cached_property
    def incidences(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: (edge_index, other_endpoint) pairs; loops appear twice."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for idx, (x, y) in enumerate(self.edges):
            inc[x].append((idx, y))
            inc[y].append((idx, x))
        return tuple(tuple(entries) for entries in inc)

    @cached_property
    def component_count(self) -> int:
        return self.vertex_count - sum(1 for _ in spanning_forest(self))

    @property
    def is_connected(self) -> bool:
        return self.component_count == 1


def spanning_forest(g: MultiGraph):
    """Breadth-first spanning forest grown from the first vertex of each
    component: (edge index, tree vertex, new vertex) per tree edge."""
    seen = [False] * g.vertex_count
    for root in range(g.vertex_count):
        queue = [] if seen[root] else [root]
        seen[root] = True
        for v in queue:  # grows while it is read: first in, first out
            for eidx, other in g.incidences[v]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
                    yield eidx, v, other


@dataclass(frozen=True)
class RegularityInfo:
    """q = degree - 1, defined only when the graph is regular."""

    is_regular: bool
    q: int | None


def regularity(g: MultiGraph) -> RegularityInfo:
    degrees = g.degree_sequence
    is_regular = len(set(degrees)) == 1
    q = degrees[0] - 1 if is_regular else None
    return RegularityInfo(is_regular, q)


def regular_q(g: MultiGraph) -> int:
    """q = degree - 1 of a (q+1)-regular graph with q >= 1, the graphs that
    zeros, N-th roots, L2 zetas and the functional equation are defined for;
    UnsupportedError for any other graph."""
    q = regularity(g).q
    if q is None or q < 1:
        raise UnsupportedError(
            f"{g.name or 'the graph'} is not (q+1)-regular with q >= 1 "
            f"(degrees {sorted(set(g.degree_sequence))})"
        )
    return q


def require_size(vertices: int, what: str) -> None:
    """ResourceError, naming `what` and its size, past SIZE_CAP vertices."""
    if vertices > SIZE_CAP:
        raise ResourceError(f"{what} needs {vertices} vertices, over the cap of {SIZE_CAP}")


@lru_cache(maxsize=16)
def spectrum(g: MultiGraph) -> np.ndarray:
    """Eigenvalues of the adjacency matrix via the dense symmetric solver,
    sorted ascending and read-only.

    A graph over SIZE_CAP vertices raises ResourceError before its adjacency
    matrix exists; solver failure is reported as a NumericError rather than
    a partial spectrum. Results are memoized for the last 16 graphs.
    """
    require_size(g.vertex_count, f"a dense spectrum of {g.name or 'the graph'}")
    try:
        eigs = np.linalg.eigvalsh(g.adjacency)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc
    eigs.setflags(write=False)
    return eigs


# ---------------------------------------------------------------------------
# standard construction helpers


def cycle_graph(n: int) -> MultiGraph:
    """The n-cycle; n=1 is a single loop, n=2 a doubled edge."""
    n = json_int(n, "n")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)), name=f"C{n}")


def complete_graph(n: int) -> MultiGraph:
    n = json_int(n, "n")
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return MultiGraph(n, edges, name=f"K{n}")


def bouquet_graph(loops: int) -> MultiGraph:
    """One vertex carrying the given number of loops."""
    loops = json_int(loops, "loops")
    if loops < 0:
        raise InputError(f"loops must be >= 0, got {loops}")
    return MultiGraph(1, tuple((0, 0) for _ in range(loops)), name=f"B{loops}")


def petersen_graph() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph(10, tuple(outer + spokes + inner), name="Petersen")


# ---------------------------------------------------------------------------
# JSON graph format: {"vertices": int, "edges": [[a, b], ...], "name": optional}


def graph_to_json(g: MultiGraph) -> dict:
    doc: dict = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
    if g.name is not None:
        doc["name"] = g.name
    return doc


def json_int(value, what: str) -> int:
    """`value` as an int: an int, a numpy integer or an integral float (as a
    JSON number may be written); a bool or any other value is an InputError
    naming `what`. The one integer check of the package's API and files."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def json_float(value, what: str) -> float:
    """`value` as a float: a finite int, float or numpy real number; a bool,
    a string, a non-finite number or any other value is an InputError naming
    `what`. The one real-number check of the package's API."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    huge = isinstance(value, int) and abs(value) > sys.float_info.max  # float() would overflow
    if real and not huge and math.isfinite(value):
        return float(value)
    raise InputError(f"{what} must be a finite real number, got {value!r}")


def graph_from_json(doc: dict) -> MultiGraph:
    """The graph of a JSON document; ResourceError past SIZE_CAP vertices,
    before anything sized by the vertex count exists."""
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise InputError('graph JSON needs "vertices" and "edges" keys')
    vertices = json_int(doc["vertices"], "vertices")
    require_size(vertices, "a graph file")
    return MultiGraph(vertices, doc["edges"], doc.get("name"))


def save_graph(g: MultiGraph, path: "str | Path") -> None:
    write_text(path, json.dumps(graph_to_json(g), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# files: write_text writes every file the package writes, read_json reads
# every JSON file it reads


def write_text(path: "str | Path", text: str) -> str:
    """Writes `text` as UTF-8, creating the parent directory; returns the
    SHA-256 of the bytes written. InputError when the file cannot be written
    (its path is a directory, a parent is a file, no permission)."""
    path, data = Path(path), text.encode()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return hashlib.sha256(data).hexdigest()


def write_rows(path: "str | Path", header: Sequence[str], columns: Iterable[Sequence]) -> str:
    """A CSV from its columns, each a sequence or array of one type. A column
    becomes Python values once (`tolist`) and each field is their str: a
    number is the repr of a Python int or float, so that it parses back to
    the same value. Returns write_text's hash."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return write_text(path, "\n".join(lines) + "\n")


def read_json(path: "str | Path", what: str):
    """The JSON document in a file; InputError, naming `what`, when the file
    cannot be read (missing, a directory, no permission) or is not valid JSON."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # invalid JSON or invalid text encoding
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_graph(path: "str | Path") -> MultiGraph:
    return graph_from_json(read_json(path, "graph file"))
