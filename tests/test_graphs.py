import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphzeta import (
    GridSpec,
    InputError,
    IntPolynomial,
    MultiGraph,
    NumericError,
    TowerLevel,
    VoltageAssignment,
    bouquet_graph,
    complete_graph,
    cycle_graph,
    derived_graph,
    equivariant_walk_counts,
    euler_log_coeffs,
    graph_from_json,
    graph_to_json,
    graphs,
    homology_tower,
    l2_series_oracle,
    lattice_tower,
    load_graph,
    normalized_zeta,
    nth_root_det,
    omega_contains,
    petersen_graph,
    regularity,
    save_graph,
    spectrum,
    torus_symbol,
    validate_cover,
    zeta_log_coeffs,
)
from graphzeta.region import check_q

from corpus import B2, K4, PETERSEN, path_graph


def test_validation_rejects_bad_input():
    with pytest.raises(InputError):
        MultiGraph(0, ())
    with pytest.raises(InputError):
        MultiGraph(2, ((0, 2),))
    with pytest.raises(InputError):
        MultiGraph(2, ((-1, 0),))
    for edges in (5, ((0, 1, 1),), ((0,),)):
        with pytest.raises(InputError, match="edges must be pairs of vertices"):
            MultiGraph(2, edges)


def test_counts_and_chi():
    assert K4.vertex_count == 4
    assert K4.edge_count == 6
    assert K4.euler_characteristic == -2
    assert PETERSEN.euler_characteristic == 10 - 15
    assert bouquet_graph(2).euler_characteristic == -1


def test_adjacency_and_degrees():
    assert np.array_equal(K4.adjacency, np.ones((4, 4)) - np.eye(4))
    assert K4.degree_sequence == (3, 3, 3, 3)
    # a loop contributes 2 to both the diagonal and the degree
    loop = bouquet_graph(1)
    assert loop.adjacency.tolist() == [[2.0]]
    assert loop.degree_sequence == (2,)
    doubled = cycle_graph(2)
    assert doubled.adjacency.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert doubled.degree_sequence == (2, 2)


def test_small_cycles_are_the_degenerate_cases():
    assert cycle_graph(1).edges == ((0, 0),)
    assert sorted(sorted(e) for e in cycle_graph(2).edges) == [[0, 1], [0, 1]]
    assert cycle_graph(5).edge_count == 5


def test_components():
    g = MultiGraph(5, [(0, 1), (1, 2), (3, 4)])
    assert not g.is_connected
    assert g.component_count == 2
    assert K4.is_connected


def test_regularity():
    info = regularity(K4)
    assert info.is_regular and info.q == 2
    info = regularity(path_graph(3))
    assert not info.is_regular and info.q is None
    assert regularity(petersen_graph()).q == 2
    assert regularity(bouquet_graph(2)).q == 3


def test_spectrum_closed_forms():
    s = spectrum(K4)
    assert np.allclose(s, [-1.0, -1.0, -1.0, 3.0])
    assert not s.flags.writeable  # the memoized array is shared
    # Petersen: -2 (x4), 1 (x5), 3
    assert np.allclose(spectrum(PETERSEN), [-2.0] * 4 + [1.0] * 5 + [3.0])
    # n-cycle: 2 cos(2 pi k / n)
    n = 7
    expected = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(spectrum(cycle_graph(n)), expected)


def test_json_roundtrip(tmp_path):
    doc = graph_to_json(K4)
    assert doc["vertices"] == 4
    assert graph_from_json(doc) == K4
    path = tmp_path / "new" / "g.json"  # the writer creates the directory
    save_graph(PETERSEN, path)
    assert load_graph(path) == PETERSEN
    raw = json.loads(path.read_text())
    assert set(raw) <= {"vertices", "edges", "name"}


def test_load_errors(tmp_path):
    with pytest.raises(InputError):
        load_graph(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_graph(bad)
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    for unreadable in (tmp_path, tmp_path / "binary.json"):
        with pytest.raises(InputError):
            load_graph(unreadable)
    with pytest.raises(InputError):
        graph_from_json({"edges": [[0, 1]]})


def test_graphs_holds_the_only_file_writer():
    # every output goes through graphs.write_text; no other module creates a
    # directory or writes a file itself
    writers = {"write_text", "write_bytes", "mkdir", "makedirs", "touch"}
    found = []
    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in writers:
                if not (isinstance(func.value, ast.Name) and func.value.id == "graphs"):
                    found.append(f"{path.name}:{node.lineno} .{func.attr}()")
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
                    found.append(f"{path.name}:{node.lineno} open() for writing")
    assert found == []


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=1,
                max_size=8,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_spectrum_is_relabeling_invariant(data):
    n, edges, perm = data
    g = MultiGraph(n, edges)
    h = MultiGraph(n, [(perm[x], perm[y]) for x, y in edges])
    assert np.allclose(spectrum(g), spectrum(h), atol=1e-9)


_B2_Z2 = VoltageAssignment.free(((1, 0), (0, 1)))
_B2_SYMBOL = torus_symbol(B2, _B2_Z2)
_K4_3 = VoltageAssignment.cyclic((1, 0, 0, 0, 0, 0), 3)

# every entry point that takes an integer, as (argument as it reads in the
# error, call), and its least value where it has one
INTEGER_ENTRY_POINTS = {
    "MultiGraph vertex_count": ("vertex_count", lambda x: MultiGraph(x, ((0, 1),)), 1),
    "MultiGraph edges": ("an edge end", lambda x: MultiGraph(4, ((0, x),))),
    "VoltageAssignment voltages": ("an entry of voltages", lambda x: VoltageAssignment(((x,),), (5,), 1)),
    "VoltageAssignment orders": ("an entry of orders", lambda x: VoltageAssignment(((1,),), (x,), 1), 1),
    "VoltageAssignment rank": ("rank", lambda x: VoltageAssignment(((1, 2, 3),), None, x), 1),
    "VoltageAssignment.cyclic": ("an entry of orders", lambda x: VoltageAssignment.cyclic((1,), x), 1),
    "VoltageAssignment.product": ("an entry of orders", lambda x: VoltageAssignment.product([[1]], [x]), 1),
    "VoltageAssignment.free": ("rank", lambda x: VoltageAssignment.free([[1, 2, 3]], x), 1),
    "VoltageAssignment.reduced": ("an entry of orders", lambda x: _B2_Z2.reduced((2, x)), 1),
    "VoltageAssignment.trivial": ("edge_count", VoltageAssignment.trivial, 0),
    "TowerLevel index": ("index", lambda x: TowerLevel(x, K4, VoltageAssignment.trivial(6)), 1),
    "lattice_tower orders": ("an entry of orders", lambda x: lattice_tower(cycle_graph(1), [(1,)], [1, x]), 1),
    "lattice_tower voltages": ("an entry of voltages", lambda x: lattice_tower(K4, [(x,)] * 6, [1, 2])),
    "homology_tower p": ("p", lambda x: homology_tower(K4, x, 1)),
    "homology_tower depth": ("depth", lambda x: homology_tower(cycle_graph(3), 2, x), 0),
    "IntPolynomial": ("an entry of coefficients", lambda x: IntPolynomial((1, x))),
    "validate_cover": (
        "an entry of projection",
        lambda x: validate_cover(cycle_graph(8), cycle_graph(4), (0, 1, 2, x, 0, 1, 2, 3)),
    ),
    "check_q": ("q", check_q, 1),
    "GridSpec q": ("q", lambda x: GridSpec(x, 0.5, 3), 1),
    "GridSpec resolution": ("resolution", lambda x: GridSpec(2, 0.5, x), 1),
    "cycle_graph": ("n", cycle_graph, 1),
    "complete_graph": ("n", complete_graph, 1),
    "bouquet_graph": ("loops", bouquet_graph, 0),
    "euler_log_coeffs": ("terms", lambda x: euler_log_coeffs(K4, x), 1),
    "zeta_log_coeffs": ("terms", lambda x: zeta_log_coeffs(K4, x), 1),
    "nth_root_det": ("n", lambda x: nth_root_det(K4, x, 0.1), 1),
    "normalized_zeta": ("n", lambda x: normalized_zeta(derived_graph(K4, _K4_3), x, -2, 0.1), 1),
    "equivariant_walk_counts": ("length", lambda x: equivariant_walk_counts(_B2_SYMBOL, x), 0),
    "l2_series_oracle terms": ("terms", lambda x: l2_series_oracle(_B2_SYMBOL, 3, 0.01, x), 1),
    "l2_series_oracle q": ("q", lambda x: l2_series_oracle(_B2_SYMBOL, x, 0.01, 3), 1),
}


@pytest.mark.parametrize("name", INTEGER_ENTRY_POINTS)
def test_every_integer_argument_follows_one_rule(name):
    """json_int everywhere: a numpy integer or an integral float is the int,
    and a fraction, a bool or a string is an InputError naming the argument,
    as is an integer below its least value where the row gives one, in one
    message that names the least value and the integer."""
    what, call, *least = INTEGER_ENTRY_POINTS[name]
    expected = call(3)
    for same in (np.int64(3), 3.0):
        assert call(same) == expected
    for bad in (2.5, True, "3"):
        with pytest.raises(InputError) as info:
            call(bad)
        assert f"{what} must be an integer, got {bad!r}" in str(info.value)
    for bound in least:
        for low in (bound - 1, np.int64(bound - 1), float(bound - 1)):
            with pytest.raises(InputError) as info:
                call(low)
            assert str(info.value) == f"{what} must be an integer >= {bound}, got {bound - 1}"


REAL_ENTRY_POINTS = {
    "GridSpec radius": ("radius", lambda x: GridSpec(2, x, 3)),
    "GridSpec margin": ("margin", lambda x: GridSpec(2, 0.5, 3, x)),
    "omega_contains margin": ("margin", lambda x: omega_contains(2, 0.1, x)),
}


@pytest.mark.parametrize("name", REAL_ENTRY_POINTS)
def test_every_real_argument_follows_one_rule(name):
    """json_float everywhere: a numpy real is the float, and a bool, a
    string, a complex, a list or a non-finite number is an InputError naming
    the argument."""
    what, call = REAL_ENTRY_POINTS[name]
    expected = call(0.25)
    for same in (np.float64(0.25), np.float32(0.25)):
        assert call(same) == expected
    for bad in (True, "0.25", 0.25j, [0.25], float("nan"), float("inf"), 10**400):
        with pytest.raises(InputError) as info:
            call(bad)
        assert f"{what} must be a finite real number, got {bad!r}" in str(info.value)
