import json

import numpy as np
import pytest

from graphzeta import (
    InputError,
    MultiGraph,
    NumericError,
    ResourceError,
    Tower,
    TowerLevel,
    VoltageAssignment,
    bouquet_graph,
    covers,
    covering_projection,
    cycle_graph,
    derived_graph,
    det_poly,
    graphs,
    homology_tower,
    lattice_tower,
    load_tower_spec,
    spectrum,
    validate_cover,
    voltage_from_json,
)

from corpus import B2, K4, LOOP, path_graph


def test_voltage_validation():
    with pytest.raises(InputError):
        VoltageAssignment(((1,),), (3, 5), 2)  # rank mismatch in a voltage
    with pytest.raises(InputError):
        VoltageAssignment(((1, 2),), (3,), 1)
    v = VoltageAssignment.cyclic((5, 0, -2), 4)
    assert v.is_finite and v.orders == (4,)
    assert v.voltages == ((1,), (0,), (2,))  # finite voltages are stored reduced
    f = VoltageAssignment.free(((1, 0), (0, 1)))
    assert not f.is_finite and f.rank == 2
    assert f.reduced((1, 3)) == VoltageAssignment(((0, 0), (0, 1)), (1, 3), 2)
    # orders are checked before anything is reduced modulo them
    with pytest.raises(InputError, match="an entry of orders must be an integer >= 1, got 0"):
        VoltageAssignment.cyclic((1,), 0)
    with pytest.raises(InputError, match="orders and rank disagree"):
        f.reduced((2,))


def test_loop_cyclic_cover_is_a_cycle():
    # the loop with shift 1 over Z/n unrolls to the n-cycle
    for n in (2, 3, 6):
        cover = derived_graph(LOOP, VoltageAssignment.cyclic((1,), n))
        assert cover.vertex_count == n
        assert cover.edge_count == n
        assert cover.is_connected
        assert det_poly(cover).to_list() == det_poly(cycle_graph(n)).to_list()


def test_doubled_edge_cover_unrolls_to_even_cycle():
    c2 = cycle_graph(2)
    cover = derived_graph(c2, VoltageAssignment.cyclic((0, 1), 4))
    assert cover.vertex_count == 8
    assert cover.is_connected
    assert det_poly(cover).to_list() == det_poly(cycle_graph(8)).to_list()


def test_zero_voltages_give_disjoint_copies():
    cover = derived_graph(K4, VoltageAssignment.cyclic((0,) * 6, 3))
    assert cover.vertex_count == 12
    assert cover.component_count == 3


def test_projection_and_validation():
    volt = VoltageAssignment.cyclic((1, 0, 2, 1, 0, 1), 3)
    cover = derived_graph(K4, volt)
    proj = covering_projection(K4, cover)
    assert len(proj) == 12
    assert validate_cover(cover, K4, proj)
    # fiber over each base vertex has the group's size
    assert all(sum(1 for p in proj if p == x) == 3 for x in range(4))


def test_validate_rejects_non_covers():
    # C3 does not cover C2 (odd over even), any vertex map fails the star check
    c2, c3 = cycle_graph(2), cycle_graph(3)
    assert not validate_cover(c3, c2, (0, 1, 0))
    with pytest.raises(InputError):
        validate_cover(c3, c2, (0, 1))  # wrong length
    with pytest.raises(InputError, match="hits a vertex outside the base"):
        validate_cover(c3, c2, (0, 1, 2))
    with pytest.raises(InputError, match="not a multiple of base size"):
        covering_projection(K4, cycle_graph(6))
    with pytest.raises(InputError, match="2 voltages for 6 edges"):
        derived_graph(K4, VoltageAssignment.cyclic((1, 0), 3))


def test_cover_spectrum_contains_base_spectrum():
    volt = VoltageAssignment.cyclic((1, 2, 0, 1, 1, 0), 4)
    cover = derived_graph(K4, volt)
    base_eigs = spectrum(K4)
    cover_eigs = spectrum(cover)
    for lam in base_eigs:
        assert np.min(np.abs(cover_eigs - lam)) < 1e-9


def test_cover_det_poly_divisible_by_base():
    volt = VoltageAssignment.cyclic((1, 2, 0, 1, 1, 0), 4)
    cover = derived_graph(K4, volt)
    assert det_poly(K4).divides(det_poly(cover))


def test_cyclic_tower_structure():
    tower = lattice_tower(LOOP, [(1,)], (1, 2, 4, 8))
    assert tower.indices == (1, 2, 4, 8)
    assert [lvl.graph.vertex_count for lvl in tower.levels] == [1, 2, 4, 8]
    assert tower.levels[0].graph == LOOP
    assert tower.limit_verified
    assert tower.provenance == "(Z/n)^1 covers, voltages [[1]], n in [1, 2, 4, 8]"
    with pytest.raises(InputError, match="must start at 1"):
        lattice_tower(LOOP, [(1,)], (2, 4))
    with pytest.raises(InputError, match=r"divisibility chain \(2 !\| 3\)"):
        lattice_tower(LOOP, [(1,)], (1, 2, 3))
    with pytest.raises(InputError, match="an entry of orders must be an integer >= 1, got 0"):
        lattice_tower(LOOP, [(1,)], (1, 2, 0))  # 2 | 0, but no group has order 0
    with pytest.raises(InputError, match="one per parent edge"):
        lattice_tower(LOOP, [(1,), (0,)], (1, 2))


def test_lattice_tower_structure():
    tower = lattice_tower(B2, ((1, 0), (0, 1)), (1, 2, 4))
    assert tower.indices == (1, 4, 16)
    assert [lvl.graph.vertex_count for lvl in tower.levels] == [1, 4, 16]
    assert tower.limit_verified


def test_lattice_levels_past_the_vertex_cap_build_no_graph():
    # the (Z/1000)^2 level has 10^6 vertices: the tower holds it, its graph is refused
    tower = lattice_tower(B2, ((1, 0), (0, 1)), (1, 2, 1000))
    assert tower.indices == (1, 4, 10**6)
    with pytest.raises(ResourceError, match="the cover needs 1000000 vertices, over the cap of 10000"):
        tower.levels[2].graph
    assert derived_graph(LOOP, VoltageAssignment.cyclic((1,), 10**4)).vertex_count == 10**4
    with pytest.raises(ResourceError, match="10001 vertices"):
        derived_graph(LOOP, VoltageAssignment.cyclic((1,), 10**4 + 1))


def test_homology_tower_bouquet_sizes():
    tower = homology_tower(B2, 2, 2)
    assert [lvl.graph.vertex_count for lvl in tower.levels] == [1, 4, 128]
    assert tower.indices == (1, 4, 128)
    assert all(lvl.graph.is_connected for lvl in tower.levels)
    assert tower.limit_verified


def test_homology_parent_over_the_vertex_cap(monkeypatch):
    # depth 3 builds the 128-vertex level 3 for its spanning tree; depth 2 never builds it
    monkeypatch.setattr(graphs, "SIZE_CAP", 127)
    with pytest.raises(ResourceError, match="the cover needs 128 vertices, over the cap of 127"):
        homology_tower(B2, 2, 3)
    assert homology_tower(B2, 2, 2).indices == (1, 4, 128)
    with pytest.raises(InputError):
        homology_tower(B2, 4, 1)  # 4 is not prime
    # a prime past the node budget is refused before the primality test would run
    with pytest.raises(ResourceError, match="p = 2305843009213693951 is the least index of a homology "
                       "level above the base, over the node budget of 4194304"):
        homology_tower(B2, 2**61 - 1, 0)
    # past depth 22 = log2(NODE_BUDGET) a step repeats its level (rank 0) or passes the budget
    with pytest.raises(ResourceError, match="depth 23 is over 22 = log2 of the node budget 4194304"):
        homology_tower(path_graph(3), 3, 23)
    assert homology_tower(path_graph(3), 3, 22).indices == (1,) * 23
    assert homology_tower(path_graph(3), 3, 2).indices == (1, 1, 1)


def test_homology_tower_needs_a_connected_base():
    two_triangles = MultiGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    with pytest.raises(InputError, match="homology towers need a connected base"):
        homology_tower(two_triangles, 2, 1)


def test_spanning_tree():
    tree = list(graphs.spanning_forest(K4))
    assert len(tree) == 3
    # each tree edge joins a reached vertex to a new one, and every vertex is reached
    for k, x, y in tree:
        assert K4.edges[k] in ((x, y), (y, x))
    assert {0} | {y for _, _, y in tree} == {0, 1, 2, 3}


def test_tower_invariants_enforced():
    lvl = lattice_tower(LOOP, [(1,)], (1, 2)).levels
    with pytest.raises(InputError, match="first level"):
        Tower(base=LOOP, levels=(lvl[1],), provenance="manual")
    with pytest.raises(InputError, match="at least one level"):
        Tower(base=LOOP, levels=(), provenance="manual")
    broken = {
        "divisibility chain": [
            TowerLevel(2, LOOP, VoltageAssignment.cyclic((1,), 2)),
            TowerLevel(3, LOOP, VoltageAssignment.cyclic((1,), 3)),
        ],
        "one per parent edge": [TowerLevel(2, LOOP, VoltageAssignment.cyclic((1, 0), 2))],
        "must be finite": [TowerLevel(2, LOOP, VoltageAssignment.free(((1,),)))],
        "size must be index": [TowerLevel(3, LOOP, VoltageAssignment.cyclic((1,), 2))],
        # B2 has the loop's vertex count, but Euler characteristic -1, not 0
        "Euler characteristic": [TowerLevel(2, B2, VoltageAssignment.cyclic((1, 0), 2))],
    }
    for rule, levels in broken.items():
        with pytest.raises(InputError, match=rule):
            Tower(base=LOOP, levels=(lvl[0], *levels), provenance="manual")


def test_a_tower_level_of_index_below_1_is_an_input_error():
    # a level of index 0 under one of index 2 would divide by 0 in the chain check
    top = TowerLevel(2, LOOP, VoltageAssignment.cyclic((1,), 2))
    for index in (0, -2):
        with pytest.raises(InputError, match=f"^index must be an integer >= 1, got {index}$"):
            Tower(base=LOOP, levels=(TowerLevel(1, LOOP, VoltageAssignment.trivial(1)),
                                     TowerLevel(index, LOOP, VoltageAssignment.trivial(1)), top),
                  provenance="manual")


def test_tower_indices_are_ints():
    # an integral float index is the int, so no file is named after 2.0
    levels = (TowerLevel(1.0, LOOP, VoltageAssignment.trivial(1)),
              TowerLevel(2.0, LOOP, VoltageAssignment.cyclic((1,), 2)))
    indices = Tower(base=LOOP, levels=levels, provenance="manual").indices
    assert indices == (1, 2) and all(type(n) is int for n in indices)


@pytest.mark.parametrize(
    "what, call",
    [
        ("a voltage", lambda: VoltageAssignment.product([1, 2], [3])),
        ("orders", lambda: VoltageAssignment.product([[1]], 3)),
        ("orders", lambda: lattice_tower(K4, [[1]] * 6, 5)),
        ("voltages", lambda: VoltageAssignment.free(7)),
        ("a voltage", lambda: VoltageAssignment.free([1, 2])),
        ("orders", lambda: VoltageAssignment(((1,),), 5, 1)),
        # an unordered input is not taken as ordered, nor a string as a list of characters
        pytest.param("orders", lambda: lattice_tower(LOOP, [(1,)], {1, 4, 2}), id="orders-a set"),
        pytest.param("voltages", lambda: VoltageAssignment.free({(1, 0), (0, 1)}), id="voltages-a set"),
        pytest.param("orders", lambda: VoltageAssignment(((1,),), frozenset({5}), 1), id="orders-a frozenset"),
        pytest.param("orders", lambda: VoltageAssignment.product([[1]], {5: "x"}), id="orders-a dict"),
        pytest.param("orders", lambda: VoltageAssignment.product([[1]], "5"), id="orders-a string"),
        pytest.param("a voltage", lambda: VoltageAssignment.free(["12"]), id="a voltage-a string"),
        pytest.param('voltage JSON "voltages"', lambda: voltage_from_json({"voltages": "12"}),
                     id="voltage file-a string"),
    ],
)
def test_a_list_argument_that_is_no_list_is_an_input_error(what, call):
    with pytest.raises(InputError, match=f"^{what} must be a list, got "):
        call()


@pytest.mark.parametrize(
    "tower",
    [
        lattice_tower(K4, [(s,) for s in (1, 2, 0, 1, 1, 0)], (1, 2, 4)),
        lattice_tower(B2, ((1, 0), (0, 1)), (1, 2, 4)),
        homology_tower(B2, 2, 2),
        homology_tower(cycle_graph(3), 2, 2),
        homology_tower(MultiGraph(2, [(0, 1)] * 3), 2, 2),
        homology_tower(path_graph(3), 3, 2),
    ],
    ids=["cyclic K4", "lattice B2", "B2 mod 2", "C3 mod 2", "theta mod 2", "rank-0 step"],
)
def test_level_graphs_are_validated_covers(tower):
    for level in tower.levels:
        g, parent = level.graph, level.parent
        derived = derived_graph(parent, level.voltages)
        assert (g.vertex_count, g.edges) == (derived.vertex_count, derived.edges)
        assert validate_cover(g, parent, covering_projection(parent, g))
    # the composed projection of a depth-2 top level onto the base is a covering
    if len(tower.levels) == 3 and tower.levels[2].parent is tower.levels[1].graph:
        middle, top = tower.levels[1].graph, tower.levels[2].graph
        to_base = covering_projection(tower.base, middle)
        composed = [to_base[w] for w in covering_projection(middle, top)]
        assert validate_cover(top, tower.base, composed)


def test_a_wrong_derived_graph_fails_on_read(monkeypatch):
    tower = lattice_tower(K4, [(s,) for s in (1, 2, 0, 1, 1, 0)], (1, 2))
    # a cycle has the cover's vertex count but the wrong vertex stars
    monkeypatch.setattr(covers, "derived_graph", lambda parent, volt: cycle_graph(8))
    with pytest.raises(NumericError, match="internal error"):
        tower.levels[1].graph
    assert tower.levels[0].graph is K4


def test_voltage_json(tmp_path):
    v = voltage_from_json({"voltages": [1, 0, 2], "orders": [4]})
    assert v.orders == (4,) and v.voltages == ((1,), (0,), (2,))
    v2 = voltage_from_json({"voltages": [[1, 0], [0, 1]], "rank": 2})
    assert not v2.is_finite and v2.rank == 2
    # no orders and no rank: free, with the rank read off the voltages
    v3 = voltage_from_json({"voltages": [1, 2]})
    assert not v3.is_finite and v3.rank == 1
    with pytest.raises(InputError):
        voltage_from_json({"voltages": []})
    with pytest.raises(InputError):
        voltage_from_json({"orders": [2]})


def test_tower_spec_loading(tmp_path):
    base_path = tmp_path / "loop.json"
    base_path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]]}))
    spec = tmp_path / "tower.json"
    spec.write_text(
        json.dumps(
            {"base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2, 4]}
        )
    )
    tower = load_tower_spec(spec)
    assert tower.indices == (1, 2, 4)
    # an absolute base path is read as it is, wherever the spec is
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "abs.json").write_text(json.dumps({"base": str(base_path), "kind": "cyclic",
                                                    "voltages": [1], "orders": [1, 2]}))
    assert load_tower_spec(elsewhere / "abs.json").base == tower.base
    spec2 = tmp_path / "tower_h.json"
    spec2.write_text(json.dumps({"base": "loop.json", "kind": "homology", "p": 3, "depth": 1}))
    tower2 = load_tower_spec(spec2)
    assert tower2.indices == (1, 3)
    # a lattice spec gives the (Z/n)^k tower of lattice_tower
    (tmp_path / "b2.json").write_text(json.dumps({"vertices": 1, "edges": [[0, 0]] * 2, "name": "B2"}))
    lattice = {"base": "b2.json", "kind": "lattice", "voltages": [[1, 0], [0, 1]], "orders": [1, 2, 1024]}
    spec2.write_text(json.dumps(lattice))
    tower3 = load_tower_spec(spec2)
    assert tower3.indices == (1, 4, 1024**2)
    assert tower3.levels == lattice_tower(B2, ((1, 0), (0, 1)), (1, 2, 1024)).levels
    bad = tmp_path / "bad.json"
    for doc in ({"base": "loop.json", "kind": "mystery"}, {**lattice, "voltages": [1, 0]},
                {**lattice, "voltages": [[1, 0], [0.5, 1]]}, {**lattice, "voltages": [[1, 0], [1]]},
                {**lattice, "base": 5}, {**lattice, "voltages": {"a": [1, 0]}},
                {**lattice, "voltages": "[[1, 0], [0, 1]]"}):
        bad.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            load_tower_spec(bad)
    # a spec takes the keys of its kind and no others, "size_cap" included
    cyclic = {"base": "loop.json", "kind": "cyclic", "voltages": [1], "orders": [1, 2, 4]}
    homology = {"base": "loop.json", "kind": "homology", "p": 3, "depth": 1}
    for doc, key in ((cyclic, "size_cap"), (cyclic, "p"), (homology, "size_cap"), (homology, "orders")):
        spec.write_text(json.dumps({**doc, key: 2}))
        with pytest.raises(InputError, match=f"a {doc['kind']} tower spec takes no '{key}'"):
            load_tower_spec(spec)
    # and every one of them
    for doc, key in ((cyclic, "orders"), (lattice, "voltages"), (homology, "p")):
        spec.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
        with pytest.raises(InputError, match=f"a {doc['kind']} tower spec needs '{key}'$"):
            load_tower_spec(spec)
    spec.write_text(json.dumps({"base": "loop.json", "kind": "homology"}))
    with pytest.raises(InputError, match="a homology tower spec needs 'p' and 'depth'"):
        load_tower_spec(spec)
