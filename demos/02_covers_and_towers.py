"""Covers from voltage assignments and the two tower constructions.

Run: python3 demos/02_covers_and_towers.py
"""

from graphzeta import (
    VoltageAssignment,
    bouquet_graph,
    complete_graph,
    covering_projection,
    cycle_graph,
    derived_graph,
    det_poly,
    homology_tower,
    lattice_tower,
    validate_cover,
)


def main():
    loop = bouquet_graph(1)

    print("== unrolling the loop: Z/n voltages give the n-cycle ==")
    for n in (3, 5, 8):
        cover = derived_graph(loop, VoltageAssignment.cyclic((1,), n))
        same = det_poly(cover).to_list() == det_poly(cycle_graph(n)).to_list()
        print(f"  n={n}: {cover.vertex_count} vertices, zeta matches C{n}: {same}")

    print("\n== a Z/4 cover of K4, validated against the base ==")
    k4 = complete_graph(4)
    volt = VoltageAssignment.cyclic((1, 2, 0, 1, 1, 0), 4)
    cover = derived_graph(k4, volt)
    proj = covering_projection(k4, cover)
    print(f"  cover: {cover.vertex_count} vertices, connected: {cover.is_connected}")
    print("  local isomorphism holds:", validate_cover(cover, k4, proj))
    print("  det_poly(K4) divides det_poly(cover):",
          det_poly(k4).divides(det_poly(cover)))

    print("\n== cyclic tower over the loop: the rank-1 lattice tower ==")
    tower = lattice_tower(loop, [(1,)], (1, 2, 4, 8, 16))
    for lvl in tower.levels:
        print(f"  index {lvl.index:>3}: {lvl.graph.vertex_count} vertices,"
              f" connected: {lvl.graph.is_connected}")
    print("  limit verified:", tower.limit_verified)

    print("\n== discrete torus tower over the 2-loop bouquet ==")
    b2 = bouquet_graph(2)
    lat = lattice_tower(b2, ((1, 0), (0, 1)), (1, 2, 4, 8))
    print("  indices:", lat.indices)
    print("  sizes:", [lvl.graph.vertex_count for lvl in lat.levels])

    print("\n== iterated mod-2 homology tower over the bouquet ==")
    hom = homology_tower(b2, 2, 2)
    print("  indices:", hom.indices)
    print("  sizes:", [lvl.graph.vertex_count for lvl in hom.levels])
    print("  provenance:", hom.provenance)


if __name__ == "__main__":
    main()
