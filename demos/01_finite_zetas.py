"""Zeta functions of small graphs: determinant polynomials, zeros, and
the Euler-product cross-check.

Run: python3 demos/01_finite_zetas.py
"""

from fractions import Fraction

from graphzeta import (
    complete_graph,
    cycle_graph,
    det_poly,
    euler_log_coeffs,
    functional_equation_mismatch,
    functional_equation_sides,
    petersen_graph,
    zeta_eval,
    zeta_log_coeffs,
    zeta_zeros,
)


def show(g):
    print(f"\n{g.name}: {g.vertex_count} vertices, {g.edge_count} edges, "
          f"chi = {g.euler_characteristic}")
    print("  det poly:", det_poly(g).to_list())
    print("  Z(0.1)  :", zeta_eval(g, 0.1))


def main():
    print("== determinant polynomials ==")
    for g in (cycle_graph(3), cycle_graph(6), complete_graph(4), petersen_graph()):
        show(g)

    print("\n== the n-cycle has exactly two primes, so Z = (1 - u^n)^2 ==")
    for n in (3, 5, 8):
        print(f"  C{n}:", det_poly(cycle_graph(n)).to_list())

    print("\n== all zeros of a regular graph lie on the set C ==")
    report = zeta_zeros(complete_graph(4))
    for zero in report.zeros:
        print(f"  u = {zero.value:.6f}  multiplicity {zero.multiplicity}"
              f"  dist to C = {zero.distance:.2e}")
    print("  max distance:", report.max_distance)

    print("\n== Euler product log vs the closed form, exact rationals ==")
    g = complete_graph(4)
    euler = euler_log_coeffs(g, 8)
    closed = zeta_log_coeffs(g, 8)
    for m, (a, b) in enumerate(zip(euler, closed), 1):
        marker = "ok" if a == b else "MISMATCH"
        print(f"  c_{m} = {a} vs {b}  {marker}")
    assert euler == closed

    print("\n== functional equation: both sides at a few points, then exactly ==")
    for u in (0.3 + 0.2j, -0.7 + 0.1j, 1.2 - 0.4j):
        lhs, rhs = functional_equation_sides(g, u)
        print(f"  u = {u}: |LHS - RHS| = {abs(lhs - rhs):.2e}")
    # q^v a_j == q^j a_(2v-j) on the integer coefficients a_j of det_poly
    mismatch = functional_equation_mismatch(g)
    print("  exact coefficient identity:", "holds" if mismatch is None else f"fails at j = {mismatch}")
    assert mismatch is None

    print("\nc_3 of K4 is", euler[2], "= -(number of oriented triangles)/3 =",
          Fraction(-24, 3))


if __name__ == "__main__":
    main()
