"""L2 zeta data of infinite abelian covers: torus symbols, quadrature
against the walk-count series, and spectral distribution functions.

Run: python3 demos/03_l2_quadrature.py
"""

import numpy as np

from graphzeta import (
    VoltageAssignment,
    bouquet_graph,
    equivariant_walk_counts,
    l2_log_det,
    l2_series_oracle,
    l2_zeta_abelian,
    symbol_spectral_cdf,
    torus_symbol,
)


def main():
    loop = bouquet_graph(1)
    b2 = bouquet_graph(2)
    vz = VoltageAssignment.free(((1,),), rank=1)
    vz2 = VoltageAssignment.free(((1, 0), (0, 1)), rank=2)

    print("== the Z cover of the loop is the line; its symbol is 2 cos t ==")
    sym = torus_symbol(loop, vz)
    print("  closed walk counts W_0..W_6:", equivariant_walk_counts(sym, 6))
    print("  (central binomials on the even steps)")

    print("\n== q = 1 makes the normalized log-determinant vanish ==")
    for u in (0.5, 0.3j, -0.2 + 0.4j):
        print(f"  u = {u}: log det = {l2_log_det(sym, 1, u):.3e}")

    print("\n== Z^2 cover of the 2-loop bouquet ==")
    sym2 = torus_symbol(b2, vz2)
    print("  walk counts W_0..W_6:", equivariant_walk_counts(sym2, 6))
    print("  (squares of central binomials)")

    print("\n== series oracle vs adaptive quadrature (independent routes) ==")
    for u in (0.05, 0.1j, 0.08 + 0.05j):
        series = l2_series_oracle(sym2, 3, u)
        quad = l2_log_det(sym2, 3, u)
        print(f"  u = {u}: |series - quadrature| = {abs(series - quad):.2e}")

    print("\n== the L2 zeta value assembles the chi prefactor ==")
    for u in (0.1, 0.2j):
        print(f"  Z_pi(bouquet-2 over Z^2, {u}) = {l2_zeta_abelian(b2, vz2, u):.12f}")

    print("\n== spectral distribution of the line: the arcsine law ==")
    lambdas = np.linspace(-1.5, 1.5, 7)
    got = symbol_spectral_cdf(sym, lambdas)
    arcsine = 0.5 + np.arcsin(lambdas / 2.0) / np.pi
    for lam, f, a in zip(lambdas, got, arcsine):
        print(f"  F({lam:+.2f}) = {f:.4f}  arcsine {a:.4f}")


if __name__ == "__main__":
    main()
