"""The convergence experiment: normalized zetas of a tower against the
L2 target, with report files and an optional error plot.

Run: python3 demos/04_convergence.py [outdir]
"""

import sys
from pathlib import Path

from graphzeta import (
    GridSpec,
    VoltageAssignment,
    bouquet_graph,
    homology_tower,
    lattice_tower,
    torus_l2,
    tower_convergence,
    tree_l2_reference,
    write_convergence_report,
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # plotting is optional
    plt = None


def run_case(name, tower, target, grid, outdir):
    report = tower_convergence(tower, target, grid)
    print(f"\n== {name} ==")
    print(f"  target: {report.target_description}")
    print(f"  grid: {grid.describe()}")
    for lvl in report.levels:
        print(f"  N = {lvl.index:>4}: sup error {lvl.sup_error:.3e} at {lvl.argmax:.3f}")
    case_dir = outdir / name
    paths = write_convergence_report(report, case_dir)
    print(f"  wrote {len(paths)} files to {case_dir}")
    return report


def plot(reports, outdir):
    fig, ax = plt.subplots(figsize=(6, 4))
    for name, report in reports:
        ax.semilogy(
            [lvl.index for lvl in report.levels],
            [max(lvl.sup_error, 1e-17) for lvl in report.levels],
            marker="o",
            label=name,
        )
    ax.set_xlabel("cover index N")
    ax.set_ylabel("sup error over the grid")
    ax.set_xscale("log", base=2)
    ax.legend()
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    target = outdir / "convergence.png"
    fig.savefig(target, dpi=120)
    print(f"\nplot saved to {target}")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("convergence_out")
    outdir.mkdir(parents=True, exist_ok=True)

    loop = bouquet_graph(1)
    b2 = bouquet_graph(2)

    reports = []
    reports.append(
        (
            "cycles",
            run_case(
                "cycles",
                lattice_tower(loop, [(1,)], (1, 2, 4, 8, 16)),
                tree_l2_reference(),
                GridSpec(q=1, radius=0.5, resolution=15),
                outdir,
            ),
        )
    )
    reports.append(
        (
            "torus",
            run_case(
                "torus",
                lattice_tower(b2, ((1, 0), (0, 1)), (1, 2, 4, 8, 16)),
                torus_l2(b2, VoltageAssignment.free(((1, 0), (0, 1)))),
                GridSpec(q=3, radius=0.25, resolution=13, margin=0.05),
                outdir,
            ),
        )
    )
    reports.append(
        (
            "homology",
            run_case(
                "homology",
                homology_tower(b2, 2, 2),
                tree_l2_reference(),
                GridSpec(q=3, radius=0.3, resolution=13, margin=0.05),
                outdir,
            ),
        )
    )

    if plt is not None:
        plot(reports, outdir)
    else:
        print("\nmatplotlib not installed; skipping the plot")


if __name__ == "__main__":
    main()
