"""Numerical experiments: towers of finite covers against their L2 limits.

For a tower B_1 <- B_2 <- ... of covers of a regular base, the normalized
zeta values Z(B_i, u)^(1/N_i) converge, uniformly on compact subsets of the
region bounded by C, to the L2 zeta function of the infinite cover the
tower approximates. This module measures that convergence on deterministic
grids, compares empirical spectral distributions with their limits, and
checks the finite/L2 determinant identity for tree covers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .covers import Tower
from .errors import InputError, ResourceError
from .graphs import NODE_BUDGET, MultiGraph, json_float, json_int, regular_q, write_rows, write_text
from .l2 import L2Zeta, _count_at_most, _level_blocks, _level_log_sums, _shared_lines
from .region import at_points, check_q, omega_contains, require_inside
from .zeta import det_poly, zeta_eval


@dataclass(frozen=True)
class GridSpec:
    """A deterministic evaluation grid inside the region bounded by C.

    Square lattice points of the given resolution are enumerated row-major
    over [-radius, radius]^2 and kept when they lie in the closed disk of
    the given radius and satisfy the margin condition against C. The
    default margin is 0.05 * q^(-1/2). A grid that keeps no point is an
    InputError; one of more than NODE_BUDGET lattice points a ResourceError.
    """

    q: int
    radius: float
    resolution: int
    margin: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_q(self.q))
        object.__setattr__(self, "resolution", json_int(self.resolution, "resolution"))
        object.__setattr__(self, "radius", json_float(self.radius, "radius"))
        if not 0.0 < self.radius < self.q ** -0.5:
            raise InputError(
                f"grid radius must lie in (0, q^(-1/2)) = (0, {self.q ** -0.5:.6g})"
            )
        if self.resolution < 1:
            raise InputError("resolution must be >= 1")
        if self.resolution**2 > NODE_BUDGET:
            raise ResourceError(
                f"a grid of resolution {self.resolution} has {self.resolution**2} lattice "
                f"points, over the node budget of {NODE_BUDGET}"
            )
        margin = 0.05 * self.q ** -0.5 if self.margin is None else json_float(self.margin, "margin")
        object.__setattr__(self, "margin", margin)
        if not self.points:  # omega_contains checks the margin
            raise InputError("the grid contains no admissible points")

    @cached_property
    def points(self) -> tuple[complex, ...]:
        axis = np.linspace(-self.radius, self.radius, self.resolution)
        u = axis[None, :] + 1j * axis[:, None]  # row-major: y down the rows, x along them
        keep = (np.abs(u) <= self.radius * (1 + 1e-12)) & omega_contains(self.q, u, self.margin)
        return tuple(u[keep].tolist())

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)

    def describe(self) -> dict:
        return {
            "q": self.q,
            "radius": float(self.radius),
            "resolution": self.resolution,
            "margin": float(self.margin),
            "point_count": len(self.points),
        }


@dataclass(frozen=True)
class LevelReport:
    """A level's errors over the grid; `rho_max` is None unless its
    log-sums were read from the roots of its lines, and `degree_bound` is
    its lifted symbol's D on the exact axis, the input of that route."""

    index: int
    sup_error: float
    argmax: complex
    errors: np.ndarray
    degree_bound: int
    rho_max: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    levels: tuple[LevelReport, ...]
    grid: GridSpec
    target_description: str
    limit_verified: bool
    line_solves: int

    def summary_dict(self) -> dict:
        doc = {
            "target": self.target_description,
            "grid": self.grid.describe(),
            "levels": [
                {
                    "index": level.index,
                    "sup_error": level.sup_error,
                    "argmax_re": level.argmax.real,
                    "argmax_im": level.argmax.imag,
                }
                for level in self.levels
            ],
            "flags": [] if self.limit_verified else ["limit target unverified"],
        }
        return doc


def tower_convergence(tower: Tower, target: L2Zeta, grid: GridSpec) -> ConvergenceReport:
    """Per-level sup of |normalized zeta - target| over the grid. Every
    level's log-sums come first, from `_level_log_sums` (each group of levels
    from the roots of the lines it shares, or each level from its
    characters), and then the target on all grid points in one call.
    Within the call (`_shared_lines`) a `torus:` target reads no line its
    levels read (at rank k >= 2, its m = 16 refinement against a level of
    order 16); `line_solves` counts the distinct line reads."""
    points = grid.array
    chi_base = tower.base.euler_characteristic
    q = regular_q(tower.base)
    if q != grid.q:
        raise InputError(f"grid q = {grid.q} does not match the tower base's q = {q}")
    levels = []
    with _shared_lines() as solved:
        log_sums = _level_log_sums(tower.levels, q, points)
        target_values = np.broadcast_to(target.evaluate(points), points.shape)
        for level, (logs, rho_max, degree) in zip(tower.levels, log_sums):
            values = (1.0 - points * points) ** (-chi_base) * np.exp(logs / level.index)
            errors = np.abs(values - target_values)
            worst = int(np.argmax(errors))
            levels.append(
                LevelReport(
                    index=level.index,
                    sup_error=float(errors[worst]),
                    argmax=complex(points[worst]),
                    errors=errors,
                    degree_bound=degree,
                    rho_max=rho_max,
                )
            )
    return ConvergenceReport(
        levels=tuple(levels),
        grid=grid,
        target_description=target.description,
        limit_verified=tower.limit_verified,
        line_solves=len(solved),
    )


def cdf_convergence(
    tower: Tower,
    target: Callable[[np.ndarray], np.ndarray],
    lambdas: Sequence[float],
) -> list[float]:
    """Sup distance between each level's empirical spectral distribution
    and the target, a function of an array of lambdas, over the given
    continuity points."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.size == 0:
        raise InputError("need at least one evaluation point")
    target_values = np.asarray(target(lams), dtype=float)
    out = []
    for level in tower.levels:
        counts = _count_at_most(_level_blocks(level), lams)
        out.append(float(np.max(np.abs(counts / level.index - target_values))))
    return out


def deitmar_residual(base: MultiGraph, u) -> "float | np.ndarray":
    """| Z(B, u) * (1 - u^2)^chi - det(I - A u + Q u^2) | for a tree cover.

    For the universal (tree) cover the L2 determinant is (1 - u^2)^chi, so
    the finite zeta equals the determinant ratio; the residual should
    vanish to near machine precision inside the region, and more than 1e-12
    away from C.
    """
    q = regular_q(base)
    if not base.is_connected:
        raise InputError("the determinant identity needs a connected base")
    chi = base.euler_characteristic

    def residual(us: np.ndarray) -> np.ndarray:
        require_inside(q, us)
        return np.abs(zeta_eval(base, us) * (1.0 - us * us) ** chi - det_poly(base)(us))

    return at_points(u, residual, float)


# ---------------------------------------------------------------------------
# report files


def write_convergence_report(report: ConvergenceReport, outdir: "str | Path") -> list[Path]:
    """summary.json and one error-field CSV per level; returns their paths."""
    outdir = Path(outdir)
    summary = outdir / "summary.json"
    write_text(summary, json.dumps(report.summary_dict(), sort_keys=True, indent=2) + "\n")
    written = [summary]
    us = report.grid.array
    for level in report.levels:
        path = outdir / f"errors_N{level.index}.csv"
        write_rows(path, ("re", "im", "abs_error"), (us.real, us.imag, level.errors))
        written.append(path)
    return written
