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
from .errors import DomainError, InputError
from .graphs import MultiGraph, regular_q
from .l2 import L2Zeta, SpectralCDF, _count_at_most, _level_blocks, _log_sum
from .region import check_q, omega_contains, require_inside, set_c_polyline
from .zeta import det_poly, zeta_eval, zeta_function


@dataclass(frozen=True)
class GridSpec:
    """A deterministic evaluation grid inside the region bounded by C.

    Square lattice points of the given resolution are enumerated row-major
    over [-radius, radius]^2 and kept when they lie in the closed disk of
    the given radius and satisfy the margin condition against C. The
    default margin is 0.05 * q^(-1/2).
    """

    q: int
    radius: float
    resolution: int
    margin: float | None = None

    def __post_init__(self) -> None:
        check_q(self.q)
        if not 0.0 < self.radius < self.q ** -0.5:
            raise InputError(
                f"grid radius must lie in (0, q^(-1/2)) = (0, {self.q ** -0.5:.6g})"
            )
        if self.resolution < 1:
            raise InputError("resolution must be >= 1")
        if self.margin is None:
            object.__setattr__(self, "margin", 0.05 * self.q ** -0.5)
        if self.margin < 0:
            raise InputError("margin must be >= 0")

    @cached_property
    def points(self) -> tuple[complex, ...]:
        axis = np.linspace(-self.radius, self.radius, self.resolution)
        out = []
        for y in axis:
            for x in axis:
                u = complex(x, y)
                if abs(u) <= self.radius * (1 + 1e-12) and omega_contains(
                    self.q, u, self.margin
                ):
                    out.append(u)
        return tuple(out)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)

    def describe(self) -> dict:
        return {
            "q": int(self.q),
            "radius": float(self.radius),
            "resolution": int(self.resolution),
            "margin": float(self.margin),
            "point_count": len(self.points),
        }


@dataclass(frozen=True)
class LevelReport:
    index: int
    sup_error: float
    argmax: complex
    errors: np.ndarray


@dataclass(frozen=True)
class ConvergenceReport:
    levels: tuple[LevelReport, ...]
    grid: GridSpec
    target_description: str
    limit_verified: bool

    @property
    def sup_errors(self) -> list[float]:
        return [level.sup_error for level in self.levels]

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
    """Per-level sup of |normalized zeta - target| over the grid; the target
    is evaluated on all grid points in one call, and each level's zeta from
    its character spectrum, streamed one block of eigenvalues at a time."""
    points = grid.array
    if len(points) == 0:
        raise InputError("the grid contains no admissible points")
    chi_base = tower.base.euler_characteristic
    q = regular_q(tower.base)
    if q != grid.q:
        raise InputError(f"grid q = {grid.q} does not match the tower base's q = {q}")
    require_inside(q, points)
    target_values = np.broadcast_to(target.evaluate(points), points.shape)
    levels = []
    for level in tower.levels:
        logs = _log_sum(_level_blocks(level), q, points)
        values = (1.0 - points * points) ** (-chi_base) * np.exp(logs / level.index)
        errors = np.abs(values - target_values)
        worst = int(np.argmax(errors))
        levels.append(
            LevelReport(
                index=level.index,
                sup_error=float(errors[worst]),
                argmax=complex(points[worst]),
                errors=errors,
            )
        )
    return ConvergenceReport(
        levels=tuple(levels),
        grid=grid,
        target_description=target.description,
        limit_verified=tower.limit_verified,
    )


def cdf_convergence(
    tower: Tower,
    target: "SpectralCDF | Callable[[np.ndarray], np.ndarray]",
    lambdas: Sequence[float],
) -> list[float]:
    """Sup distance between each level's empirical spectral distribution
    and the target, over the given continuity points."""
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
    vanish to near machine precision inside the region.
    """
    q = regular_q(base)
    if not base.is_connected:
        raise InputError("the determinant identity needs a connected base")
    us = np.asarray(u, dtype=complex)
    if not np.all(omega_contains(q, us)):
        raise DomainError("evaluation point outside the open region bounded by C")
    z = zeta_function(base)
    chi = base.euler_characteristic
    residual = np.abs(zeta_eval(z, us) * (1.0 - us * us) ** chi - det_poly(base)(us))
    return float(residual) if us.shape == () else residual


# ---------------------------------------------------------------------------
# report files


def write_convergence_report(report: ConvergenceReport, outdir: "str | Path") -> list[Path]:
    """summary.json, one error-field CSV per level, and a polyline of C."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    summary = outdir / "summary.json"
    summary.write_text(json.dumps(report.summary_dict(), sort_keys=True, indent=2) + "\n")
    written.append(summary)
    for level in report.levels:
        path = outdir / f"errors_N{level.index}.csv"
        lines = ["re,im,abs_error"]
        for u, err in zip(report.grid.points, level.errors):
            lines.append(f"{u.real!r},{u.imag!r},{float(err)!r}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    c_path = outdir / "set_c.csv"
    lines = ["part,re,im"]
    for part, point in set_c_polyline(report.grid.q):
        lines.append(f"{part},{point.real!r},{point.imag!r}")
    c_path.write_text("\n".join(lines) + "\n")
    written.append(c_path)
    return written
