"""Command line interface.

Subcommand groups: zeta (compute, zeros, euler-check, functional-check),
cover (build), tower (build, run), l2 (torus, cdf), deitmar (check).
Every run prints a one-line JSON summary to stdout and, whenever files are
written, drops a manifest recording input hashes, tolerances and grid
parameters next to them. Exit codes: 0 success, 2 for a failed check,
otherwise the `exit_code` of the error raised (tabulated in errors.py).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .convergence import (
    GridSpec,
    deitmar_residual,
    tower_convergence,
    write_convergence_report,
)
from .covers import Tower, derived_graph, load_voltages, spec_base_path, tower_from_spec
from .errors import GraphZetaError, InputError
from .graphs import (
    load_graph,
    read_json,
    regular_q,
    regularity,
    save_graph,
    write_rows,
    write_text,
)
from .l2 import L2Zeta, l2_zeta_abelian, level_cdf, torus_l2
from .zeta import (
    det_poly,
    euler_product_mismatch,
    functional_equation_mismatch,
    zeta_eval,
    zeta_zeros,
)


ZEROS_TOL = 1e-8  # `zeta zeros --check-c`: most distance of a zero from C
DEITMAR_TOL = 1e-10  # `deitmar check`: largest residual that passes


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(f"{self.prog}: {message}")


def _hash_inputs(paths: Sequence["str | Path"]) -> dict:
    out = {}
    for p in paths:
        path = Path(p)
        if not path.exists():
            raise InputError(f"input file not found: {path}")
        out[str(p)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _manifested(summary: dict, target: Path, parameters: dict) -> dict:
    """Writes the manifest of a run to `target`: the summary's command and
    input hashes, the parameters and the version. Returns the summary with
    the manifest's path and SHA-256 added."""
    doc = {
        "command": summary["command"],
        "inputs": summary["inputs"],
        "parameters": parameters,
        "version": __version__,
    }
    sha = write_text(target, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return {**summary, "manifest": str(target), "manifest_sha256": sha}


def _load_tower(spec: str) -> tuple[Tower, dict]:
    """The tower of a spec file and the hashes of the spec and its base graph."""
    doc = read_json(spec, "tower spec")
    tower = tower_from_spec(doc, Path(spec).parent)
    return tower, _hash_inputs([spec, spec_base_path(doc, Path(spec).parent)])


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number {text!r}") from exc
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise InputError(f"complex number {text!r} is not finite")
    return value


def _eval_report(text: str, evaluate) -> dict:
    """The `eval` block of a summary: the point `text` and its value under `evaluate`."""
    u = _parse_complex(text)
    value = evaluate(u)
    return {"u_re": u.real, "u_im": u.imag, "value_re": value.real, "value_im": value.imag}


def _parse_grid(text: str, q: int) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] != "disk":
        raise InputError(
            f"grid must look like disk:<radius>:<resolution>:<margin>, got {text!r}"
        )
    try:
        radius = float(parts[1])
        resolution = int(parts[2])
        margin = float(parts[3])
    except ValueError as exc:
        raise InputError(f"malformed grid {text!r}: {exc}") from exc
    return GridSpec(q=q, radius=radius, resolution=resolution, margin=margin)


def _parse_target(text: str, base, spec_dir: Path) -> tuple[L2Zeta, list[Path]]:
    """Returns the target evaluator and any files it depends on."""
    if text.startswith("constant:"):
        literal = text.split(":", 1)[1]
        value = _parse_complex(literal)
        return L2Zeta(evaluate=lambda u: value, description=f"constant {literal}"), []
    if text.startswith("torus:"):
        volt_path = spec_dir / text.split(":", 1)[1]
        return torus_l2(base, load_voltages(volt_path)), [volt_path]
    raise InputError(
        f"unknown target {text!r}; expected constant:<value> or torus:<voltage-file>"
    )


# ---------------------------------------------------------------------------
# handlers; each returns (summary-dict, exit-code)


def _cmd_zeta_compute(args) -> tuple[dict, int]:
    g = load_graph(args.graph)
    poly = det_poly(g)
    info = regularity(g)
    summary = {
        "command": "zeta compute",
        "graph": args.graph,
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "chi": g.euler_characteristic,
        "regular": info.is_regular,
        "q": info.q,
        "det_poly_degree": poly.degree,
        "inputs": _hash_inputs([args.graph]),
    }
    if args.eval is not None:
        summary["eval"] = _eval_report(args.eval, lambda u: zeta_eval(g, u))
    if args.emit is not None:
        write_text(args.emit, json.dumps(poly.to_list()) + "\n")
        summary["emit"] = args.emit
        summary = _manifested(summary, Path(f"{args.emit}.manifest.json"), {})
    return summary, 0


def _cmd_zeta_zeros(args) -> tuple[dict, int]:
    g = load_graph(args.graph)
    report = zeta_zeros(g)
    write_rows(args.out, ("re", "im", "multiplicity", "dist_to_C"), zip(*report.to_rows()))
    summary = {
        "command": "zeta zeros",
        "graph": args.graph,
        "q": report.q,
        "zero_count": sum(z.multiplicity for z in report.zeros),
        "distinct_zeros": len(report.zeros),
        "max_dist_to_C": report.max_distance,
        "out": args.out,
        "inputs": _hash_inputs([args.graph]),
    }
    parameters = {"tol": ZEROS_TOL, "check_c": bool(args.check_c)}
    summary = _manifested(summary, Path(f"{args.out}.manifest.json"), parameters)
    code = 0
    if args.check_c:
        ok = report.max_distance <= ZEROS_TOL
        summary["all_on_C"] = ok
        summary["tol"] = ZEROS_TOL
        if not ok:
            code = 2
    return summary, code


def _cmd_zeta_euler_check(args) -> tuple[dict, int]:
    mismatch = euler_product_mismatch(load_graph(args.graph))
    summary = {
        "command": "zeta euler-check",
        "graph": args.graph,
        "match": mismatch is None,
        "first_mismatch": mismatch,
        "inputs": _hash_inputs([args.graph]),
    }
    return summary, 0 if mismatch is None else 2


def _cmd_zeta_functional_check(args) -> tuple[dict, int]:
    mismatch = functional_equation_mismatch(load_graph(args.graph))
    summary = {
        "command": "zeta functional-check",
        "graph": args.graph,
        "pass": mismatch is None,
        "first_mismatch": mismatch,
        "inputs": _hash_inputs([args.graph]),
    }
    return summary, 0 if mismatch is None else 2


def _cmd_cover_build(args) -> tuple[dict, int]:
    base = load_graph(args.base)
    cover = derived_graph(base, load_voltages(args.voltages))
    save_graph(cover, args.out)
    summary = {
        "command": "cover build",
        "base": args.base,
        "voltages": args.voltages,
        "out": args.out,
        "vertices": cover.vertex_count,
        "edges": cover.edge_count,
        "connected": cover.is_connected,
        "components": cover.component_count,
        "inputs": _hash_inputs([args.base, args.voltages]),
    }
    return _manifested(summary, Path(f"{args.out}.manifest.json"), {}), 0


def _cmd_tower_build(args) -> tuple[dict, int]:
    tower, inputs = _load_tower(args.spec)
    graphs = [level.graph for level in tower.levels]  # a level over the cap writes nothing
    outdir = Path(args.out)
    level_files = []
    for i, (level, g) in enumerate(zip(tower.levels, graphs), 1):
        path = outdir / f"level_{i:02d}_N{level.index}.json"
        save_graph(g, path)
        level_files.append(str(path))
    doc = {
        "provenance": tower.provenance,
        "indices": list(tower.indices),
        "sizes": [g.vertex_count for g in graphs],
        "connected": [g.is_connected for g in graphs],
        "levels": level_files,
    }
    write_text(outdir / "tower.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    summary = {
        "command": "tower build",
        "spec": args.spec,
        "out": args.out,
        "indices": list(tower.indices),
        "sizes": doc["sizes"],
        "inputs": inputs,
    }
    return _manifested(summary, outdir / "manifest.json", {}), 0


def _cmd_tower_run(args) -> tuple[dict, int]:
    tower, inputs = _load_tower(args.spec)
    q = regular_q(tower.base)
    grid = _parse_grid(args.grid, q)
    target, target_files = _parse_target(args.target, tower.base, Path(args.spec).parent)
    report = tower_convergence(tower, target, grid)
    write_convergence_report(report, args.out)
    inputs.update(_hash_inputs(target_files))
    summary = {
        "command": "tower run",
        "spec": args.spec,
        "target": args.target,
        "grid": grid.describe(),
        "levels": [
            {
                "index": row.index,
                "sup_error": row.sup_error,
                "vertices": level.index * tower.base.vertex_count,
                "characters": math.prod(level.voltages.orders),
                "route": "characters" if row.rho_max is None else "lines",
                "rho_max": row.rho_max,
                "degree_bound": row.degree_bound,
            }
            for row, level in zip(report.levels, tower.levels)
        ],
        "flags": report.summary_dict()["flags"],
        "line_solves": report.line_solves,
        "out": args.out,
        "inputs": inputs,
    }
    parameters = {"target": args.target, "grid": grid.describe()}
    return _manifested(summary, Path(args.out) / "manifest.json", parameters), 0


def _cmd_l2_torus(args) -> tuple[dict, int]:
    base = load_graph(args.base)
    q = regular_q(base)
    volt = load_voltages(args.voltages)
    inputs = _hash_inputs([args.base, args.voltages])
    summary = {
        "command": "l2 torus",
        "base": args.base,
        "voltages": args.voltages,
        "q": q,
        "inputs": inputs,
    }
    if args.eval is None and args.grid is None:
        raise InputError("l2 torus needs --eval or --grid")
    if args.grid is not None and args.out is None:
        raise InputError("--grid output needs --out <csv>")
    if args.out is not None and args.grid is None:
        raise InputError("--out needs --grid: only grid values are written")
    grid = None if args.grid is None else _parse_grid(args.grid, q)
    if args.eval is not None:
        summary["eval"] = _eval_report(args.eval, lambda u: l2_zeta_abelian(base, volt, u))
    if grid is not None:
        us = grid.array
        values = l2_zeta_abelian(base, volt, us)
        columns = (us.real, us.imag, values.real, values.imag)
        write_rows(args.out, ("re", "im", "value_re", "value_im"), columns)
        summary["out"] = args.out
        summary["grid"] = grid.describe()
        summary["points"] = len(grid.points)
        summary = _manifested(summary, Path(f"{args.out}.manifest.json"), {"grid": grid.describe()})
    return summary, 0


def _cmd_l2_cdf(args) -> tuple[dict, int]:
    tower, inputs = _load_tower(args.spec)
    cdfs = [level_cdf(level) for level in tower.levels]  # every level before any file
    files = [str(Path(args.out) / f"cdf_N{level.index}.csv") for level in tower.levels]
    for path, (points, values) in zip(files, cdfs):
        write_rows(path, ("lambda", "F"), (points, values))
    summary = {
        "command": "l2 cdf",
        "spec": args.spec,
        "indices": list(tower.indices),
        "masses": [float(values[-1]) for _, values in cdfs],
        "out": args.out,
        "files": files,
        "inputs": inputs,
    }
    return _manifested(summary, Path(args.out) / "manifest.json", {}), 0


def _cmd_deitmar_check(args) -> tuple[dict, int]:
    g = load_graph(args.graph)
    q = regular_q(g)
    if args.grid is not None:
        grid = _parse_grid(args.grid, q)
    else:
        grid = GridSpec(q=q, radius=0.6 * q**-0.5, resolution=12)
    points = grid.array
    worst = float(np.max(deitmar_residual(g, points)))
    ok = worst < DEITMAR_TOL
    summary = {
        "command": "deitmar check",
        "graph": args.graph,
        "points": len(points),
        "grid": grid.describe(),
        "max_residual": worst,
        "tol": DEITMAR_TOL,
        "pass": ok,
        "inputs": _hash_inputs([args.graph]),
    }
    return summary, 0 if ok else 2


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built on the first run, then reused: parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="graphzeta", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)

    zeta = groups.add_parser("zeta", help="finite zeta functions")
    zeta_sub = zeta.add_subparsers(dest="command", required=True)

    p = zeta_sub.add_parser("compute", help="determinant polynomial and evaluation")
    p.add_argument("--graph", required=True)
    p.add_argument("--eval", default=None, help="complex evaluation point")
    p.add_argument("--emit", default=None, help="write coefficients to this JSON file")
    p.add_argument("--exact", action="store_true", help="accepted and ignored")
    p.set_defaults(handler=_cmd_zeta_compute)

    p = zeta_sub.add_parser("zeros", help="all zeros with distance to the set C")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--check-c", action="store_true", dest="check_c")
    p.set_defaults(handler=_cmd_zeta_zeros)

    p = zeta_sub.add_parser("euler-check", help="Euler product vs closed form, exactly")
    p.add_argument("--graph", required=True)
    p.add_argument("--terms", type=int, default=12, help="accepted and ignored")
    p.set_defaults(handler=_cmd_zeta_euler_check)

    p = zeta_sub.add_parser("functional-check", help="functional equation, exactly")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", type=int, default=100, help="accepted and ignored")
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    p.set_defaults(handler=_cmd_zeta_functional_check)

    cover = groups.add_parser("cover", help="derived covering graphs")
    cover_sub = cover.add_subparsers(dest="command", required=True)

    p = cover_sub.add_parser("build", help="derive a cover from a voltage file")
    p.add_argument("--base", required=True)
    p.add_argument("--voltages", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_cover_build)

    tower = groups.add_parser("tower", help="towers of covers")
    tower_sub = tower.add_subparsers(dest="command", required=True)

    p = tower_sub.add_parser("build", help="materialize the levels of a tower spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_tower_build)

    p = tower_sub.add_parser("run", help="normalized zetas against a limit target")
    p.add_argument("--spec", required=True)
    p.add_argument("--target", required=True, help="constant:<value> or torus:<voltage-file>")
    p.add_argument("--grid", required=True, help="disk:<radius>:<resolution>:<margin>")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=None, help="accepted and ignored")
    p.set_defaults(handler=_cmd_tower_run)

    l2 = groups.add_parser("l2", help="L2 zeta data of infinite abelian covers")
    l2_sub = l2.add_subparsers(dest="command", required=True)

    p = l2_sub.add_parser("torus", help="torus-quadrature L2 zeta values")
    p.add_argument("--base", required=True)
    p.add_argument("--voltages", required=True)
    p.add_argument("--eval", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_l2_torus)

    p = l2_sub.add_parser("cdf", help="empirical spectral distributions of a tower")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_l2_cdf)

    deitmar = groups.add_parser("deitmar", help="finite vs L2 determinant identity")
    deitmar_sub = deitmar.add_subparsers(dest="command", required=True)

    p = deitmar_sub.add_parser("check", help="residual of the tree-cover identity")
    p.add_argument("--graph", required=True)
    p.add_argument("--grid", default=None)
    p.set_defaults(handler=_cmd_deitmar_check)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        summary, code = args.handler(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except GraphZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(json.dumps(summary, sort_keys=True))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
