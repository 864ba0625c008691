"""One pass over a workload's operations, in a fresh process.

    python3 bench/passrun.py PLAN.json OUTDIR RESULT.json cli|traced|setup

`cli` runs each operation as a `graphzeta` command through
`graphzeta.cli.run` (the series oracle, which has no command, as a library
call). `traced` makes the calls into the public functions that the command
makes, in the same order, and times each layer from outside the program.
`setup` only imports `graphzeta.cli`, to add samples of the set-up time.
The result file holds the time at which `graphzeta.cli` was imported
(`time.monotonic`, comparable with the parent's clock), the pass wall and
CPU time, peak memory, thread count and, per operation, its time and output.

Every pass starts in a new process because `spectrum` and `det_poly` keep
a memo for the life of the process; a pass never sees another's entries.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def main(argv):
    plan_path, outdir, result_path, mode = argv
    import graphzeta
    import graphzeta.cli as cli

    ready = time.monotonic()
    if mode == "setup":
        doc = {"ready": ready, "graphzeta": graphzeta.__file__}
        Path(result_path).write_text(json.dumps(doc) + "\n")
        return
    plan = json.loads(Path(plan_path).read_text())
    outdir = Path(outdir)
    tracer = Tracer() if mode == "traced" else None
    results = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    wall0 = time.perf_counter()
    for i, op in enumerate(plan["ops"]):
        out = outdir / f"op{i:02d}"
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        try:
            if tracer is not None:
                record = TRACED[op["kind"]](graphzeta, op, out, tracer)
            else:
                record = run_cli_op(cli, graphzeta, op, out)
        except graphzeta.GraphZetaError as exc:
            record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # a fault in the program is one failed operation
            traceback.print_exc()
            record = {"ok": False, "crash": True, "error": f"{type(exc).__name__}: {exc}"}
        record["seconds"] = time.perf_counter() - start
        results.append(record)
    wall = time.perf_counter() - wall0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    doc = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "threads": os_threads(),
        "graphzeta": graphzeta.__file__,
        "ops": results,
    }
    if tracer is not None:
        doc["layers"] = tracer.seconds
        doc["counts"] = tracer.counts
        doc["point_max_s"] = tracer.point_max
    Path(result_path).write_text(json.dumps(doc) + "\n")


def os_threads():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


# ---------------------------------------------------------------------------
# operations through the CLI


def cli_argv(op, out):
    kind = op["kind"]
    if kind == "tower":
        return ["tower", "run", "--spec", op["spec"], "--target", op["target"],
                "--grid", op["grid"], "--out", str(out), "--jobs", "1"]
    if kind == "l2_grid":
        return ["l2", "torus", "--base", op["base"], "--voltages", op["voltages"],
                "--grid", op["grid"], "--out", str(out / "values.csv")]
    if kind == "zeta":
        argv = ["zeta", "compute", "--graph", op["graph"], "--emit", str(out / "coeffs.json")]
        return argv + (["--exact"] if op["exact"] else [])
    if kind == "euler":
        return ["zeta", "euler-check", "--graph", op["graph"], "--terms", str(op["terms"])]
    if kind == "functional":
        return ["zeta", "functional-check", "--graph", op["graph"],
                "--points", str(op["points"]), "--seed", str(op["seed"])]
    if kind == "deitmar":
        return ["deitmar", "check", "--graph", op["graph"]]
    raise ValueError(f"no command for {kind}")


def run_cli_op(cli, gz, op, out):
    if op["kind"] == "series":
        sym = gz.torus_symbol(gz.load_graph(op["base"]), gz.load_voltages(op["voltages"]))
        value = gz.l2_series_oracle(sym, op["q"], complex(*op["u"]), op["terms"])
        return {"ok": True, "value": [value.real, value.imag]}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(cli_argv(op, out))
    lines = stdout.getvalue().strip().splitlines()
    record = {"ok": code == 0, "code": code}
    if lines:
        record["summary"] = json.loads(lines[-1])
    if code != 0:
        record["error"] = stderr.getvalue().strip()
    return record


# ---------------------------------------------------------------------------
# traced operations: the command's calls into public functions, timed per layer


class Tracer:
    """Seconds and counts per layer, accumulated over one pass."""

    def __init__(self):
        self.seconds = {}
        self.counts = {}
        self.point_max = 0.0

    def call(self, layer, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[layer] = self.seconds.get(layer, 0.0) + time.perf_counter() - start

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def points(self, fn, points):
        """Evaluates fn at each point as the l2 quadrature layer; keeps the slowest."""
        values = []
        for u in points:
            start = time.perf_counter()
            values.append(complex(self.call("l2.quadrature_s", fn, u)))
            self.point_max = max(self.point_max, time.perf_counter() - start)
        self.count("l2.points", len(points))
        return values


def _grid(gz, text, q):
    _, radius, resolution, margin = text.split(":")
    return gz.GridSpec(q=q, radius=float(radius), resolution=int(resolution), margin=float(margin))


def traced_tower(gz, op, out, tr):
    tower = tr.call("covers.build_s", gz.load_tower_spec, op["spec"])
    tr.count("covers.vertices", sum(level.graph.vertex_count for level in tower.levels))
    q = gz.regularity(tower.base).q
    points = _grid(gz, op["grid"], q).points
    kind, arg = op["target"].split(":", 1)
    if kind == "torus":
        volt = gz.load_voltages(Path(op["spec"]).parent / arg)
        target = tr.points(gz.torus_l2(tower.base, volt), points)
    else:
        target = [complex(arg)] * len(points)
    chi = tower.base.euler_characteristic
    for level in tower.levels:
        tr.call("graphs.spectrum_s", gz.spectrum, level.graph)
        tr.count("graphs.spectrum_order", level.graph.vertex_count)
        values = tr.call("zeta.normalized_s", gz.normalized_zeta, level.graph, level.index, chi, points)
        tr.count("zeta.grid_evals", len(points))
        lines = ["re,im,abs_error"]
        for u, value, t in zip(points, values, target):
            lines.append(f"{u.real!r},{u.imag!r},{float(abs(value - t))!r}")
        (out / f"errors_N{level.index}.csv").write_text("\n".join(lines) + "\n")
    return {"ok": True}


def traced_l2_grid(gz, op, out, tr):
    base = gz.load_graph(op["base"])
    volt = gz.load_voltages(op["voltages"])
    points = _grid(gz, op["grid"], gz.regularity(base).q).points
    values = tr.points(lambda u: gz.l2_zeta_abelian(base, volt, u), points)
    lines = ["re,im,value_re,value_im"]
    for u, value in zip(points, values):
        lines.append(f"{u.real!r},{u.imag!r},{float(value.real)!r},{float(value.imag)!r}")
    (out / "values.csv").write_text("\n".join(lines) + "\n")
    return {"ok": True}


def traced_zeta(gz, op, out, tr):
    g = gz.load_graph(op["graph"])
    layer = "zeta.det_poly_exact_s" if op["exact"] else "zeta.det_poly_s"
    poly = tr.call(layer, gz.det_poly, g, op["exact"])
    tr.count("zeta.coefficients", len(poly.coefficients))
    (out / "coeffs.json").write_text(json.dumps(poly.to_list()) + "\n")
    return {"ok": True}


def traced_euler(gz, op, out, tr):
    g = gz.load_graph(op["graph"])
    euler = tr.call("zeta.euler_s", gz.euler_log_coeffs, g, op["terms"])
    closed = tr.call("zeta.euler_s", gz.zeta_log_coeffs, g, op["terms"])
    match = tuple(euler) == tuple(closed)
    return {"ok": match, "summary": {"match": match}}


def traced_functional(gz, op, out, tr):
    """The point sequence and rejection rule of `zeta functional-check`."""
    g = gz.load_graph(op["graph"])
    q = gz.regularity(g).q
    rng = random.Random(op["seed"])
    points = []
    while len(points) < op["points"]:
        r = 0.1 + 1.4 * rng.random()
        phi = 2.0 * np.pi * rng.random()
        u = complex(r * np.cos(phi), r * np.sin(phi))
        if abs(u) < 0.05 or abs(u * u - 1.0) < 1e-2 or abs(q * q * u * u - 1.0) < 1e-2:
            continue
        points.append(u)

    def residuals():
        worst = 0.0
        for u in points:
            lhs, rhs = gz.functional_equation_sides(g, u)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        return worst

    ok = tr.call("zeta.functional_s", residuals) < 1e-9
    return {"ok": ok, "summary": {"pass": ok}}


def traced_deitmar(gz, op, out, tr):
    g = gz.load_graph(op["graph"])
    q = gz.regularity(g).q
    points = gz.GridSpec(q=q, radius=0.6 * q**-0.5, resolution=12).array
    worst = float(max(tr.call("convergence.deitmar_s", gz.deitmar_residual, g, points)))
    ok = worst < 1e-10
    return {"ok": ok, "summary": {"pass": ok}}


def traced_series(gz, op, out, tr):
    sym = gz.torus_symbol(gz.load_graph(op["base"]), gz.load_voltages(op["voltages"]))
    # a separate call, to show the share of the oracle spent on walk counts
    tr.call("l2.walk_counts_s", gz.equivariant_walk_counts, sym, op["terms"])
    value = tr.call("l2.series_oracle_s", gz.l2_series_oracle, sym, op["q"], complex(*op["u"]), op["terms"])
    return {"ok": True, "value": [value.real, value.imag]}


TRACED = {
    "tower": traced_tower,
    "l2_grid": traced_l2_grid,
    "zeta": traced_zeta,
    "euler": traced_euler,
    "functional": traced_functional,
    "deitmar": traced_deitmar,
    "series": traced_series,
}


if __name__ == "__main__":
    main(sys.argv[1:])
