"""graphzeta benchmark: one workload, timed in fresh-process passes, outputs checked.

    python3 bench/run.py --workload tower|l2_grid|zeta|oracles --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The seed makes every input file (under `.bench_work/`). Passes of
the workload's operations run one after another, each in a new Python
process with one BLAS thread and `--jobs 1`, for about `--seconds` (at
least three passes); with `--trace 0` each pass is followed by
`SETUP_PROBES` processes that only import the program, so that `setup_s`
is a median of many process starts. Every pass's outputs are checked against
`reference.py`, which does not use the program.

With `--trace 0` the last line of stdout carries the end-to-end metrics
(medians over passes); with `--trace 1` untraced and traced passes
alternate and it carries the per-layer metrics. The line before it is the
run record: commit, versions, thread settings, seed and operation counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plans  # noqa: E402
import reference  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
SETUP_PROBES = 2
PASS_TIMEOUT_S = 150
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_SECONDS = (
    "covers.build_s",
    "graphs.spectrum_s",
    "zeta.det_poly_s",
    "zeta.det_poly_exact_s",
    "zeta.normalized_s",
    "zeta.euler_s",
    "zeta.functional_s",
    "l2.quadrature_s",
    "l2.series_oracle_s",
    "l2.walk_counts_s",
    "convergence.deitmar_s",
)
LAYER_COUNTS = (
    "covers.vertices",
    "graphs.spectrum_order",
    "zeta.coefficients",
    "zeta.grid_evals",
    "l2.points",
)
# measured by a separate call whose work the series oracle repeats inside
NESTED = ("l2.walk_counts_s",)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "graphzeta" / "cli.py").is_file():
        print(f"error: no graphzeta sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = plans.make_plan(args.workload, args.seed, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1) + "\n")

    problems = [f"self test: {p}" for p in reference.self_test()]
    checker = Checker(plan, random.Random(f"check:{args.seed}"))

    modes = ("cli", "traced") if args.trace else ("cli",)
    passes = {mode: [] for mode in modes}
    setups = []
    start = time.monotonic()
    durations = []
    # a round starts only if a typical round still ends within --seconds
    while len(durations) < MIN_ROUNDS or (
        time.monotonic() - start + statistics.median(durations) <= args.seconds
    ):
        round_start = time.monotonic()
        for mode in modes:
            name = f"pass{len(durations):03d}_{mode}"
            result = run_pass(plan_path, work / name, work / f"{name}.json", mode)
            problems += checker.check(result, work / name)
            passes[mode].append(result)
            setups.append(result["setup_s"])
            shutil.rmtree(work / name, ignore_errors=True)
        for i in range(0 if args.trace else SETUP_PROBES):
            name = f"setup{len(durations):03d}_{i}"
            setups.append(run_pass(plan_path, work / name, work / f"{name}.json", "setup")["setup_s"])
        durations.append(time.monotonic() - round_start)

    runs = [r for mode in modes for r in passes[mode]]
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(1 for r in runs for op in r["ops"] if not op["ok"])
    if args.trace:
        metrics = layer_metrics(passes["cli"], passes["traced"])
    else:
        metrics = end_to_end_metrics(passes["cli"], setups)
    record = run_record(args, plan, runs, attempted, failed, problems, checker.numpy_repr_files)
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# passes


def run_pass(plan_path, outdir, result_path, mode):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "passrun.py"), str(plan_path), str(outdir), str(result_path), mode]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        raise SystemExit(f"error: {mode} pass exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    if Path(result["graphzeta"]).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: the pass imported graphzeta from {result['graphzeta']}")
    result["setup_s"] = result["ready"] - spawned
    return result


def end_to_end_metrics(runs, setups):
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "op_p50_s": statistics.median(op["seconds"] for r in runs for op in r["ops"]),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(untraced, traced):
    metrics = {}
    for name in LAYER_SECONDS:
        metrics[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
    metrics["l2.point_max_s"] = statistics.median(r["point_max_s"] for r in traced)
    # paired by round, so that drift in machine speed between rounds cancels
    metrics["trace.unaccounted_s"] = statistics.median(
        u["wall_s"] - sum(v for k, v in t["layers"].items() if k not in NESTED)
        for u, t in zip(untraced, traced)
    )
    out = {name: {"value": value, "unit": "s"} for name, value in metrics.items()}
    for name in LAYER_COUNTS:
        out[name] = {"value": traced[0]["counts"].get(name, 0), "unit": "count"}
    return out


def run_record(args, plan, runs, attempted, failed, problems, numpy_repr_files):
    per_kind = {}
    for r in runs:
        for op, res in zip(plan["ops"], r["ops"]):
            entry = per_kind.setdefault(op["kind"], {"attempted": 0, "failed": 0})
            entry["attempted"] += 1
            entry["failed"] += 0 if res["ok"] else 1
    errors = sorted({res["error"] for r in runs for res in r["ops"] if not res["ok"]})
    unexpected = sum(
        1 for r in runs for op, res in zip(plan["ops"], r["ops"])
        if not res["ok"] and not expected_failure(op, res)
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": dict(THREAD_ENV, tower_jobs=1),
        "max_process_threads": max(r["threads"] for r in runs),
        "passes": len(runs),
        "attempted": attempted,
        "failed": failed,
        "operations": per_kind,
        "errors": errors,
        "unexpected_failures": unexpected,
        "csv_files_with_numpy_repr": sorted(numpy_repr_files),
        "problems": len(problems),
    }


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_version():
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Compares each pass's outputs with references computed once per run."""

    def __init__(self, plan, rng):
        self.plan = plan
        self.refs = [self._reference(op, rng) for op in plan["ops"]]
        self.numpy_repr_files = set()

    def _reference(self, op, rng):
        info = op.get("check", {}).get("base")
        if op["kind"] == "tower":
            return tower_reference(op)
        if op["kind"] == "l2_grid":
            return l2_grid_reference(op)
        if op["kind"] == "zeta":
            return reference.det_samples(info["n"], info["edges"], rng)
        if op["kind"] == "series":
            u = complex(*op["u"])
            if info["n"] == 1:
                return reference.b2_z2_log_det(u)
            rank = len(info["voltages"][0])
            return complex(
                reference.converged_mean_log_det(
                    info["n"], info["edges"], info["voltages"], op["q"], [u], rank, start=8
                )[0]
            )
        return None

    def check(self, result, outdir):
        problems = []
        for i, (op, ref, res) in enumerate(zip(self.plan["ops"], self.refs, result["ops"])):
            where = f"op {i} ({op['kind']})"
            if not res["ok"]:
                if not expected_failure(op, res):
                    problems.append(f"{where}: failed: {failure_reason(res)}")
                continue
            found = CHECKS[op["kind"]](op, ref, res, outdir / f"op{i:02d}", self.numpy_repr_files)
            problems += [f"{where}: {p}" for p in found]
        return problems


def expected_failure(op, res):
    """A kept failing operation may fail only with a program error (exit code 2),
    not with an exception the program does not raise on purpose."""
    return bool(op.get("expect_fail")) and not res.get("crash") and res.get("code", 2) == 2


def failure_reason(res):
    if res.get("error"):
        return res["error"][:300]
    # no error message: the command ran and its own check failed
    verdict = {k: v for k, v in res.get("summary", {}).items() if k in VERDICT_KEYS}
    return f"program check reports {verdict}"


VERDICT_KEYS = ("match", "first_mismatch", "pass", "max_relative_residual", "max_residual", "tol")


def read_csv(path, notes):
    """Rows of a numeric CSV. Under numpy 2 the program writes some fields as
    `np.float64(x)`; those are read as x and the file is added to `notes`."""
    text = path.read_text()
    if "np.float64(" in text:
        notes.add(path.name)
        text = text.replace("np.float64(", "").replace(")", "")
    return [[float(x) for x in line.split(",")] for line in text.strip().splitlines()[1:]]


def grid_points(op):
    _, radius, resolution, margin = op["grid"].split(":")
    return reference.disk_grid(op["check"]["q"], float(radius), int(resolution), float(margin))


def tower_reference(op):
    """Expected errors_N*.csv columns: the level by characters, the target by a fine node sum."""
    c = op["check"]
    base = c["base"]
    chi = base["n"] - len(base["edges"])
    points = grid_points(op)
    if c["target"] == "torus":
        log_det = reference.converged_mean_log_det(
            base["n"], base["edges"], base["voltages"], c["q"], points, 1, start=64, max_m=1 << 14
        )
        target = reference.zeta_from_log_det(chi, points, log_det)
    else:
        target = np.ones(len(points), dtype=complex)
    levels = {}
    for orders in c["levels"]:
        index = int(np.prod(orders))
        log_det = reference.mean_log_det(base["n"], base["edges"], base["voltages"], c["q"], points, orders)
        levels[index] = np.abs(reference.zeta_from_log_det(chi, points, log_det) - target)
    return points, levels


def check_tower(op, ref, res, out, notes):
    points, levels = ref
    problems = []
    for index, expected in levels.items():
        path = out / f"errors_N{index}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        rows = np.array(read_csv(path, notes))
        if len(rows) != len(points) or np.max(np.abs(rows[:, 0] + 1j * rows[:, 1] - points)) > 1e-12:
            problems.append(f"{path.name}: grid points differ from the disk rule")
            continue
        worst = float(np.max(np.abs(rows[:, 2] - expected)))
        if worst > 1e-8:
            problems.append(f"{path.name}: error field off by {worst:.3g} (tolerance 1e-8)")
    return problems


def l2_grid_reference(op):
    c = op["check"]
    base = c["base"]
    chi = base["n"] - len(base["edges"])
    points = grid_points(op)
    if c["closed_form"]:
        log_det = np.array([reference.b2_z2_log_det(u) for u in points])
    else:
        log_det = reference.converged_mean_log_det(
            base["n"], base["edges"], base["voltages"], c["q"], points, len(base["voltages"][0])
        )
    return points, reference.zeta_from_log_det(chi, points, log_det)


def check_l2_grid(op, ref, res, out, notes):
    points, expected = ref
    path = out / "values.csv"
    if not path.is_file():
        return [f"missing {path.name}"]
    rows = np.array(read_csv(path, notes))
    got_points = rows[:, 0] + 1j * rows[:, 1]
    values = rows[:, 2] + 1j * rows[:, 3]
    if len(rows) != len(points) or np.max(np.abs(got_points - points)) > 1e-12:
        return ["values.csv: grid points differ from the disk rule"]
    problems = []
    scale = np.maximum(1.0, np.abs(expected))
    worst = float(np.max(np.abs(values - expected) / scale))
    if worst > 1e-8:
        problems.append(f"L2 zeta off the reference by {worst:.3g} relative (tolerance 1e-8)")
    for i, u in enumerate(got_points):
        j = int(np.argmin(np.abs(got_points - u.conjugate())))
        if abs(got_points[j] - u.conjugate()) < 1e-12:
            gap = abs(values[j] - values[i].conjugate()) / max(1.0, abs(values[i]))
            if gap > 1e-9:
                problems.append(f"Z(conj u) != conj Z(u) at {u:.6g}: {gap:.3g} (tolerance 1e-9)")
    return problems


def check_zeta(op, ref, res, out, notes):
    info = op["check"]["base"]
    path = out / "coeffs.json"
    if not path.is_file():
        return [f"missing {path.name}"]
    coeffs = json.loads(path.read_text())
    return reference.check_det_poly(info["n"], info["edges"], coeffs, ref)


def check_flag(key):
    def check(op, ref, res, out, notes):
        return [] if res.get("summary", {}).get(key) is True else [f"program check reports {key} != true"]

    return check


def check_series(op, ref, res, out, notes):
    gap = abs(complex(*res["value"]) - ref)
    return [] if gap <= 1e-10 else [f"series value off the torus sum by {gap:.3g} (tolerance 1e-10)"]


CHECKS = {
    "tower": check_tower,
    "l2_grid": check_l2_grid,
    "zeta": check_zeta,
    "euler": check_flag("match"),
    "functional": check_flag("pass"),
    "deitmar": check_flag("pass"),
    "series": check_series,
}


if __name__ == "__main__":
    sys.exit(main())
