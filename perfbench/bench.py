"""Layered unmix benchmark: operations, checks, metrics and the result line.

run.py pins BLAS to one thread and puts the checkout's src/ first on
sys.path before this module imports numpy; start the benchmark there.

A plain run (--trace 0) sets the scene up SETUP_REPS times and makes
one warm-up unmix call under tracemalloc for peak_mb. Then, until
--seconds have passed, it repeats rounds of one unmix call,
time-to-RE solves for SHORT_SLICE_S and oracle solves for
SHORT_SLICE_S, and reports the median of each. A traced run (--trace 1)
alternates traced and untraced unmix calls for --seconds, then makes
one full observer pass for the sweep counts. Every operation's output
is checked; a failed check counts the operation as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from sudap import cli
from sudap import io as sio
from sudap.dykstra import DykstraConfig
from sudap.metrics import relative_error_db
from sudap.model import column_feasibility
from sudap.projectors import project_hyperplane
from sudap.solver import solve_oracle_activeset, solve_sudap
from sudap.subspace import (
    build_transform,
    forward_transform,
    inverse_transform,
)

import scenes
import tracer as tr

# -100 dB RE against the exact optimum: far below the ~-30 dB estimation
# error at these SNRs, so anything worse is a solver failure.
RE_GATE_DB = -100.0
# The CLI's --rel-tol for every solve, as in the README's reference run.
# At the default 1e-10 the stop leaves negative abundances down to -8e-7
# (tall-m10) and -1.4e-7 (deep-m14), which fail column_feasibility's
# -1e-7 floor: every such call would be a failed operation.
REL_TOL = 1e-12
SETUP_REPS = 3
SHORT_SLICE_S = 1.0

E2E_UNITS = {
    "unmix_s": "s",
    "mpix_per_s": "Mpx/s",
    "re100_s": "s",
    "oracle_s": "s",
    "peak_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "projectors.kernel_s": "s",
    "projectors.calls": "count",
    "projectors.ns_per_pixel_m2": "ns",
    "projectors.hyperplane_s": "s",
    "dykstra.project_s": "s",
    "dykstra.self_s": "s",
    "dykstra.self_frac": "fraction",
    "dykstra.state_mb": "MB",
    "dykstra.sweeps": "count",
    "dykstra.sweeps_to_re100": "count",
    "dykstra.moving_frac": "fraction",
    "subspace.build_transform_s": "s",
    "subspace.forward_s": "s",
    "subspace.inverse_s": "s",
    "io.read_cube_s": "s",
    "io.read_mb": "MB",
    "io.read_endmembers_s": "s",
    "io.write_abundance_s": "s",
    "metrics.objective_s": "s",
    "model.feasibility_s": "s",
    "solver.solve_sudap_s": "s",
    "solver.self_s": "s",
    "solver.constrained_frac": "fraction",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_frac": "fraction",
}

UNITS = {**E2E_UNITS, **LAYER_UNITS}

# The CLI's top-level calls inside one unmix; cli.self_s is the rest.
TOP_LEVEL = ("io.read_cube", "io.read_endmembers", "solver.solve_sudap",
             "io.write_abundance", "metrics.objective", "model.feasibility")
SOLVER_CHILDREN = ("subspace.build_transform", "subspace.forward",
                   "dykstra.project", "subspace.inverse")
DYKSTRA_CHILDREN = ("projectors.kernel", "projectors.hyperplane")

# metric -> (span, Tracer.totals field, child spans its self time needs)
SPAN_METRICS = {
    "projectors.kernel_s": ("projectors.kernel", "s", ()),
    "projectors.calls": ("projectors.kernel", "calls", ()),
    "projectors.hyperplane_s": ("projectors.hyperplane", "s", ()),
    "dykstra.project_s": ("dykstra.project", "s", ()),
    "dykstra.self_s": ("dykstra.project", "self_s", DYKSTRA_CHILDREN),
    "subspace.build_transform_s": ("subspace.build_transform", "s", ()),
    "subspace.forward_s": ("subspace.forward", "s", ()),
    "subspace.inverse_s": ("subspace.inverse", "s", ()),
    "io.read_cube_s": ("io.read_cube", "s", ()),
    "io.read_endmembers_s": ("io.read_endmembers", "s", ()),
    "io.write_abundance_s": ("io.write_abundance", "s", ()),
    "metrics.objective_s": ("metrics.objective", "s", ()),
    "model.feasibility_s": ("model.feasibility", "s", ()),
    "solver.solve_sudap_s": ("solver.solve_sudap", "s", ()),
    "solver.self_s": ("solver.solve_sudap", "self_s", SOLVER_CHILDREN),
    "cli.self_s": ("cli.unmix", "self_s", TOP_LEVEL),
}


class Ledger:
    """Counts operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def run(self, what: str, op):
        """Call op() -> (value, problems); a raise is a failure, value None."""
        self.attempted += 1
        try:
            value, problems = op()
        except Exception as exc:  # any raise is a failed operation
            value, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return value


def check_abundance(a, a_star: np.ndarray) -> list:
    """Problems with a solver output, an AbundanceMatrix; [] when fine."""
    problems = []
    report = column_feasibility(a)
    if not report.feasible:
        problems.append(
            f"infeasible: sum deviation {report.max_sum_violation:.3e}, "
            f"min entry {report.min_entry:.3e}"
        )
    re = relative_error_db(a, a_star)
    if re > RE_GATE_DB:
        problems.append(f"final RE {re:.1f} dB is worse than {RE_GATE_DB} dB")
    return problems


# ------------------------------------------------------------ operations


def oracle_op(scene):
    t0 = perf_counter()
    res = solve_oracle_activeset(scene.e, scene.cube)
    wall = perf_counter() - t0
    ok = column_feasibility(res.a_hat).feasible
    return (wall, res.a_hat.data), [] if ok else ["oracle output infeasible"]


def unmix_op(paths, out_path, a_star, tracer=None):
    """One in-process `sudap unmix --solver sudap` call; returns its wall."""
    cube_path, csv_path = paths
    argv = ["unmix", "--cube", cube_path, "--endmembers", csv_path,
            "--solver", "sudap", "--out", out_path, "--threads", "1",
            "--rel-tol", repr(REL_TOL)]
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = StringIO(), StringIO()
    tracing = nullcontext() if tracer is None else tr.installed(tracer)
    with redirect_stdout(stdout), redirect_stderr(stderr), tracing:
        t0 = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - t0
    if rc != 0:
        return wall, [f"exit code {rc}: {stderr.getvalue().strip()}"]
    problems = []
    if "(converged: True)" not in stdout.getvalue():
        problems.append("report does not say converged: True")
    problems += check_abundance(sio.read_abundance(out_path), a_star)
    return wall, problems


def peak_op(paths, out_path, a_star):
    tracemalloc.start()
    try:
        _, problems = unmix_op(paths, out_path, a_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, problems


class _Reached(Exception):
    pass


def re100_op(scene, a_star, full: bool):
    """Solve with an observer that finds the first sweep within RE_GATE_DB.

    Returns a dict with hit_s (solver seconds to that sweep, observer
    time excluded), hit_sweep, sweeps and moving (pixel-sweeps whose
    column moved by more than REL_TOL times its norm). Unless full, the
    solve is cut at the hit sweep.
    """
    e, cube = scene.e, scene.cube
    t = build_transform(e)
    prev = None
    if full:
        prev = project_hyperplane(t, forward_transform(t, e, cube))
    st = {"hit_s": None, "hit_sweep": None, "sweeps": 0, "moving": 0,
          "observer_s": 0.0}

    def on_sweep(sweep, u):
        tin = perf_counter()
        if st["hit_s"] is None and relative_error_db(
            inverse_transform(t, u), a_star
        ) <= RE_GATE_DB:
            st["hit_s"] = tin - t0 - st["observer_s"]
            st["hit_sweep"] = sweep
        if full:
            step = np.linalg.norm(u - prev, axis=0)
            st["moving"] += int(np.count_nonzero(
                step > REL_TOL * np.linalg.norm(u, axis=0)))
            prev[...] = u
        st["sweeps"] = sweep
        st["observer_s"] += perf_counter() - tin
        if not full and st["hit_s"] is not None:
            raise _Reached

    t0 = perf_counter()
    try:
        res = solve_sudap(e, cube, DykstraConfig(rel_tol=REL_TOL, threads=1),
                          on_sweep=on_sweep)
    except _Reached:
        res = None
    problems = []
    if st["hit_s"] is None:
        problems.append(f"never within {RE_GATE_DB} dB of the optimum")
    if res is not None:
        if not res.trace.converged:
            problems.append(f"not converged after {res.trace.n_sweeps} sweeps")
        problems += check_abundance(res.a_hat, a_star)
    return st, problems


# ------------------------------------------------------------------ runs


def set_up(w, seed, workdir, ledger, reps):
    """Generate, write and solve exactly, reps times; returns the last."""
    times, scene, paths, ref = [], None, None, None
    for _ in range(reps):
        t0 = perf_counter()
        scene = scenes.make_scene(w, seed)
        paths = scenes.write_scene(scene, workdir)
        ref = ledger.run("oracle reference", lambda: oracle_op(scene))
        times.append(perf_counter() - t0)
    a_star = None if ref is None else ref[1]
    return scene, paths, a_star, times


def _for_at_least(seconds: float):
    """Yield once, then again until `seconds` have passed since the start."""
    t0 = perf_counter()
    yield
    while perf_counter() - t0 < seconds:
        yield


def _sample(sink: list, value) -> None:
    if value is not None:
        sink.append(value)


def _median(values):
    return statistics.median(values) if values else None


def run_plain(w, seed, seconds, workdir, ledger) -> dict:
    scene, paths, a_star, setup_times = set_up(
        w, seed, workdir, ledger, SETUP_REPS)
    if a_star is None:
        return {}
    out = os.path.join(workdir, "out.abund")
    # Also the warm-up: the timed calls below find code and files hot.
    peak = ledger.run("unmix under tracemalloc",
                      lambda: peak_op(paths, out, a_star))
    unmix, re100, oracle = [], [], []
    for _ in _for_at_least(seconds):
        _sample(unmix, ledger.run(
            "unmix", lambda: unmix_op(paths, out, a_star)))
        # The short operations fill SHORT_SLICE_S of each round, which
        # gives their medians more samples.
        for _ in _for_at_least(SHORT_SLICE_S):
            st = ledger.run("time to RE",
                            lambda: re100_op(scene, a_star, False))
            _sample(re100, st and st["hit_s"])
        for _ in _for_at_least(SHORT_SLICE_S):
            ref = ledger.run("oracle", lambda: oracle_op(scene))
            _sample(oracle, ref and ref[0])
    for name, values in (("unmix_s", unmix), ("re100_s", re100),
                         ("oracle_s", oracle), ("setup_s", setup_times)):
        print(f"samples {name}: " + " ".join(f"{v:.4f}" for v in values))
    metrics = {
        "unmix_s": _median(unmix),
        "mpix_per_s": w.n_pixels / 1e6 / _median(unmix) if unmix else None,
        "re100_s": _median(re100),
        "oracle_s": _median(oracle),
        "peak_mb": None if peak is None else peak / 1e6,
        "setup_s": _median(setup_times),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def layer_metrics(tracer, w) -> dict:
    """Per-layer numbers of one traced unmix call.

    A metric is left out when its span, or a child span its self time
    subtracts, could not be traced.
    """
    tot = tracer.totals()
    absent = set(tracer.absent)
    out = {}
    for metric, (span, field, children) in SPAN_METRICS.items():
        if span not in absent and not absent.intersection(children):
            out[metric] = tot.get(span, {field: 0})[field]
    if "projectors.kernel_s" in out:
        pixel_m2 = out["projectors.calls"] * w.n_pixels * w.m
        out["projectors.ns_per_pixel_m2"] = (
            1e9 * out["projectors.kernel_s"] / pixel_m2)
    if "dykstra.self_s" in out:
        out["dykstra.self_frac"] = (
            out["dykstra.self_s"] / out["dykstra.project_s"])
    if "cli.self_s" in out:
        out["trace.coverage_frac"] = (
            1.0 - out["cli.self_s"] / tot["cli.unmix"]["s"])
    return out


def run_traced(w, seed, seconds, workdir, ledger) -> dict:
    scene, paths, a_star, _ = set_up(w, seed, workdir, ledger, 1)
    if a_star is None:
        return {}
    out = os.path.join(workdir, "out.abund")
    ledger.run("unmix warm-up", lambda: unmix_op(paths, out, a_star))
    traced, plain, layers = [], [], []
    for _ in _for_at_least(seconds):
        t = tr.Tracer()
        wall = ledger.run("traced unmix",
                          lambda: unmix_op(paths, out, a_star, t))
        if wall is not None:
            traced.append(wall)
            layers.append(layer_metrics(t, w))
        _sample(plain, ledger.run(
            "unmix", lambda: unmix_op(paths, out, a_star)))
    if t.absent:
        print("wrap targets missing: " + ", ".join(t.absent))
    st = ledger.run("observer pass", lambda: re100_op(scene, a_star, True))
    print(f"samples: traced unmix {len(traced)}, untraced unmix {len(plain)}")

    # The lower median is one call's own value, so counts stay integers.
    metrics = {
        name: statistics.median_low(d[name] for d in layers)
        for name in (layers[0] if layers else {})
    }
    m, n = w.m, w.n_pixels
    metrics["dykstra.state_mb"] = 8 * (m + 2) * m * n / 1e6
    metrics["io.read_mb"] = (
        w.cube_bytes + os.path.getsize(paths[1])) / 1e6
    metrics["solver.constrained_frac"] = float(
        np.count_nonzero((a_star == 0.0).any(axis=0)) / n)
    if st is not None:
        metrics["dykstra.sweeps"] = st["sweeps"]
        if st["hit_sweep"] is not None:
            metrics["dykstra.sweeps_to_re100"] = st["hit_sweep"]
        metrics["dykstra.moving_frac"] = st["moving"] / (st["sweeps"] * n)
    if traced and plain:
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain))
    return metrics


# ------------------------------------------------------------ reporting


def git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, w, seed: int, seconds: float) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pin": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "SUDAP_THREADS"},
        "workload": w.name,
        "seed": seed,
        "scene_seed": scenes.SCENE_SEED,
        "seconds": seconds,
        "sizes": w.sizes(),
    }


def result_line(metrics: dict, ledger: Ledger) -> str:
    return json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    })


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=sorted(scenes.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    w = scenes.WORKLOADS[args.workload]
    info = provenance(root, w, args.seed, args.seconds)
    print("provenance " + json.dumps(info))
    ledger = Ledger()
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root)
    try:
        if args.trace:
            metrics = run_traced(w, args.seed, args.seconds, workdir, ledger)
        else:
            metrics = run_plain(w, args.seed, args.seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still has its folder there
            pass
    units = LAYER_UNITS if args.trace else E2E_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    absent = [name for name in units if name not in metrics]
    if absent:
        print("absent metrics: " + ", ".join(absent))
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"failed_frac = {len(ledger.failures) / max(ledger.attempted, 1):g} "
          f"({len(ledger.failures)}/{ledger.attempted})")
    print(result_line(metrics, ledger))
    return 1 if ledger.failures or not metrics else 0
