"""Acceptance gate: end-to-end checks with pinned tolerances.

One test per release criterion. Each prints a single [PASS]/[FAIL] line
with the measured margin (run pytest with -s to see them alongside the
verdicts). The first three pipeline checks share one batch of seeded
instances, built once per session.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sudap.cli as cli
from sudap import (
    DykstraConfig,
    EndmemberMatrix,
    relative_error_db,
    solve_oracle_activeset,
    solve_sudap,
)
from sudap import dykstra
from sudap.dykstra import TILE
from sudap.io import write_library_csv
from sudap.metrics import nmse_db
from sudap.model import EPS_NEG, EPS_SUM, column_feasibility
from sudap.projectors import project_hyperplane
from sudap.simdata import make_instance, make_scene, make_synthetic_library
from sudap.solver import solve_ls
from sudap.subspace import build_transform, forward_transform

N_INSTANCES = 50


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _decay_profile(iterates):
    """Distance of every sweep's iterate to the run's final one.

    The final iterate is the last sweep's finish point, so the hit
    sweep is looked for among the sweeps before it: the finish alone
    cannot meet the gate.
    """
    u_final = iterates[-1]
    ks = np.arange(1, len(iterates) + 1, dtype=float)
    es = np.array([float(np.linalg.norm(u - u_final)) for u in iterates])
    keep = (es > 1e-12) & (ks >= 5)
    if keep.sum() < 2:
        keep = es > 1e-12
    slope = (
        float(np.polyfit(ks[keep], np.log10(es[keep]), 1)[0])
        if keep.sum() >= 2
        else -np.inf
    )
    hits = np.flatnonzero(es[:-1] <= 1e-10 * es[0])
    hit_sweep = int(ks[hits[0]]) if hits.size else None
    return slope, hit_sweep


@pytest.fixture(scope="module")
def pipeline_runs():
    """50 seeded scenes solved by both routes, with per-run telemetry."""
    runs = []
    started = time.perf_counter()
    for m, e, cube, a_oracle in cli.oracle_runs(1000, N_INSTANCES):
        iterates = []
        sudap = solve_sudap(
            e, cube, on_sweep=lambda _s, u: iterates.append(u.copy())
        )
        # The exact finish ends most runs at its first checkpoint, before
        # the sweeps show a decay, so the decay is measured on a second
        # run of a fixed 200 sweeps, with the finish put off until the
        # last of them.
        swept = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
            solve_sudap(
                e, cube, DykstraConfig(max_sweeps=200),
                on_sweep=lambda _s, u: swept.append(u.copy()),
            )
        report = column_feasibility(sudap.a_hat)
        b = build_transform(e).b
        slope, hit_sweep = _decay_profile(swept)
        runs.append(
            {
                "m": m,
                "re_db": relative_error_db(sudap.a_hat, a_oracle),
                "converged": sudap.trace.converged,
                "max_sum_violation": report.max_sum_violation,
                "min_entry": report.min_entry,
                "sweep_violation": max(
                    float(np.abs(b @ u - 1.0).max())
                    for u in iterates + swept
                ),
                "slope": slope,
                "hit_sweep": hit_sweep,
                "n_sweeps": sudap.trace.n_sweeps,
            }
        )
    return runs, time.perf_counter() - started


def test_full_pipeline_matches_the_exact_oracle(pipeline_runs):
    runs, elapsed = pipeline_runs
    worst = max(r["re_db"] for r in runs)
    ok = (
        len(runs) >= 50
        and all(r["converged"] for r in runs)
        and worst <= cli.ORACLE_RE_DB
        and elapsed < 120.0
    )
    _report(
        "oracle equivalence",
        ok,
        f"{len(runs)} instances, worst RE {worst:.1f} dB "
        f"(threshold {cli.ORACLE_RE_DB:.0f} dB), batch took {elapsed:.1f} s "
        f"(budget 120 s)",
    )


def test_projection_routes_agree_everywhere():
    started = time.perf_counter()
    worst = cli.projector_gap(np.random.default_rng(2024), 1000)
    elapsed = time.perf_counter() - started
    ok = worst <= cli.PROJECTOR_TOL and elapsed < 5.0
    _report(
        "projector equivalence",
        ok,
        f"1000 triples, worst |geometric - KKT| {worst:.2e} "
        f"(threshold {cli.PROJECTOR_TOL:.0e}), {elapsed:.2f} s (budget 5 s)",
    )


def test_outputs_respect_the_simplex_structure(pipeline_runs):
    runs, _ = pipeline_runs
    worst_sum = max(r["max_sum_violation"] for r in runs)
    worst_min = min(r["min_entry"] for r in runs)
    worst_sweep = max(r["sweep_violation"] for r in runs)
    ok = (
        worst_sum <= EPS_SUM
        and worst_min >= -EPS_NEG
        and worst_sweep <= EPS_SUM
    )
    _report(
        "feasibility structure",
        ok,
        f"worst column-sum deviation {worst_sum:.2e} (<= {EPS_SUM:g}), "
        f"worst abundance {worst_min:.2e} (>= {-EPS_NEG:g}), "
        f"worst per-sweep sum deviation {worst_sweep:.2e} (<= {EPS_SUM:g})",
    )


def test_iterates_converge_geometrically(pipeline_runs):
    runs, _ = pipeline_runs
    worst_slope = max(r["slope"] for r in runs)
    hits = [r["hit_sweep"] for r in runs]
    latest = max(h for h in hits if h is not None) if any(
        h is not None for h in hits
    ) else None
    ok = worst_slope < 0.0 and all(
        h is not None and h <= 1000 for h in hits
    )
    _report(
        "geometric convergence",
        ok,
        f"worst tail slope {worst_slope:.3f} log10/sweep (< 0), "
        f"all runs below 1e-10 of the initial error by sweep "
        f"{latest} (<= 1000)",
    )


def _sweep_problem(m: int, n: int, seed: int):
    # Full-width sweeps of the solver's kernel, on the multipliers tau
    # and rhs = f - S Y0: the driver itself stops sweeping certified
    # columns after the first checkpoint.
    rng = np.random.default_rng(seed)
    e = EndmemberMatrix(rng.standard_normal((m + 24, m)))
    t = build_transform(e)
    y = 2.0 * rng.standard_normal((m, n))
    return t, dykstra._rhs(t, project_hyperplane(t, y))


def _per_sweep_seconds(t, rhs, sweeps: int = 20) -> float:
    tau = np.zeros_like(rhs)
    started = time.perf_counter()
    for sweep in range(1, sweeps + 1):
        dykstra._sweep_tile(t, rhs, tau, sweep, slice(None))
    return (time.perf_counter() - started) / sweeps


def test_sweep_cost_scales_with_pixels_and_endmembers():
    started = time.perf_counter()
    _per_sweep_seconds(*_sweep_problem(8, 40_000, 0), sweeps=5)  # warm up
    sizes = [_sweep_problem(8, 10_000, 1), _sweep_problem(8, 40_000, 2),
             _sweep_problem(16, 10_000, 3)]
    # The sizes take turns, best of 5 rounds each, so that a spell of
    # load on the host slows every size alike.
    best = [np.inf] * len(sizes)
    for _ in range(5):
        for k, problem in enumerate(sizes):
            best[k] = min(best[k], _per_sweep_seconds(*problem))
    t_base, t_pixels, t_members = best
    elapsed = time.perf_counter() - started
    r_pixels = t_pixels / t_base
    r_members = t_members / t_base
    ok = (
        2.5 <= r_pixels <= 6.0
        and 2.5 <= r_members <= 6.0
        and elapsed < 60.0
    )
    _report(
        "complexity scaling",
        ok,
        f"4x pixels -> {r_pixels:.2f}x sweep time, "
        f"2x endmembers -> {r_members:.2f}x (both within [2.5, 6]), "
        f"{elapsed:.1f} s (budget 60 s)",
    )


def test_subspace_problem_is_the_image_problem_shifted():
    rng = np.random.default_rng(77)
    e, _, cube = make_instance(6, (1, 200), 20.0, seed=77, n_bands=48)
    t = build_transform(e)
    y = forward_transform(t, e, cube.data)
    gaps = np.empty(100)
    for k in range(100):
        a = rng.dirichlet(np.ones(6), size=200).T
        gaps[k] = (
            np.linalg.norm(cube.data - e.data @ a) ** 2
            - np.linalg.norm(y - t.d @ a) ** 2
        )
    spread = float((gaps.max() - gaps.min()) / abs(gaps.mean()))
    a_ls = solve_ls(e, cube).a_hat.data
    ls_gap = float(np.max(np.abs(y - t.d @ a_ls)))
    ok = spread <= 1e-8 and ls_gap <= 1e-10
    _report(
        "reduced-problem equivalence",
        ok,
        f"objective gap constant to {spread:.2e} relative over 100 "
        f"abundance draws (<= 1e-8); transformed data matches the "
        f"scaled LS estimate to {ls_gap:.2e} (<= 1e-10)",
    )


def test_noiseless_scenes_are_recovered_exactly():
    lib = make_synthetic_library(n_bands=96, n_signatures=24, seed=88)
    _, e, a_true, cube = make_scene(
        lib, 5, 10.0, (64, 64), np.inf, (88, 89, 0)
    )
    result = solve_sudap(e, cube)
    err = nmse_db(result.a_hat.data, a_true.data)
    ok = err <= -160.0
    _report(
        "noiseless recovery",
        ok,
        f"NMSE {err:.1f} dB (threshold -160 dB)",
    )


def test_survey_scale_scene_reaches_the_stopping_error():
    lib = make_synthetic_library(n_bands=224, n_signatures=24, seed=99)
    _, e, _, cube = make_scene(
        lib, 5, 10.0, (100, 100), 30.0, (99, 100, 101)
    )
    oracle = solve_oracle_activeset(e, cube)
    result, hit, time_to, _ = cli.time_to_re(
        e, cube, oracle.a_hat, DykstraConfig(), -100.0
    )
    ok = hit > 0
    _report(
        "survey-scale run",
        ok,
        f"100x100 pixels, 224 bands, m=5, SNR 30 dB: RE hit -100 dB at "
        f"sweep {hit} after {time_to * 1e3:.1f} ms of solver time; "
        f"full run {result.wall_time:.2f} s, oracle {oracle.wall_time:.2f} s "
        f"(wall times reported, not asserted)",
    )


def test_repeated_runs_write_identical_bytes(tmp_path):
    lib_path = tmp_path / "library.csv"
    write_library_csv(
        lib_path, make_synthetic_library(n_bands=64, seed=111)
    )
    prefix = tmp_path / "scene"
    # 128 x 128 pixels span four tiles, so the threads split the
    # interior check, and the pixels it leaves span more than one tile
    # of the sweep.
    assert 128 * 128 >= 4 * TILE
    rc = cli.main([
        "simulate", "--library", str(lib_path), "--m", "6",
        "--min-angle", "10", "--rows", "128", "--cols", "128",
        "--snr-db", "15", "--seed", "112", "--out-prefix", str(prefix),
    ])
    assert rc == 0
    blobs = []
    for tag, threads in (("a", "4"), ("b", "4"), ("c", "1")):
        out = tmp_path / f"est_{tag}.abund"
        rc = cli.main([
            "unmix", "--cube", f"{prefix}.cube",
            "--endmembers", f"{prefix}.endmembers.csv",
            "--solver", "sudap", "--out", str(out),
            "--threads", threads,
        ])
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(
        "determinism",
        ok,
        "two 4-thread runs and one single-thread run wrote identical "
        f"abundance files ({len(blobs[0])} bytes each)"
        if ok
        else "outputs differ across thread counts",
    )


# Solves perfbench's deep-m14 scene (pixel seed 1) in memory and saves
# the abundances; argv: perfbench's directory, the output .npy path.
_SOLVE_DEEP_M14 = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from scenes import WORKLOADS, make_scene
from sudap import solve_sudap
scene = make_scene(WORKLOADS["deep-m14"], 1)
np.save(sys.argv[2], solve_sudap(scene.e, scene.cube).a_hat.data)
"""


def test_blas_thread_count_moves_only_the_last_bits(tmp_path):
    # --threads never changes a bit, but the BLAS thread count can,
    # through the forward map's one product over an in-memory cube: at
    # one and two OpenBLAS threads Y differs by 8.9e-16 on this scene
    # while the Gram matrix and D^{-1} are identical, and the solver's
    # blocked m x m products keep each column's bits. The count is fixed
    # when BLAS loads, so each count gets its own process.
    root = Path(__file__).resolve().parent.parent
    outs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   OMP_NUM_THREADS=blas_threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = tmp_path / f"blas{blas_threads}.npy"
        subprocess.run(
            [sys.executable, "-c", _SOLVE_DEEP_M14,
             str(root / "perfbench"), str(out)],
            env=env, check=True,
        )
        outs.append(np.load(out))
    worst = float(np.abs(outs[0] - outs[1]).max())
    _report(
        "BLAS-thread drift",
        worst <= 1e-14,
        f"deep-m14 abundances at one and two OpenBLAS threads differ by "
        f"at most {worst:.1e} (bound 1e-14)",
    )
