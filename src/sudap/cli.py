"""Command-line interface.

Four subcommands:

* simulate: build a synthetic cube plus ground truth from a library.
* unmix: run one solver on a cube and write the abundance file.
* benchmark: sweep m, pixel count, or SNR; measure time to an RE
  threshold against an exact reference.
* validate: the acceptance gate's projector, oracle and sum-constraint
  checks on seeded scenes, with a pass/fail table.

Every command is deterministic given its seed: rerunning writes
byte-identical data files. The exceptions are measured timings
(benchmark summaries, curve time columns), which are genuine
measurements and vary run to run.

Exit codes: 0 success; 1 validation failure; 2 usage error; otherwise
one distinct code per error class, see EXIT_CODES. An unmix run that
stops at --max-sweeps with pixels still uncertified writes its output
and report, then exits 25 (NotConverged).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from . import errors
from . import io as sio
from .dykstra import DykstraConfig, _rhs
from .metrics import (
    CurveRecorder,
    nmse_db,
    objective,
    relative_error_db,
)
from .model import (
    EPS_SUM,
    AbundanceMatrix,
    EndmemberMatrix,
    column_feasibility,
)
from .projectors import (
    project_hyperplane,
    project_intersection_dual,
    project_intersection_kkt,
)
from .simdata import (
    NoiseSpec,
    SpectralLibrary,
    child_seeds,
    make_instance,
    make_scene,
    measured_snr_db,
)
from .solver import (
    MAX_ORACLE_ENDMEMBERS,
    clip_negatives,
    solve_ls,
    solve_ls_sum1,
    solve_oracle_activeset,
    solve_sudap,
)
from .subspace import build_transform

EXIT_CODES = {
    errors.DimensionMismatch: 10,
    errors.ShapeMismatch: 11,
    errors.RankDeficient: 12,
    errors.DegenerateProblem: 13,
    errors.IndexOutOfRange: 14,
    errors.NonFinite: 15,
    errors.TooManyEndmembers: 16,
    errors.NoKKTPoint: 17,
    errors.InsufficientCandidates: 18,
    errors.ZeroReference: 19,
    errors.ParseError: 20,
    errors.EmptyFile: 21,
    errors.BadMagic: 22,
    errors.TruncatedFile: 23,
    errors.VersionUnsupported: 24,
    errors.NotConverged: 25,
}
OS_ERROR_CODE = 30


def _at_least(low):
    """argparse type: a number of low's type (int or float), >= low."""

    def number(text: str):
        value = type(low)(text)
        if not value >= low:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return number


def _snr_db(text: str) -> float:
    """argparse type: an SNR in dB, bounded as NoiseSpec bounds it."""
    try:
        return NoiseSpec(float(text), 0).snr_db
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    lib = sio.read_library_csv(args.library)
    idx, e, a, cube = make_scene(
        lib, args.m, args.min_angle, (args.rows, args.cols), args.snr_db,
        child_seeds(args.seed, 3),
    )
    names = tuple(lib.names[i] for i in idx)
    sio.write_cube(f"{args.out_prefix}.cube", cube)
    sio.write_abundance(f"{args.out_prefix}.truth", a)
    sio.write_library_csv(
        f"{args.out_prefix}.endmembers.csv",
        SpectralLibrary(e.data, names, wavelengths=lib.wavelengths),
    )
    print(f"selected endmembers: {', '.join(names)}")
    snr = measured_snr_db(cube, e, a)
    print(f"measured SNR: {snr:.2f} dB" if np.isfinite(snr)
          else "measured SNR: inf (noiseless)")
    print(f"wrote {args.out_prefix}.cube, .truth, .endmembers.csv")
    return 0


# ---------------------------------------------------------------- unmix


def _load_reference(path, m: int, n: int, what: str) -> AbundanceMatrix:
    ref = sio.read_abundance(path)
    if ref.data.shape != (m, n):
        raise errors.ShapeMismatch(
            f"{what} {path} has shape {ref.data.shape}, "
            f"expected ({m}, {n})"
        )
    return ref


def cmd_unmix(args) -> int:
    elib = sio.read_library_csv(args.endmembers)
    e = EndmemberMatrix(elib.signatures, wavelengths=elib.wavelengths)
    # sudap reads the cube file one tile at a time, so the cube is never
    # held whole, and the file stays open for the solve. The other
    # routes read it whole.
    if args.solver != "sudap":
        return _unmix(args, e, sio.read_cube(args.cube))
    with sio.open_cube(args.cube) as source:
        return _unmix(args, e, source)


def _unmix(args, e: EndmemberMatrix, x) -> int:
    m, n = e.n_endmembers, x.n_pixels
    a_ref = (
        _load_reference(args.reference, m, n, "reference")
        if args.reference
        else None
    )
    a_true = (
        _load_reference(args.truth, m, n, "truth") if args.truth else None
    )
    # The subspace solve holds no Y; the curve's rows read Y again, so
    # the recorder forms and holds its own. Only a subspace run with
    # m >= 2 has sweeps to record; the other routes write a header-only
    # curve.
    recorder = None
    if args.solver == "sudap" and m >= 2 and args.curve:
        recorder = CurveRecorder(
            e, x, args.snapshot_every, a_star=a_ref, a_true=a_true
        )

    if args.solver == "sudap":
        result = solve_sudap(e, x, args.cfg, on_sweep=recorder)
    elif args.solver == "ls":
        result = solve_ls(e, x)
    elif args.solver == "ls-sum1":
        result = solve_ls_sum1(e, x)
    else:
        result = solve_oracle_activeset(e, x)

    a_out = clip_negatives(result.a_hat) if args.clip else result.a_hat
    sio.write_abundance(args.out, a_out)

    if args.curve:
        sio.write_curve_csv(
            recorder.curve(result.trace) if recorder
            else sio.ConvergenceCurve(*[np.zeros(0)] * 6),
            args.curve,
        )

    # sudap sums the objective of its output in the solve; clipped
    # abundances, and the other solvers', are summed here, from a file
    # by reading it once more.
    value = result.objective
    if value is None or args.clip:
        value = objective(e, x, a_out)
    report = column_feasibility(a_out)
    print(f"solver: {result.solver_id}")
    print(f"objective |X - EA|_F^2: {value:.10e}")
    print(f"wall time: {result.wall_time:.3f} s")
    print(
        f"feasibility: max column-sum deviation {report.max_sum_violation:.3e}, "
        f"min abundance {report.min_entry:.3e}, "
        f"{'feasible' if report.feasible else 'NOT feasible'}"
    )
    if a_ref is not None:
        print(f"final RE vs reference: {relative_error_db(a_out, a_ref):.2f} dB")
    if a_true is not None:
        print(f"final NMSE vs truth: {nmse_db(a_out, a_true):.2f} dB")
    trace = result.trace
    if trace.n_sweeps:
        print(f"sweeps: {trace.n_sweeps} (converged: {trace.converged})")
    if not trace.converged:
        raise errors.NotConverged(
            f"stopped at --max-sweeps {trace.n_sweeps} with "
            f"{trace.uncertified[-1]} pixel(s) uncertified; the output "
            f"and the report above are of that last iterate"
        )
    return 0


# ------------------------------------------------------------ benchmark


def time_to_re(e, cube, a_star, cfg: DykstraConfig, stop_re_db: float):
    """Solve with sudap under cfg, watching RE against a_star each sweep.

    A CurveRecorder, which forms its own Y of the cube, records every
    sweep. Returns (result, hit_sweep, hit_s, final_re_db):
    the first sweep whose RE is at most stop_re_db (-1 if none), the
    solver-only seconds up to its end (nan if none) and the last sweep's
    RE.
    """
    recorder = CurveRecorder(e, cube, 1, a_star=a_star)
    result = solve_sudap(e, cube, cfg, on_sweep=recorder)
    curve = recorder.curve(result.trace)
    final_re = float(curve.re_db[-1])
    below = np.flatnonzero(curve.re_db <= stop_re_db)
    if below.size == 0:
        return result, -1, np.nan, final_re
    k = below[0]
    return result, int(curve.sweep[k]), float(curve.time_s[k]), final_re


def _benchmark_instance(lib, m, n, snr_db, min_angle, stop_re_db, cfg,
                        seed):
    _, e, _, cube = make_scene(
        lib, m, min_angle, (1, n), snr_db, child_seeds(seed, 3)
    )

    if m <= MAX_ORACLE_ENDMEMBERS:
        ref = solve_oracle_activeset(e, cube)
    else:
        ref = solve_sudap(
            e, cube, dataclasses.replace(cfg, max_sweeps=4 * cfg.max_sweeps)
        )
        if not ref.trace.converged:
            raise errors.NotConverged(
                f"the sudap reference stopped at {ref.trace.n_sweeps} "
                f"sweeps with {ref.trace.uncertified[-1]} pixel(s) "
                "uncertified"
            )
    _, hit, hit_s, final_re = time_to_re(
        e, cube, ref.a_hat.data, cfg, stop_re_db
    )
    return {
        "oracle_time_s": ref.wall_time,
        "sweeps_to_threshold": hit,
        "time_to_threshold_s": hit_s,
        "final_re_db": final_re,
        "status": "ok" if hit > 0 else "threshold-not-reached",
    }


def cmd_benchmark(args) -> int:
    lib = sio.read_library_csv(args.library)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"benchmark_{args.sweep_var}.csv")

    rng = np.random.default_rng(args.seed)
    header = [
        "kind", "variable", "value", "repeat", "seed", "oracle_time_s",
        "sweeps_to_threshold", "time_to_threshold_s", "final_re_db",
        "status",
    ]
    rows = []
    per_value: dict = {v: [] for v in args.values}
    for value in args.values:
        m, n, snr = 5, 1024, 30.0
        if args.sweep_var == "m":
            m = value
        elif args.sweep_var == "pixels":
            n = value
        else:
            snr = value
        for repeat in range(args.repeats):
            seed = int(rng.integers(0, 2**63 - 1))
            try:
                rec = _benchmark_instance(
                    lib, m, n, snr, args.min_angle, args.stop_re_db,
                    args.cfg, seed,
                )
            except errors.SudapError as exc:
                rows.append([
                    "run", args.sweep_var, value, repeat, seed,
                    "", "", "", "", f"failed:{type(exc).__name__}",
                ])
                print(f"value={value} repeat={repeat}: FAILED {exc}",
                      file=sys.stderr)
                continue
            rows.append([
                "run", args.sweep_var, value, repeat, seed,
                f"{rec['oracle_time_s']:.6f}",
                rec["sweeps_to_threshold"],
                "" if np.isnan(rec["time_to_threshold_s"])
                else f"{rec['time_to_threshold_s']:.6f}",
                f"{rec['final_re_db']:.4f}",
                rec["status"],
            ])
            if rec["status"] == "ok":
                per_value[value].append(rec)
            print(
                f"value={value} repeat={repeat}: "
                f"{rec['sweeps_to_threshold']} sweeps, "
                f"{rec['time_to_threshold_s']:.4f} s to "
                f"{args.stop_re_db:.0f} dB, final RE "
                f"{rec['final_re_db']:.1f} dB"
            )

    for value in args.values:
        recs = per_value[value]
        if not recs:
            continue
        times = np.array([r["time_to_threshold_s"] for r in recs])
        sweeps = np.array([r["sweeps_to_threshold"] for r in recs],
                          dtype=float)
        for kind, reduce in (("mean", np.mean), ("std", np.std)):
            rows.append([
                kind, args.sweep_var, value, "", "", "",
                f"{reduce(sweeps):.2f}", f"{reduce(times):.6f}", "", "",
            ])

    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {out_path}")
    return 0


# ------------------------------------------------------------- validate


# Thresholds shared with the acceptance gate: the two projection routes
# agree to PROJECTOR_TOL, and every sudap answer is within ORACLE_RE_DB
# of the exact oracle's. The column-sum bound is model.EPS_SUM.
PROJECTOR_TOL = 1e-12
ORACLE_RE_DB = -120.0


def projector_gap(rng, n_triples: int) -> float:
    """Worst |geometric - KKT| projection over random (E, i, Z) triples.

    The geometric route is the solver's own step: drop Z onto the
    hyperplane, giving Y0, take one project_intersection_dual from
    tau = 0 on the solver's rhs = f - S Y0 (dykstra._rhs), and form
    U = Y0 + S'tau.
    """
    worst = 0.0
    for _ in range(n_triples):
        m = int(rng.integers(2, 9))
        e = EndmemberMatrix(
            rng.standard_normal((m + int(rng.integers(0, 25)), m))
        )
        t = build_transform(e)
        z = 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(
            (m, int(rng.integers(1, 33)))
        )
        i = int(rng.integers(0, m))
        y0 = project_hyperplane(t, z)
        tau = np.zeros_like(z)
        project_intersection_dual(t, i, _rhs(t, y0), tau)
        geo = y0 + t.s.T @ tau
        kkt = project_intersection_kkt(t, i, z)
        worst = max(worst, float(np.max(np.abs(geo - kkt))))
    return worst


def oracle_runs(seed: int, n_instances: int):
    """Seeded 32x32 scenes with exact answers; yield (m, e, cube, a_oracle).

    Scene k has m = 3 + k % 6 endmembers, SNR 30 dB and seed seed + k;
    a_oracle is the active-set solver's abundance matrix for it.
    """
    for k in range(n_instances):
        m = 3 + k % 6
        e, _, cube = make_instance(m, (32, 32), 30.0, seed + k)
        yield m, e, cube, solve_oracle_activeset(e, cube).a_hat


def cmd_validate(args) -> int:
    worst_proj = projector_gap(
        np.random.default_rng(args.seed), 10 * args.instances
    )
    worst_re, worst_sum, converged = -np.inf, 0.0, True
    for _, e, cube, a_oracle in oracle_runs(args.seed, args.instances):
        result = solve_sudap(e, cube)
        worst_re = max(worst_re, relative_error_db(result.a_hat, a_oracle))
        worst_sum = max(
            worst_sum, column_feasibility(result.a_hat).max_sum_violation
        )
        converged &= result.trace.converged
    checks = [
        ("projector-equivalence", worst_proj, PROJECTOR_TOL,
         worst_proj <= PROJECTOR_TOL),
        ("oracle-equivalence", worst_re, ORACLE_RE_DB,
         converged and worst_re <= ORACLE_RE_DB),
        ("column-sum-confinement", worst_sum, EPS_SUM,
         worst_sum <= EPS_SUM),
    ]
    all_ok = True
    print(f"{'property':<26} {'worst':>14} {'threshold':>12}  verdict")
    for name, worst, threshold, ok in checks:
        all_ok &= ok
        print(
            f"{name:<26} {worst:>14.4e} {threshold:>12.1e}  "
            f"{'pass' if ok else 'FAIL'}"
        )
    return 0 if all_ok else 1


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sudap",
        description="Fully constrained spectral unmixing by subspace "
        "projection.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="generate a synthetic cube from a library"
    )
    sim.add_argument("--library", required=True,
                     help="spectral library CSV")
    sim.add_argument("--m", type=_at_least(1), required=True,
                     help="number of endmembers to select")
    sim.add_argument("--min-angle", type=_at_least(0.0), required=True,
                     help="pairwise angle floor in degrees")
    sim.add_argument("--rows", type=_at_least(1), required=True)
    sim.add_argument("--cols", type=_at_least(1), required=True)
    sim.add_argument("--snr-db", type=_snr_db, required=True,
                     help="target SNR in dB; inf for noiseless")
    sim.add_argument("--seed", type=_at_least(0), required=True)
    sim.add_argument("--out-prefix", required=True)
    sim.set_defaults(func=cmd_simulate)

    un = sub.add_parser("unmix", help="estimate abundances for a cube")
    un.add_argument("--cube", required=True)
    un.add_argument("--endmembers", required=True,
                    help="endmember library CSV (all columns used)")
    un.add_argument("--solver", required=True,
                    choices=["sudap", "ls", "ls-sum1", "oracle"])
    un.add_argument("--out", required=True, help="abundance output file")
    un.add_argument("--rel-tol", type=float, default=1e-10,
                    help="ignored; the certificate decides the stop "
                    "(kept so that existing command lines still parse)")
    un.add_argument("--max-sweeps", type=int, default=2000)
    un.add_argument("--reference",
                    help="abundance file of the exact optimizer, for RE")
    un.add_argument("--truth",
                    help="ground-truth abundance file, for NMSE")
    un.add_argument("--curve", help="write per-sweep metrics CSV here")
    un.add_argument("--snapshot-every", type=_at_least(1), default=1,
                    help="sweeps between curve rows (the last sweep "
                    "always gets one)")
    un.add_argument("--clip", action="store_true",
                    help="zero tiny negative abundances and renormalize")
    un.add_argument("--threads", type=int, default=1)
    un.set_defaults(func=cmd_unmix)

    be = sub.add_parser(
        "benchmark", help="sweep a variable and time convergence"
    )
    be.add_argument("--library", required=True)
    be.add_argument("--sweep-var", required=True,
                    choices=["m", "pixels", "snr"])
    be.add_argument("--values", required=True,
                    help="comma-separated sweep values")
    be.add_argument("--repeats", type=_at_least(1), default=3)
    be.add_argument("--stop-re-db", type=float, default=-100.0)
    be.add_argument("--seed", type=_at_least(0), required=True)
    be.add_argument("--out-dir", required=True)
    be.add_argument("--min-angle", type=_at_least(0.0), default=10.0)
    be.add_argument("--max-sweeps", type=int, default=2000)
    be.add_argument("--threads", type=int, default=1)
    be.set_defaults(func=cmd_benchmark)

    va = sub.add_parser("validate", help="run seeded self-checks")
    va.add_argument("--seed", type=_at_least(0), default=0)
    va.add_argument("--instances", type=_at_least(1), default=50)
    va.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "benchmark":
        parse = _snr_db if args.sweep_var == "snr" else _at_least(1)
        try:
            args.values = [parse(v) for v in args.values.split(",")]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"argument --values: {exc}")
    if args.command in ("unmix", "benchmark"):
        try:
            args.cfg = DykstraConfig(
                max_sweeps=args.max_sweeps,
                threads=args.threads,
            )
        except ValueError as exc:
            # DykstraConfig's message starts with the field name.
            field, _, rest = str(exc).partition(" ")
            parser.error(f"--{field.replace('_', '-')} {rest}")
    try:
        return args.func(args)
    except errors.SudapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OS_ERROR_CODE


if __name__ == "__main__":
    sys.exit(main())
