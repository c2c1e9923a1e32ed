import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

import sudap.cli as cli
from sudap import dykstra, relative_error_db
from sudap.io import (
    read_abundance,
    read_cube,
    read_curve_csv,
    read_library_csv,
    write_library_csv,
)
from sudap.model import column_feasibility
from sudap.simdata import make_synthetic_library
from sudap.subspace import build_transform


@pytest.fixture
def library_csv(tmp_path):
    path = tmp_path / "library.csv"
    write_library_csv(path, make_synthetic_library(n_bands=48, seed=5))
    return path


def _simulate(tmp_path, library_csv, prefix="scene", m=5, rows=12, cols=12,
              snr="10", seed="7"):
    out = tmp_path / prefix
    rc = cli.main([
        "simulate", "--library", str(library_csv), "--m", str(m),
        "--min-angle", "10", "--rows", str(rows), "--cols", str(cols),
        "--snr-db", snr, "--seed", seed, "--out-prefix", str(out),
    ])
    assert rc == 0
    return out


def test_simulate_writes_consistent_scene(tmp_path, library_csv, capsys):
    out = _simulate(tmp_path, library_csv)
    captured = capsys.readouterr().out
    assert "measured SNR" in captured
    cube = read_cube(f"{out}.cube")
    truth = read_abundance(f"{out}.truth")
    members = read_library_csv(f"{out}.endmembers.csv")
    assert cube.data.shape == (48, 144)
    assert cube.shape == (12, 12)
    assert truth.data.shape == (5, 144)
    assert column_feasibility(truth).feasible
    assert members.signatures.shape == (48, 5)
    assert members.wavelengths is not None


def test_unmix_sudap_end_to_end(tmp_path, library_csv, capsys):
    out = _simulate(tmp_path, library_csv)
    ref = tmp_path / "oracle.abund"
    rc = cli.main([
        "unmix", "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "oracle", "--out", str(ref),
    ])
    assert rc == 0
    est = tmp_path / "sudap.abund"
    curve_path = tmp_path / "curve.csv"
    rc = cli.main([
        "unmix", "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(est),
        "--rel-tol", "1e-12", "--reference", str(ref),
        "--truth", f"{out}.truth", "--curve", str(curve_path),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "solver: sudap" in captured
    assert "final RE vs reference" in captured
    assert "final NMSE vs truth" in captured

    assert relative_error_db(read_abundance(est), read_abundance(ref)) < -120.0

    curve = read_curve_csv(curve_path)
    assert curve.n_rows >= 1
    assert curve.unconverged is not None
    assert curve.unconverged[-1] == 0
    assert np.isfinite(curve.re_db).all()
    assert curve.re_db[-1] < -120.0


def test_unmix_snapshot_stride_controls_curve_rows(tmp_path, library_csv):
    out = _simulate(tmp_path, library_csv, snr="3")
    est = tmp_path / "s.abund"
    curve_path = tmp_path / "c.csv"
    rc = cli.main([
        "unmix", "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(est),
        "--curve", str(curve_path), "--snapshot-every", "5",
    ])
    assert rc == 0
    curve = read_curve_csv(curve_path)
    assert all(s % 5 == 0 for s in curve.sweep[:-1])
    assert (np.diff(curve.sweep) > 0).all()


def test_curve_memory_does_not_grow_with_the_sweep_count(tmp_path,
                                                        library_csv,
                                                        monkeypatch):
    # Both runs evaluate curve rows while the solver state is live, so
    # they peak on the same temporaries; only stored iterates could make
    # the every-sweep curve's peak higher. The exact finish would end
    # these runs after a few sweeps, so it is put off past the run to
    # record a curve of many rows.
    monkeypatch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
    out = _simulate(tmp_path, library_csv, rows=48, cols=48, snr="3")
    m, n = 5, 48 * 48
    peaks, curves = [], []
    for every in ("1", "25"):
        curve_path = tmp_path / f"c{every}.csv"
        tracemalloc.start()
        try:
            rc = cli.main([
                "unmix", "--cube", f"{out}.cube",
                "--endmembers", f"{out}.endmembers.csv",
                "--solver", "sudap", "--out", str(tmp_path / "s.abund"),
                "--curve", str(curve_path), "--snapshot-every", every,
            ])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rc == 0
        curves.append(read_curve_csv(curve_path))
    assert curves[0].n_rows >= 50
    assert curves[1].n_rows < curves[0].n_rows / 10
    assert peaks[0] - peaks[1] < 2 * m * n * 8


def test_unmix_is_bit_deterministic_across_thread_counts(tmp_path,
                                                         library_csv,
                                                         monkeypatch):
    # Tiles of 16 columns cut the 144 pixels into 9 tiles, so the
    # threads have tiles to share.
    monkeypatch.setattr(dykstra, "TILE", 16)
    out = _simulate(tmp_path, library_csv, snr="5")
    blobs = []
    for run, threads in (("r1", "4"), ("r2", "4"), ("r3", "1")):
        est = tmp_path / f"{run}.abund"
        rc = cli.main([
            "unmix", "--cube", f"{out}.cube",
            "--endmembers", f"{out}.endmembers.csv",
            "--solver", "sudap", "--out", str(est),
            "--threads", threads,
        ])
        assert rc == 0
        blobs.append(est.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


def test_unmix_direct_solvers_and_clip(tmp_path, library_csv):
    out = _simulate(tmp_path, library_csv)
    for solver in ("ls", "ls-sum1"):
        est = tmp_path / f"{solver}.abund"
        curve_path = tmp_path / f"{solver}_curve.csv"
        rc = cli.main([
            "unmix", "--cube", f"{out}.cube",
            "--endmembers", f"{out}.endmembers.csv",
            "--solver", solver, "--out", str(est),
            "--curve", str(curve_path),
        ])
        assert rc == 0
        assert read_abundance(est).data.shape == (5, 144)
        # Direct solvers have no sweeps, so the curve is header-only.
        assert read_curve_csv(curve_path).n_rows == 0

    est = tmp_path / "clipped.abund"
    rc = cli.main([
        "unmix", "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(est), "--clip",
    ])
    assert rc == 0
    a = read_abundance(est)
    assert a.data.min() >= 0.0
    assert np.abs(a.data.sum(axis=0) - 1.0).max() < 1e-12


def test_error_exit_codes(tmp_path, library_csv, capsys):
    out = _simulate(tmp_path, library_csv)
    # Nonexistent input file -> OS error code.
    rc = cli.main([
        "unmix", "--cube", str(tmp_path / "missing.cube"),
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "ls", "--out", str(tmp_path / "x.abund"),
    ])
    assert rc == cli.OS_ERROR_CODE
    # Abundance container where a cube is expected -> bad magic.
    rc = cli.main([
        "unmix", "--cube", f"{out}.truth",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "ls", "--out", str(tmp_path / "x.abund"),
    ])
    assert rc == cli.EXIT_CODES[cli.errors.BadMagic]
    # Endmember library with a different band count -> dimension error.
    other_lib = tmp_path / "other.csv"
    write_library_csv(other_lib, make_synthetic_library(n_bands=32, seed=6))
    rc = cli.main([
        "unmix", "--cube", f"{out}.cube", "--endmembers", str(other_lib),
        "--solver", "ls", "--out", str(tmp_path / "x.abund"),
    ])
    assert rc == cli.EXIT_CODES[cli.errors.DimensionMismatch]
    # Reference abundances with the wrong shape -> shape error.
    wrong = _simulate(tmp_path, library_csv, prefix="wrong", m=4)
    rc = cli.main([
        "unmix", "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "ls", "--out", str(tmp_path / "x.abund"),
        "--reference", f"{wrong}.truth",
    ])
    assert rc == cli.EXIT_CODES[cli.errors.ShapeMismatch]
    # A NaN in the cube payload or in a library cell -> non-finite data.
    # The payload ends the file, so its last 8 bytes are one float64.
    nan_cube = tmp_path / "nan.cube"
    with open(f"{out}.cube", "rb") as fh:
        blob = bytearray(fh.read())
    blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    nan_cube.write_bytes(bytes(blob))
    rc = cli.main([
        "unmix", "--cube", str(nan_cube),
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "ls", "--out", str(tmp_path / "x.abund"),
    ])
    assert rc == cli.EXIT_CODES[cli.errors.NonFinite]
    rows = library_csv.read_text().splitlines()
    cells = rows[1].split(",")
    cells[1] = "nan"
    nan_lib = tmp_path / "nan.csv"
    nan_lib.write_text("\n".join([rows[0], ",".join(cells)] + rows[2:]))
    rc = cli.main([
        "unmix", "--cube", f"{out}.cube", "--endmembers", str(nan_lib),
        "--solver", "ls", "--out", str(tmp_path / "x.abund"),
    ])
    assert rc == cli.EXIT_CODES[cli.errors.NonFinite]
    assert "non-finite" in capsys.readouterr().err


def test_usage_errors_exit_with_code_two(tmp_path, library_csv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["unmix", "--solver", "sudap"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main([
            "unmix", "--cube", "x", "--endmembers", "y",
            "--solver", "sudap", "--out", "z", "--threads", "0",
        ])
    assert info.value.code == 2
    unmix = ["unmix", "--cube", "x", "--endmembers", "y",
             "--solver", "sudap", "--out", "z"]
    for bad in (["--max-sweeps", "0"], ["--rel-tol", "-1"],
                ["--rel-tol", "nan"], ["--rel-tol", "inf"]):
        with pytest.raises(SystemExit) as info:
            cli.main(unmix + bad)
        assert info.value.code == 2
        assert f"error: {bad[-2]} must be" in capsys.readouterr().err
    benchmark = ["benchmark", "--library", "x", "--sweep-var", "m",
                 "--seed", "0", "--out-dir", "z"]
    simulate = ["simulate", "--library", "x", "--m", "3",
                "--min-angle", "10", "--rows", "4", "--cols", "4",
                "--snr-db", "30", "--seed", "0", "--out-prefix", "z"]
    for argv, option in (
        (unmix + ["--curve", "c.csv", "--snapshot-every", "0"],
         "--snapshot-every"),
        (unmix + ["--curve", "c.csv", "--snapshot-every", "-1"],
         "--snapshot-every"),
        (benchmark + ["--values", "3", "--max-sweeps", "0"], "--max-sweeps"),
        (benchmark + ["--values", "abc"], "--values"),
        (benchmark + ["--values", "3,,4"], "--values"),
        (benchmark + ["--values", "3", "--repeats", "0"], "--repeats"),
        (simulate + ["--rows", "0"], "--rows"),
        (simulate + ["--m", "0"], "--m"),
        (simulate + ["--min-angle", "-1"], "--min-angle"),
        (simulate + ["--snr-db", "nan"], "--snr-db"),
        (["validate", "--instances", "0"], "--instances"),
        (["validate", "--seed", "-1"], "--seed"),
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error:" in last and option in last


def test_validate_passes_on_healthy_code(capsys):
    rc = cli.main(["validate", "--seed", "0", "--instances", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3
    assert "FAIL" not in out
    for name in ("projector-equivalence", "oracle-equivalence",
                 "column-sum-confinement"):
        assert name in out


def test_validate_catches_an_injected_projector_fault(monkeypatch, capsys):
    # Corrupt the half-space offsets behind the geometric route only;
    # the two projection routes then disagree and validate must fail.
    def corrupted(e):
        t = build_transform(e)
        return dataclasses.replace(t, f=t.f + 1e-6)

    monkeypatch.setattr(cli, "_make_transform", corrupted)
    rc = cli.main(["validate", "--seed", "0", "--instances", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "projector-equivalence" in out
    assert "FAIL" in out


def test_benchmark_writes_runs_and_aggregates(tmp_path, library_csv, capsys):
    out_dir = tmp_path / "bench"
    rc = cli.main([
        "benchmark", "--library", str(library_csv), "--sweep-var", "m",
        "--values", "3,4", "--repeats", "2", "--stop-re-db", "-100",
        "--seed", "11", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    with open(out_dir / "benchmark_m.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[0] == "kind"
    runs = [r for r in body if r[0] == "run"]
    means = [r for r in body if r[0] == "mean"]
    stds = [r for r in body if r[0] == "std"]
    assert len(runs) == 4
    assert len(means) == 2
    assert len(stds) == 2
    assert all(r[-1] == "ok" for r in runs)


def test_thread_default_comes_from_environment(monkeypatch, capsys):
    unmix = ["unmix", "--cube", "x", "--endmembers", "y",
             "--solver", "sudap", "--out", "z"]
    benchmark = ["benchmark", "--library", "x", "--sweep-var", "m",
                 "--values", "3", "--seed", "0", "--out-dir", "z"]
    monkeypatch.setenv("SUDAP_THREADS", "6")
    for argv in (unmix, benchmark):
        assert cli.build_parser().parse_args(argv).threads == 6
        assert cli.build_parser().parse_args(argv + ["--threads", "2"]
                                             ).threads == 2
    # A bad value is a usage error, as the same --threads value is.
    for bad in ("0", "-3", "abc"):
        monkeypatch.setenv("SUDAP_THREADS", bad)
        for argv in (unmix, benchmark):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
            last = capsys.readouterr().err.strip().splitlines()[-1]
            assert "error:" in last and "--threads" in last
    monkeypatch.delenv("SUDAP_THREADS")
    assert cli.build_parser().parse_args(unmix).threads == 1
