import csv
import dataclasses

import numpy as np
import pytest

import sudap.cli as cli
import sudap.io as sio
from sudap import (
    DykstraConfig,
    EndmemberMatrix,
    ImageCube,
    dykstra,
    relative_error_db,
    solve_oracle_activeset,
    solve_sudap,
)
from sudap.io import (
    open_cube,
    read_abundance,
    read_cube,
    read_library_csv,
    write_abundance,
    write_cube,
    write_library_csv,
)
from sudap.metrics import CurveRecorder, objective
from sudap.model import column_feasibility
from sudap.simdata import (
    SpectralLibrary,
    child_seeds,
    make_instance,
    make_scene,
    make_synthetic_library,
)
from sudap.subspace import build_transform, inverse_transform
from conftest import read_curve, unmix_peak


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
        "--reference", str(ref),
        "--truth", f"{out}.truth", "--curve", str(curve_path),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "solver: sudap" in captured
    assert "final RE vs reference" in captured
    assert "final NMSE vs truth" in captured

    assert relative_error_db(read_abundance(est), read_abundance(ref)) < -120.0

    curve = read_curve(curve_path)
    assert len(curve) >= 1
    assert curve["unconverged"][-1] == 0
    assert np.isfinite(curve["re_db"]).all()
    assert curve["re_db"][-1] < -120.0


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
    sweep = read_curve(curve_path)["sweep"]
    assert all(s % 5 == 0 for s in sweep[:-1])
    assert (np.diff(sweep) > 0).all()


def test_curve_memory_does_not_grow_with_the_sweep_count(tmp_path,
                                                        library_csv,
                                                        monkeypatch):
    # Both runs evaluate curve rows while the solver state is live, so
    # they peak on the same temporaries; only stored iterates could make
    # the every-sweep curve's peak higher. The exact finish would end
    # these runs after a few sweeps, so it is put off to the last of
    # 100, to record a curve of many rows.
    monkeypatch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
    out = _simulate(tmp_path, library_csv, rows=48, cols=48, snr="3")
    m, n = 5, 48 * 48
    peaks, curves = [], []
    for every in ("1", "25"):
        curve_path = tmp_path / f"c{every}.csv"
        peaks.append(unmix_peak([
            "--cube", f"{out}.cube",
            "--endmembers", f"{out}.endmembers.csv",
            "--solver", "sudap", "--out", str(tmp_path / "s.abund"),
            "--curve", str(curve_path), "--snapshot-every", every,
            "--max-sweeps", "100",
        ]))
        curves.append(read_curve(curve_path))
    assert len(curves[0]) >= 50
    assert len(curves[1]) < len(curves[0]) / 10
    assert peaks[0] - peaks[1] < 2 * m * n * 8


def test_unmix_is_bit_deterministic_across_thread_counts(tmp_path,
                                                         library_csv,
                                                         monkeypatch):
    # Tiles of 16 columns cut the 144 pixels into 9 tiles, so the
    # threads have tiles to share, and the reader streams them in 9
    # tiles of 16 pixels too.
    monkeypatch.setattr(dykstra, "TILE", 16)
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 16 * 48 * 8)
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


def test_unmix_from_a_file_matches_the_in_memory_c_ordered_solve(
        tmp_path, library_csv, monkeypatch):
    # read_cube hands out a Fortran-ordered view of the pixel-major
    # payload; the solve must not depend on that layout, nor on how the
    # reader cuts the 144 pixels: read tiles of 16, 13 (which leaves a
    # one-column tail), 1 and all 144 pixels. Sweep tiles of 16 columns
    # make the finish and the compaction cut the block too.
    monkeypatch.setattr(dykstra, "TILE", 16)
    out = _simulate(tmp_path, library_csv, snr="5")
    read = read_cube(f"{out}.cube")
    assert read.data.flags.f_contiguous and not read.data.flags.c_contiguous
    cube = ImageCube(np.ascontiguousarray(read.data), read.shape)
    assert cube.data.flags.c_contiguous
    e = EndmemberMatrix(read_library_csv(f"{out}.endmembers.csv").signatures)
    result = solve_sudap(e, cube)
    mem = tmp_path / "memory.abund"
    write_abundance(mem, result.a_hat)
    for width in (16, 13, 1, 144):
        monkeypatch.setattr(sio, "READ_TILE_BYTES", width * 48 * 8)
        est = tmp_path / f"file{width}.abund"
        rc = cli.main([
            "unmix", "--cube", f"{out}.cube",
            "--endmembers", f"{out}.endmembers.csv",
            "--solver", "sudap", "--out", str(est),
            "--threads", "1",
        ])
        assert rc == 0
        assert est.read_bytes() == mem.read_bytes(), f"read tile {width}"


def test_unmix_memory_is_bounded_by_a_tile_not_by_the_cube(tmp_path,
                                                         library_csv,
                                                         monkeypatch):
    # The cube is 48 bands x 25 600 pixels (9.8 MB), 151 read tiles of
    # 64 KiB, solved in chunks of two tiles, 8192 pixels. Streamed, the
    # run holds one read tile of the file, which the forward map turns
    # into one m x TILE block of Y, and the abundances of one chunk; no
    # m x n block is held. Beside them the solve holds its per-tile
    # temporaries (the interior check's m x TILE blocks) and the gathered
    # rhs and tau of the 1 % of columns that the check leaves. The writer
    # and the feasibility check hold a tile of the chunk at most, and
    # the report's objective was summed in the solve. A reader that held
    # the cube would peak above the cube's own size, and an m x n block
    # (a whole output, Y, or a residual of the report) above the bound.
    m, rows, cols, bands = 3, 160, 160, 48
    out = _simulate(tmp_path, library_csv, m=m, rows=rows, cols=cols,
                    snr="30")
    n = rows * cols
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 1 << 16)
    monkeypatch.setattr(dykstra, "CHUNK_BYTES", m * 2 * dykstra.TILE * 8)
    allowance = 4 * m * dykstra.TILE * 8
    bound = dykstra.CHUNK_BYTES + sio.READ_TILE_BYTES + allowance
    assert bound < m * n * 8 + sio.READ_TILE_BYTES + allowance
    assert bound < bands * n * 8
    peak = unmix_peak([
        "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(tmp_path / "s.abund"),
    ])
    assert peak < bound


def test_unmix_memory_does_not_grow_with_the_pixel_count(tmp_path,
                                                         library_csv,
                                                         monkeypatch):
    # Cube files of n = 6400 and 4n pixels, in chunks of 2048 pixels,
    # with a reference and a truth file for the report. Each chunk is
    # solved, written and reported before the next is read, so both runs
    # peak on one chunk's state, one read tile of the cube and the
    # chunk's tiles of the two abundance files; the larger cube may add
    # at most one read tile. The chunk's state is its output, the swept
    # rhs and tau with a gathered copy, both files' reads of the chunk,
    # their error sums' block and the writer's tile: eight m x chunk
    # blocks at most. The references held whole would add 2 m x 3n
    # floats, and an m x n output m x 3n more.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 1 << 16)
    m, chunk = 3, 4 * 512
    monkeypatch.setattr(dykstra, "TILE", 512)
    monkeypatch.setattr(dykstra, "CHUNK_BYTES", m * chunk * 8)
    bound = (8 * m * chunk * 8 + sio.READ_TILE_BYTES
             + 5 * m * dykstra.TILE * 8)
    peaks = []
    for side in (80, 160):
        out = _simulate(tmp_path, library_csv, prefix=f"s{side}", m=m,
                        rows=side, cols=side, snr="30")
        assert side * side > 3 * chunk
        peaks.append(unmix_peak([
            "--cube", f"{out}.cube",
            "--endmembers", f"{out}.endmembers.csv",
            "--solver", "sudap", "--out", str(tmp_path / "s.abund"),
            "--reference", f"{out}.truth", "--truth", f"{out}.truth",
        ]))
    assert bound < m * 160 * 160 * 8
    assert max(peaks) < bound
    assert peaks[1] < peaks[0] + sio.READ_TILE_BYTES


def test_clipped_unmix_holds_no_y(tmp_path, library_csv, monkeypatch,
                                  capsys):
    # The cube of the test above. --clip's copy of the abundances adds a
    # second m x n block, and the clipped output's objective is summed
    # by streaming the file a second time, block by block of Y, with no
    # whole Y held.
    m, rows, cols, bands = 3, 160, 160, 48
    out = _simulate(tmp_path, library_csv, m=m, rows=rows, cols=cols,
                    snr="30")
    n = rows * cols
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 1 << 16)
    allowance = 5 * m * dykstra.TILE * 8
    bound = 2 * m * n * 8 + sio.READ_TILE_BYTES + allowance
    assert allowance + sio.READ_TILE_BYTES < m * n * 8
    capsys.readouterr()
    peak = unmix_peak([
        "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(tmp_path / "s.abund"), "--clip",
    ])
    assert peak < bound
    cube = read_cube(f"{out}.cube")
    e = EndmemberMatrix(read_library_csv(f"{out}.endmembers.csv").signatures)
    a = read_abundance(tmp_path / "s.abund")
    printed = capsys.readouterr().out.split("objective |X - EA|_F^2: ")[1]
    assert float(printed.split()[0]) == pytest.approx(
        objective(e, cube, a), rel=1e-10)


def test_one_endmember_unmix_streams_the_cube(tmp_path, library_csv,
                                             monkeypatch, capsys):
    # With one endmember every abundance is 1, and the grid comes from
    # the file's header; the report's objective is summed one read tile
    # at a time. So the run holds the read tile and its residual, the
    # abundances and the feasibility check's column sums: two read tiles
    # and a few n-float blocks, far below the 9.8 MB cube.
    rows, cols, bands = 160, 160, 48
    out = _simulate(tmp_path, library_csv, m=1, rows=rows, cols=cols,
                    snr="30")
    n = rows * cols
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 1 << 16)
    bound = 2 * sio.READ_TILE_BYTES + 4 * n * 8
    assert bound < bands * n * 8
    capsys.readouterr()
    peak = unmix_peak([
        "--cube", f"{out}.cube",
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(tmp_path / "s.abund"),
    ])
    assert peak < bound
    a = read_abundance(tmp_path / "s.abund")
    assert a.shape == (rows, cols) and (a.data == 1.0).all()
    cube = read_cube(f"{out}.cube")
    e = EndmemberMatrix(read_library_csv(f"{out}.endmembers.csv").signatures)
    printed = capsys.readouterr().out.split("objective |X - EA|_F^2: ")[1]
    direct = np.linalg.norm(cube.data - e.data) ** 2
    assert float(printed.split()[0]) == pytest.approx(direct, rel=1e-10)


def _scene_files(tmp_path, name, e, cube):
    write_cube(tmp_path / f"{name}.cube", cube)
    write_library_csv(tmp_path / f"{name}.csv", SpectralLibrary(
        e.data, tuple(f"e{i}" for i in range(e.n_endmembers))))
    return tmp_path / f"{name}.cube", tmp_path / f"{name}.csv"


def _routes_scene(m, kind, n=600, bands=48):
    """A cube whose interior check makes every pixel final ("interior"),
    or fewer than half of them ("exterior"). The interior scene's noise
    is orthogonal to the span of E, so Y is noiseless and the objective
    is the noise's energy. Most exterior pixels mix one endmember in
    with a negative share, which the noise rarely undoes."""
    rng = np.random.default_rng(m)
    e = EndmemberMatrix(rng.standard_normal((bands, m)))
    a = rng.dirichlet(np.full(m, 10.0), size=n).T
    noise = rng.standard_normal((bands, n))
    if kind == "interior":
        q, _ = np.linalg.qr(e.data)
        noise -= q @ (q.T @ noise)
    else:
        a = 1.6 * a
        a[rng.integers(0, m, n), np.arange(n)] -= 0.6
        noise *= 0.1
    return e, ImageCube(e.data @ a + noise, (20, n // 20))


@pytest.mark.parametrize("m, kind, budget", [
    (3, "interior", None), (3, "exterior", None), (10, "exterior", None),
    (20, "interior", None), (20, "exterior", None), (10, "exterior", 3),
])
def test_streamed_and_held_y_routes_write_the_same_bytes(
        tmp_path, monkeypatch, m, kind, budget):
    # unmix from a file and solve_sudap on an ImageCube (both map Y block
    # by block into the interior check) write the same bytes at one and
    # two threads, and each objective, summed without Y, is
    # metrics.objective's to 1e-12. Read tiles of 40 pixels and sweep
    # tiles of 64 columns make every cut differ. A budget stops the run at that sweep with a certificate
    # that refuses every point, so the budget's write of the abundances
    # of tau adds tau'G tau to the objective.
    monkeypatch.setattr(dykstra, "TILE", 64)
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 40 * 48 * 8)
    if budget:
        monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    e, cube = _routes_scene(m, kind)
    n = cube.n_pixels
    cube_path, csv_path = _scene_files(tmp_path, "s", e, cube)
    max_sweeps = budget or 2000
    blobs, objectives = [], []
    for threads in (1, 2):
        est = tmp_path / f"cli{threads}.abund"
        rc = cli.main([
            "unmix", "--cube", str(cube_path), "--endmembers",
            str(csv_path), "--solver", "sudap", "--out", str(est),
            "--threads", str(threads), "--max-sweeps", str(max_sweeps),
        ])
        assert rc == (25 if budget else 0)
        blobs.append(est.read_bytes())
        cfg = DykstraConfig(max_sweeps=max_sweeps, threads=threads)
        result = solve_sudap(e, cube, cfg)
        est = tmp_path / "mem.abund"
        write_abundance(est, result.a_hat)
        blobs.append(est.read_bytes())
        assert result.objective == pytest.approx(
            objective(e, cube, result.a_hat), rel=1e-12)
        objectives.append(result.objective)
    assert all(blob == blobs[0] for blob in blobs)
    # The solve sums its objective in the same order at any count.
    assert objectives == [objectives[0]] * 2
    trace = result.trace
    if budget:
        assert trace.n_sweeps == budget and trace.uncertified[-1] > 0
    elif kind == "interior":
        assert trace.n_sweeps == 1 and trace.uncertified[0] == 0
    else:
        assert trace.uncertified[0] == n and trace.converged


def test_a_nan_in_the_last_tile_exits_15_and_writes_nothing(
        tmp_path, library_csv, monkeypatch):
    # Read tiles of 16 pixels cut the 144-pixel cube into 9; only the
    # last pixel is NaN, so the streamed reader meets it in its last tile.
    # Chunks of one tile of 16 columns have written the eight before it
    # to the output file, which the error removes.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 16 * 48 * 8)
    monkeypatch.setattr(dykstra, "TILE", 16)
    monkeypatch.setattr(dykstra, "CHUNK_BYTES", 5 * 16 * 8)
    out = _simulate(tmp_path, library_csv)
    blob = bytearray((tmp_path / "scene.cube").read_bytes())
    blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    nan_cube = tmp_path / "nan.cube"
    nan_cube.write_bytes(bytes(blob))
    est = tmp_path / "x.abund"
    rc = cli.main([
        "unmix", "--cube", str(nan_cube),
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(est),
    ])
    assert rc == cli.EXIT_CODES[cli.errors.NonFinite]
    assert not est.exists()


def test_a_nan_in_a_reference_file_names_that_file(tmp_path, library_csv,
                                                   capsys):
    # --reference and --truth are read whole, so the model type finds the
    # NaN; the error must still say which of the two files holds it.
    out = _simulate(tmp_path, library_csv)
    good = tmp_path / "scene.truth"
    blob = bytearray(good.read_bytes())
    blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    bad = tmp_path / "bad.truth"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    for reference, truth in ((good, bad), (bad, good)):
        rc = cli.main([
            "unmix", "--cube", f"{out}.cube",
            "--endmembers", f"{out}.endmembers.csv",
            "--solver", "sudap", "--out", str(tmp_path / "s.abund"),
            "--reference", str(reference), "--truth", str(truth),
        ])
        assert rc == cli.EXIT_CODES[cli.errors.NonFinite]
        err = capsys.readouterr().err
        assert str(bad) in err and str(good) not in err


def test_a_cube_cut_in_a_later_tile_after_the_size_check_exits_23(
        tmp_path, library_csv, monkeypatch):
    import os
    from types import SimpleNamespace

    # Read tiles of 16 pixels.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 16 * 48 * 8)
    out = _simulate(tmp_path, library_csv)
    cube = tmp_path / "scene.cube"
    full = cube.stat().st_size
    # Cut inside the fourth tile. The size check still sees the full
    # length, as if the file were cut between the check and the read.
    bands, n = 48, 144
    header = full - 8 * bands * n
    cube.write_bytes(cube.read_bytes()[:header + 8 * bands * (3 * 16 + 5)])
    est = tmp_path / "x.abund"
    cut, real_fstat = cube.stat().st_ino, os.fstat

    def fstat(fd):
        st = real_fstat(fd)
        return SimpleNamespace(st_size=full) if st.st_ino == cut else st

    monkeypatch.setattr(os, "fstat", fstat)
    rc = cli.main([
        "unmix", "--cube", str(cube),
        "--endmembers", f"{out}.endmembers.csv",
        "--solver", "sudap", "--out", str(est),
    ])
    assert rc == cli.EXIT_CODES[cli.errors.TruncatedFile]
    assert not est.exists()


def test_streamed_curve_and_report_match_the_in_memory_objective(
        tmp_path, library_csv, capsys):
    out = _simulate(tmp_path, library_csv, snr="3")
    ref = tmp_path / "oracle.abund"
    base = ["unmix", "--cube", f"{out}.cube",
            "--endmembers", f"{out}.endmembers.csv"]
    assert cli.main(base + ["--solver", "oracle", "--out", str(ref)]) == 0
    est, curve_path = tmp_path / "s.abund", tmp_path / "c.csv"
    capsys.readouterr()
    rc = cli.main(base + [
        "--solver", "sudap", "--out", str(est),
        "--reference", str(ref), "--curve", str(curve_path),
        "--snapshot-every", "1",
    ])
    assert rc == 0
    report = capsys.readouterr().out
    curve = read_curve(curve_path)

    # The curve as it was built from the whole cube in memory: every
    # row's objective by metrics.objective on the image, RE against the
    # same reference, and the trace's uncertified counts.
    cube = read_cube(f"{out}.cube")
    e = EndmemberMatrix(read_library_csv(f"{out}.endmembers.csv").signatures)
    a_ref = read_abundance(ref)
    t = build_transform(e)
    rows = []

    def watch(sweep, u):
        a_k = inverse_transform(t, u)
        rows.append((sweep, objective(e, cube, a_k),
                     relative_error_db(a_k, a_ref)))

    result = solve_sudap(e, cube, on_sweep=watch)
    sweep, obj, re_db = (np.array(col) for col in zip(*rows))
    assert np.array_equal(curve["sweep"], sweep)
    assert np.array_equal(curve["re_db"], re_db)
    assert np.isnan(curve["nmse_db"]).all()
    assert np.array_equal(curve["unconverged"], result.trace.uncertified)
    assert np.allclose(curve["objective"], obj, rtol=1e-12, atol=0.0)

    # The report's objective is the solve's own, summed without Y, and
    # agrees with the one from the streamed Y and |X|^2 to its digits.
    a = read_abundance(est)
    with open_cube(f"{out}.cube") as source:
        streamed = objective(e, source, a)
    assert streamed == pytest.approx(objective(e, cube, a), rel=1e-12)
    assert result.objective == pytest.approx(streamed, rel=1e-12)
    printed = report.split("objective |X - EA|_F^2: ")[1].split()[0]
    assert float(printed) == pytest.approx(streamed, rel=1e-10)


def test_unmix_exits_25_after_writing_an_uncertified_stop(tmp_path, capsys,
                                                         monkeypatch):
    # The finish certifies this scene at sweep 2, so the certificate is
    # made to refuse every point: no abundance can be 1 or more. cond(E'E)
    # is about 1e7 and the sweeps alone converge slowly, so the run goes
    # on to its 10-sweep budget while its iterate still moves.
    monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    lib = make_synthetic_library(224, 24, seed=1)
    idx, e, _, cube = make_scene(lib, 20, 5.0, (30, 30), 5.0,
                                 child_seeds(2, 3))
    write_cube(tmp_path / "s.cube", cube)
    write_library_csv(tmp_path / "e.csv", SpectralLibrary(
        e.data, tuple(lib.names[i] for i in idx)))
    est = tmp_path / "s.abund"
    rc = cli.main([
        "unmix", "--cube", str(tmp_path / "s.cube"),
        "--endmembers", str(tmp_path / "e.csv"), "--solver", "sudap",
        "--out", str(est), "--max-sweeps", "10",
    ])
    assert rc == 25
    assert cli.EXIT_CODES[cli.errors.NotConverged] == 25
    captured = capsys.readouterr()
    assert "sweeps: 10 (converged: False)" in captured.out
    assert "uncertified" in captured.err
    assert read_abundance(est).data.shape == (20, 900)


def test_unmix_exits_25_when_settled_sweeps_stay_uncertified(
        tmp_path, capsys, monkeypatch):
    # Scene 9 of cli.oracle_runs(1000, 50), whose sweeps stop changing by
    # sweep 2. With a certificate that refuses every point, a settled
    # iterate is still not a converged run.
    monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    e, _, cube = make_instance(6, (32, 32), 30.0, 1009)
    write_cube(tmp_path / "s.cube", cube)
    write_library_csv(tmp_path / "e.csv", SpectralLibrary(
        e.data, tuple(f"e{i}" for i in range(6))))
    rc = cli.main([
        "unmix", "--cube", str(tmp_path / "s.cube"),
        "--endmembers", str(tmp_path / "e.csv"), "--solver", "sudap",
        "--out", str(tmp_path / "s.abund"), "--max-sweeps", "50",
    ])
    assert rc == 25
    captured = capsys.readouterr()
    assert "sweeps: 50 (converged: False)" in captured.out
    assert "1024 pixel(s) uncertified" in captured.err


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
        with open(curve_path, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1

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
    with pytest.raises(SystemExit) as info:
        cli.main(unmix + ["--max-sweeps", "0"])
    assert info.value.code == 2
    assert "error: --max-sweeps must be" in capsys.readouterr().err
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
        (unmix + ["--threads", "abc"], "--threads"),
        (unmix + ["--threads", "-3"], "--threads"),
        (benchmark + ["--values", "3", "--max-sweeps", "0"], "--max-sweeps"),
        (benchmark + ["--values", "abc"], "--values"),
        (benchmark + ["--values", "3,,4"], "--values"),
        (benchmark + ["--values", "1"], "--values"),
        (benchmark + ["--values", "4,4"], "--values"),
        (benchmark + ["--sweep-var", "snr", "--values", "30,30.0"],
         "--values"),
        (benchmark + ["--values", "3", "--repeats", "0"], "--repeats"),
        (benchmark + ["--sweep-var", "snr", "--values=-inf"], "--values"),
        (simulate + ["--rows", "0"], "--rows"),
        (simulate + ["--m", "0"], "--m"),
        (simulate + ["--min-angle", "-1"], "--min-angle"),
        (simulate + ["--snr-db", "nan"], "--snr-db"),
        (simulate + ["--snr-db=-inf"], "--snr-db"),
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

    monkeypatch.setattr(cli, "build_transform", corrupted)
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


def test_benchmark_refuses_an_uncertified_reference(monkeypatch):
    # Above the oracle's cap the reference is a sudap run with four
    # times the budget. An uncertified reference must fail the row, not
    # time it. The finish certifies this m=20, 5 degree, SNR 0 scene at
    # sweep 2, so the certificate is made to refuse every point.
    monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    lib = make_synthetic_library(224, 24, seed=1)
    with pytest.raises(cli.errors.NotConverged):
        cli._benchmark_instance(lib, 20, 900, 0.0, 5.0, -100.0,
                                DykstraConfig(max_sweeps=2), 0)


def test_time_to_re_factors_once(cholesky_calls):
    # Once for each pass over the cube: the recorder's, which forms the Y
    # its rows read, and the solve's. time_to_re factors nothing itself.
    e, _, cube = make_instance(5, (8, 8), 30.0, 3)
    a_star = solve_oracle_activeset(e, cube).a_hat
    cholesky_calls.clear()
    recorder = CurveRecorder(e, cube, 1, a_star=a_star)
    assert cholesky_calls == [(5, 5)]
    solve_sudap(e, cube, on_sweep=recorder)
    assert cholesky_calls == [(5, 5)] * 2
    cholesky_calls.clear()
    _, hit, _, final_re = cli.time_to_re(
        e, cube, a_star, DykstraConfig(), -100.0)
    assert hit > 0 and final_re <= -100.0
    assert cholesky_calls == [(5, 5)] * 2
