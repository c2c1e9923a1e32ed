import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudap import ImageCube
from sudap import io as sio
from sudap.errors import (
    BadMagic,
    EmptyFile,
    NonFinite,
    ParseError,
    TruncatedFile,
    VersionUnsupported,
)
from sudap.io import (
    open_cube,
    read_abundance,
    read_cube,
    read_library_csv,
    write_abundance,
    write_cube,
    write_curve_csv,
    write_library_csv,
)
from sudap.metrics import ConvergenceCurve
from sudap.model import AbundanceMatrix
from sudap.simdata import SpectralLibrary
from conftest import read_curve, traced_peak


def _library(with_wavelengths=True):
    rng = np.random.default_rng(70)
    sig = rng.uniform(0.05, 1.0, (9, 4))
    wl = np.linspace(400.0, 800.0, 9) if with_wavelengths else None
    return SpectralLibrary(sig, ("a", "b", "c", "d"), wavelengths=wl)


def test_library_round_trip_is_exact(tmp_path):
    path = tmp_path / "lib.csv"
    lib = _library()
    write_library_csv(path, lib)
    back = read_library_csv(path)
    assert np.array_equal(back.signatures, lib.signatures)
    assert np.array_equal(back.wavelengths, lib.wavelengths)
    assert back.names == lib.names


def test_library_round_trip_without_wavelengths(tmp_path):
    path = tmp_path / "lib.csv"
    lib = _library(with_wavelengths=False)
    write_library_csv(path, lib)
    back = read_library_csv(path)
    assert np.array_equal(back.signatures, lib.signatures)
    assert back.wavelengths is None


def test_headerless_library_gets_generated_names(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("0.1,0.2\n0.3,0.4\n")
    lib = read_library_csv(path)
    assert lib.names == ("sig00", "sig01")
    assert lib.wavelengths is None
    assert np.array_equal(lib.signatures, [[0.1, 0.2], [0.3, 0.4]])


def test_library_parse_errors_carry_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wavelength,a,b\n400,0.1,0.2\n500,oops,0.4\n")
    with pytest.raises(ParseError) as info:
        read_library_csv(path)
    assert info.value.line == 3
    assert info.value.col == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n0.1,0.2\n0.3\n")
    with pytest.raises(ParseError) as info:
        read_library_csv(ragged)
    assert info.value.line == 3


def test_empty_and_headeronly_libraries_are_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        read_library_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("a,b,c\n")
    with pytest.raises(EmptyFile):
        read_library_csv(header_only)


def test_cube_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(71)
    cube = ImageCube(
        rng.standard_normal((7, 12)), (3, 4),
        wavelengths=np.linspace(1.0, 7.0, 7),
    )
    path = tmp_path / "x.cube"
    write_cube(path, cube)
    back = read_cube(path)
    assert np.array_equal(back.data, cube.data)
    assert back.shape == (3, 4)
    assert np.array_equal(back.wavelengths, cube.wavelengths)


def test_abundance_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(72)
    a = AbundanceMatrix(rng.dirichlet(np.ones(5), size=20).T, (4, 5))
    path = tmp_path / "a.abund"
    write_abundance(path, a)
    back = read_abundance(path)
    assert np.array_equal(back.data, a.data)
    assert back.shape == (4, 5)


def test_write_abundance_writes_only_what_read_abundance_reads(tmp_path):
    # AbundanceMatrix refuses the grids the reader refuses, those with
    # no row or no column, so every matrix it accepts round-trips.
    path = tmp_path / "a.abund"
    for rows in range(-2, 3):
        for cols in range(-2, 3):
            n = abs(rows * cols)
            try:
                a = AbundanceMatrix(np.full((2, n), 0.5), (rows, cols))
            except ValueError:
                assert rows < 1 or cols < 1
                continue
            write_abundance(path, a)
            back = read_abundance(path)
            assert back.shape == a.shape
            assert np.array_equal(back.data, a.data)


def _one_shot(magic, data, rows, cols, wavelengths=None) -> bytes:
    """A container with its whole pixel-major payload transposed at once."""
    flags = 0 if wavelengths is None else sio.FLAG_WAVELENGTHS
    head = sio._HEADER.pack(magic, sio.VERSION, data.shape[0], rows, cols,
                            flags)
    if wavelengths is not None:
        head += np.asarray(wavelengths, dtype="<f8").tobytes()
    return head + np.ascontiguousarray(data.T, dtype="<f8").tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 5, 16, 23])
def test_the_chunked_writer_writes_the_one_shot_bytes(tmp_path, monkeypatch,
                                                      order, n):
    # Chunks of 8 four-channel pixels: n = 1, below one chunk, two
    # whole chunks, and two chunks with a ragged third.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 8 * 4 * 8)
    rng = np.random.default_rng(79)
    a = AbundanceMatrix(np.asarray(rng.dirichlet(np.ones(4), size=n).T,
                                   order=order), (1, n))
    cube = ImageCube(np.asarray(rng.standard_normal((4, n)), order=order),
                     (n, 1), wavelengths=np.arange(4.0))
    write_abundance(tmp_path / "a.abund", a)
    write_cube(tmp_path / "x.cube", cube)
    assert (tmp_path / "a.abund").read_bytes() == _one_shot(
        sio.MAGIC_ABUNDANCE, a.data, 1, n)
    assert (tmp_path / "x.cube").read_bytes() == _one_shot(
        sio.MAGIC_CUBE, cube.data, n, 1, cube.wavelengths)


def test_an_abundance_file_appended_in_chunks_is_whole_or_not_written(
        tmp_path):
    # Chunks of 5, 11 and 7 pixels write the one-shot bytes. A failure
    # inside the writer's block removes the partial file.
    a = np.random.default_rng(81).dirichlet(np.ones(4), size=23).T
    path = tmp_path / "a.abund"
    with sio.abundance_writer(path, 4, (1, 23)) as out:
        for lo, hi in ((0, 5), (5, 16), (16, 23)):
            out.append(a[:, lo:hi])
    assert path.read_bytes() == _one_shot(sio.MAGIC_ABUNDANCE, a, 1, 23)
    with pytest.raises(RuntimeError):
        with sio.abundance_writer(path, 4, (1, 23)) as out:
            out.append(a[:, :5])
            raise RuntimeError("the solve failed")
    assert not path.exists()


def test_the_writer_holds_one_chunk_not_the_matrix(tmp_path, monkeypatch):
    # 5 x 20 000 abundances are 800 kB; a chunk is 8 KiB. The open
    # file's own buffer and bookkeeping took 5.5 kB more. A matrix
    # whose transpose is pixel-major is written with no copy at all.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 1 << 13)
    rng = np.random.default_rng(80)
    path = tmp_path / "a.abund"
    for order in ("C", "F"):
        a = AbundanceMatrix(np.asarray(
            rng.dirichlet(np.ones(5), size=20000).T, order=order), (100, 200))
        _, peak = traced_peak(lambda: write_abundance(path, a))
        assert peak < sio.READ_TILE_BYTES + (1 << 13)
        assert np.array_equal(read_abundance(path).data, a.data)


def test_cube_reader_holds_one_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(76)
    cube = ImageCube(rng.standard_normal((64, 100 * 100)), (100, 100),
                     wavelengths=np.arange(64.0))
    path = tmp_path / "x.cube"
    write_cube(path, cube)
    back, peak = traced_peak(lambda: read_cube(path))
    assert np.array_equal(back.data, cube.data)
    assert peak <= 1.1 * cube.data.nbytes


def _tiles(source):
    """The source's tiles as wide as READ_TILE_BYTES allows."""
    return source.tiles(sio._tile_width(source.n_bands))


def test_open_cube_streams_the_payload_through_one_tile_buffer(
        tmp_path, monkeypatch):
    # A tile holds as many whole 5-band pixels (40 bytes) as fit in the
    # read tile's bytes: 16 in 640 or 679 bytes.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 640)
    rng = np.random.default_rng(78)
    cube = ImageCube(rng.standard_normal((5, 7 * 9)), (7, 9),
                     wavelengths=np.arange(5.0))
    path = tmp_path / "x.cube"
    write_cube(path, cube)
    with open_cube(path) as source:
        assert (source.n_bands, source.n_pixels) == (5, 63)
        assert source.shape == (7, 9)
        assert np.array_equal(source.wavelengths, cube.wavelengths)
        for _ in range(2):  # every pass starts at the first pixel
            tiles = [tile.copy() for tile in _tiles(source)]
            assert [tile.shape[1] for tile in tiles] == [16, 16, 16, 15]
            assert np.array_equal(np.hstack(tiles), cube.data)
            assert source.sum_sq == pytest.approx(
                np.sum(cube.data ** 2), rel=1e-14)
        # One buffer serves every tile.
        bases = {tile.base.ctypes.data for tile in _tiles(source)}
        assert len(bases) == 1
        monkeypatch.setattr(sio, "READ_TILE_BYTES", 679)
        assert [tile.shape[1] for tile in _tiles(source)] == [16, 16, 16, 15]
        # A read tile smaller than one pixel still reads whole pixels.
        monkeypatch.setattr(sio, "READ_TILE_BYTES", 8)
        assert [tile.shape[1] for tile in _tiles(source)] == [1] * 63


def test_a_non_finite_value_fails_its_tile(tmp_path, monkeypatch):
    # Tiles of four 3-band pixels.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 4 * 3 * 8)
    data = np.ones((3, 12))
    path = tmp_path / "x.cube"
    for bad in (np.nan, np.inf, -np.inf):
        data[1, 9] = bad
        write_cube(path, ImageCube(np.where(np.isfinite(data), data, 0.0),
                                   (3, 4)))
        raw = bytearray(path.read_bytes())
        at = 24 + 8 * (9 * 3 + 1)
        raw[at:at + 8] = np.array([bad], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with open_cube(path) as source:
            seen = []
            with pytest.raises(NonFinite, match="pixels 8..11"):
                for tile in _tiles(source):
                    seen.append(tile.shape[1])
            assert seen == [4, 4]
        with pytest.raises(NonFinite):
            read_cube(path)
    # Finite values whose squares overflow are not an error.
    huge = ImageCube(np.full((3, 12), 1e300), (3, 4))
    write_cube(path, huge)
    assert np.array_equal(read_cube(path).data, huge.data)


def test_containers_reject_each_others_magic(tmp_path):
    rng = np.random.default_rng(73)
    a = AbundanceMatrix(rng.dirichlet(np.ones(3), size=4).T, (1, 4))
    path = tmp_path / "a.abund"
    write_abundance(path, a)
    with pytest.raises(BadMagic):
        read_cube(path)


def test_unsupported_version_is_reported(tmp_path):
    rng = np.random.default_rng(74)
    cube = ImageCube(rng.standard_normal((3, 4)), (2, 2))
    path = tmp_path / "x.cube"
    write_cube(path, cube)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionUnsupported):
        read_cube(path)


def test_every_truncation_of_a_container_fails_cleanly(tmp_path):
    rng = np.random.default_rng(75)
    cube = ImageCube(rng.standard_normal((3, 4)), (2, 2),
                     wavelengths=np.arange(3.0))
    path = tmp_path / "x.cube"
    write_cube(path, cube)
    raw = path.read_bytes()
    stub = tmp_path / "cut.cube"
    for cut in range(len(raw)):
        stub.write_bytes(raw[:cut])
        with pytest.raises(TruncatedFile):
            read_cube(stub)
    # Trailing garbage is a size mismatch too.
    stub.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(TruncatedFile):
        read_cube(stub)


def test_a_file_cut_after_the_size_check_fails_cleanly(tmp_path, monkeypatch):
    import os
    from types import SimpleNamespace

    rng = np.random.default_rng(77)
    cube = ImageCube(rng.standard_normal((3, 4)), (2, 2),
                     wavelengths=np.arange(3.0))
    path = tmp_path / "x.cube"
    write_cube(path, cube)
    full = path.stat().st_size
    # The size check passes on the full length, as if the file were
    # cut between the check and the read; the short read must raise.
    for cut in (24 + 8, full - 8):
        path.write_bytes(path.read_bytes()[:cut])
        with monkeypatch.context() as patch:
            patch.setattr(os, "fstat", lambda _: SimpleNamespace(st_size=full))
            with pytest.raises(TruncatedFile):
                read_cube(path)
        write_cube(path, cube)


def test_zero_dimension_header_is_rejected(tmp_path):
    import struct

    path = tmp_path / "z.cube"
    path.write_bytes(struct.pack("<4sIIIII", b"SUCB", 1, 0, 2, 2, 0))
    with pytest.raises(TruncatedFile):
        read_cube(path)


def test_curve_round_trip_preserves_sentinels(tmp_path):
    path = tmp_path / "curve.csv"
    curve = ConvergenceCurve(
        sweep=np.array([1, 2, 3], dtype=np.int64),
        time_s=np.array([0.0, 0.5, 0.5]),
        objective=np.array([3.0, 2.0, 2.0]),
        re_db=np.array([-5.0, np.nan, -np.inf]),
        nmse_db=np.array([np.nan, np.nan, np.nan]),
        unconverged=np.array([7, 3, 0], dtype=np.int64),
    )
    write_curve_csv(curve, path)
    back = read_curve(path)
    assert np.array_equal(back["sweep"], curve.sweep)
    assert np.array_equal(back["time_s"], curve.time_s)
    assert np.array_equal(back["objective"], curve.objective)
    assert back["re_db"][0] == -5.0
    assert np.isnan(back["re_db"][1])
    assert back["re_db"][2] == -np.inf
    assert np.isnan(back["nmse_db"]).all()
    assert np.array_equal(back["unconverged"], curve.unconverged)


def test_csv_numbers_survive_seventeen_digit_round_trip(tmp_path):
    # 0.1 and friends have no exact decimal form; 17 significant digits
    # still recover the exact float64.
    values = np.array([[0.1, 1.0 / 3.0], [np.pi, 2.0 ** -52]])
    lib = SpectralLibrary(values, ("p", "q"))
    path = tmp_path / "digits.csv"
    write_library_csv(path, lib)
    assert np.array_equal(read_library_csv(path).signatures, values)


@given(
    cells=st.lists(
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            min_value=-1e150,
            max_value=1e150,
        ).filter(lambda v: abs(v) >= 1e-100),
        min_size=6,
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_any_finite_library_round_trips_exactly(cells, tmp_path_factory):
    values = np.array(cells).reshape(3, 2)
    path = tmp_path_factory.mktemp("rt") / "lib.csv"
    write_library_csv(path, SpectralLibrary(values, ("u", "v")))
    assert np.array_equal(read_library_csv(path).signatures, values)
