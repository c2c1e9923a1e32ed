"""File formats: spectral library CSV, binary cube/abundance containers,
and convergence-curve CSV (written only; nothing in the package reads it).

Binary container layout, all integers little-endian:

    bytes 0..3    magic, b"SUCB" for cubes, b"SUAB" for abundances
    bytes 4..7    version, u32, currently 1
    bytes 8..11   n_channels, u32 (bands for cubes, endmembers for
                  abundances)
    bytes 12..15  rows, u32
    bytes 16..19  cols, u32
    bytes 20..23  flags, u32; bit 0 set when a wavelength block follows
    [n_channels x f64 wavelengths when flag bit 0]
    n_channels * rows * cols x f64 payload, pixel-major: all channels of
    pixel 0, then all channels of pixel 1, ...

Everything is float64. One reader, ContainerReader, serves every
container. It reads the header alone first and checks its magic, version
and dimensions, then the file's size against the size the header
implies, and fails with clean errors on truncated or oversized files
before any payload is read. open_cube then streams the payload in tiles
of whole pixels that fit in READ_TILE_BYTES, through one reused buffer,
each tile checked for a short read and for non-finite values as it
arrives (the subspace solver's forward map consumes each tile while it
is still in cache, into a block of Y that the solver's interior check
reads at once, so neither the cube nor its Y is held whole;
metrics.objective sums its residual over the same tiles).
read_cube and read_abundance instead fill the whole (pixels x channels)
array with one read and hand out its transpose, a channels x pixels view
in Fortran order, with no copy; a short read fails there too, and the
ImageCube or AbundanceMatrix that wraps the matrix checks it for
non-finite values, once, in an error that names the file. Both are
model.finite_sum_of_squares, whose pass is |X|^2
(ContainerReader.sum_sq, ImageCube.sum_sq). The writer writes the
payload in the same tiles, each the transpose of a channels x pixels
slice, so it copies one tile at a time, never the whole matrix, and
nothing when the transpose is already contiguous, as it is for what
read_cube and read_abundance hand out.

CSV numbers are written with 17 significant digits, enough for exact
float64 round trips.

io is a leaf of the package: it imports errors, model and simdata
alone. The checks of what it reads are model's (finiteness, grid and
wavelengths); the tile-bytes rule is _tile_width's here, which
subspace.forward_width takes as its first bound. ConvergenceCurve
lives here, beside the curve CSV that holds it.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    EmptyFile,
    NonFinite,
    ParseError,
    TruncatedFile,
    VersionUnsupported,
)
from .model import AbundanceMatrix, ImageCube, finite_sum_of_squares
from .simdata import SpectralLibrary

_HEADER = struct.Struct("<4sIIIII")
MAGIC_CUBE = b"SUCB"
MAGIC_ABUNDANCE = b"SUAB"
VERSION = 1
FLAG_WAVELENGTHS = 0x1

# Bytes of payload per streamed tile, at most, so that a tile is still in
# a core's L2 when the reader's check and the forward map's product pass
# over it. Streaming a 102 400-pixel, 224-band cube through the forward
# map took 69-71 ms in 4 MiB tiles and 45-53 ms in 256 KiB-1 MiB ones
# (a Xeon, one pinned CPU, best of 9), also as products grew past
# SMALL_PRODUCT.
READ_TILE_BYTES = 1 << 20


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------------------------------------------------------------- library


def read_library_csv(path) -> SpectralLibrary:
    """Load a spectral library from CSV.

    Layout: optional header row of signature names, optional leading
    column named `wavelength`, every other cell numeric; signatures are
    columns. A row whose cells all parse as numbers is data, anything
    else is treated as the (single) header row.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise EmptyFile(f"{path}: no rows")

    def try_floats(cells):
        try:
            return [float(c) for c in cells]
        except ValueError:
            return None

    names = None
    if try_floats(rows[0]) is None:
        names = [c.strip() for c in rows[0]]
        data_rows = rows[1:]
        first_data_line = 2
    else:
        data_rows = rows
        first_data_line = 1
    if not data_rows:
        raise EmptyFile(f"{path}: header but no data rows")

    width = len(data_rows[0])
    values = np.empty((len(data_rows), width))
    for r, row in enumerate(data_rows):
        line = first_data_line + r
        if len(row) != width:
            raise ParseError(
                line, len(row) + 1, f"expected {width} cells, got {len(row)}"
            )
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise ParseError(
                    line, c + 1, f"non-numeric cell {cell!r}"
                ) from None
    if names is not None and len(names) != width:
        raise ParseError(1, width, "header width differs from data width")

    wavelengths = None
    if names is not None and names and names[0].casefold() == "wavelength":
        if width < 2:
            raise EmptyFile(f"{path}: wavelength column but no signatures")
        wavelengths = values[:, 0].copy()
        values = values[:, 1:]
        names = names[1:]
    if names is None:
        names = [f"sig{j:02d}" for j in range(values.shape[1])]
    return SpectralLibrary(values, tuple(names), wavelengths=wavelengths)


def write_library_csv(path, lib: SpectralLibrary) -> None:
    """Inverse of read_library_csv; always writes a header row."""
    header, table = lib.names, lib.signatures
    if lib.wavelengths is not None:
        header = ("wavelength",) + header
        table = np.column_stack((lib.wavelengths, table))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in table)


# ------------------------------------------------------- binary containers


def _tile_width(n_channels: int) -> int:
    """Whole pixels per tile of READ_TILE_BYTES, and at least one."""
    return max(1, READ_TILE_BYTES // (8 * n_channels))


def _write_container(path, magic, data, rows, cols, wavelengths) -> None:
    data = np.asarray(data, dtype=np.float64)
    n_channels, n = data.shape
    flags = FLAG_WAVELENGTHS if wavelengths is not None else 0
    width = _tile_width(n_channels)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, n_channels, rows, cols, flags))
        if wavelengths is not None:
            fh.write(np.asarray(wavelengths, dtype="<f8").tobytes())
        # The payload is data.T, one tile at a time (module docstring).
        for lo in range(0, n, width):
            tile = data[:, lo:lo + width].T
            fh.write(memoryview(np.ascontiguousarray(tile, dtype="<f8")))


def _read_exactly(fh, path, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous "<f8" array out from fh, or raise."""
    got = fh.readinto(memoryview(out).cast("B"))
    if got != out.nbytes:
        raise TruncatedFile(
            f"{path}: file ended early, read {got} of {out.nbytes} bytes"
        )
    return out


class ContainerReader:
    """An open container whose header and file size have been checked.

    Opening runs the checks the module docstring lists and reads the
    wavelength block, but no payload; tiles() then streams the payload
    and read() reads all of it. Use it as a context manager, or call
    close().

    Attributes: path, n_channels (bands for cubes, endmembers for
    abundances), shape (rows, cols), n_pixels, wavelengths (None unless
    the header flags them) and sum_sq, the sum of squares of the
    payload that tiles() has read so far, added tile by tile in order.
    """

    def __init__(self, path, expected_magic):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._check_header(expected_magic)
        except BaseException:
            self._fh.close()
            raise
        self.sum_sq = 0.0

    def _check_header(self, expected_magic) -> None:
        fh, path = self._fh, self.path
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedFile(
                f"{path}: {len(head)} bytes is too short for a header"
            )
        magic, version, n_channels, rows, cols, flags = _HEADER.unpack(head)
        if magic != expected_magic:
            raise BadMagic(
                f"{path}: expected magic {expected_magic!r}, found {magic!r}"
            )
        if version != VERSION:
            raise VersionUnsupported(
                f"{path}: container version {version}, "
                f"reader supports {VERSION}"
            )
        if n_channels < 1 or rows < 1 or cols < 1:
            raise TruncatedFile(
                f"{path}: header declares an empty payload "
                f"({n_channels} channels, {rows}x{cols} pixels)"
            )
        has_wavelengths = bool(flags & FLAG_WAVELENGTHS)
        expected = _HEADER.size + 8 * n_channels * (
            rows * cols + has_wavelengths
        )
        if size != expected:
            raise TruncatedFile(
                f"{path}: header implies {expected} bytes, file has {size}"
            )
        self.n_channels, self.shape = n_channels, (rows, cols)
        self.n_pixels = rows * cols
        self.wavelengths = None
        if has_wavelengths:
            self.wavelengths = _read_exactly(
                fh, path, np.empty(n_channels, dtype="<f8")
            )
        self._payload_at = fh.tell()

    @property
    def n_bands(self) -> int:
        return self.n_channels

    def tiles(self, width: int):
        """Read the payload in order, one tile of ``width`` pixels at a time.

        The forward map asks for subspace.forward_width, which keeps a
        tile within READ_TILE_BYTES: 584, 440, 312 and 216 pixels of a
        224-band cube at m = 5, 10, 14 and 20. Yields each tile as a
        channels x pixels view, the transpose of its pixel-major rows.
        Every tile is read into one reused buffer, so a yielded view
        holds its values only until the next tile is read. Each tile is
        checked as it is read: a short read raises TruncatedFile (the
        file changed after its size was checked) and a NaN or infinity
        raises NonFinite. Every call starts again at the first pixel.
        """
        n = self.n_pixels
        buf = np.empty((min(width, n), self.n_channels), dtype="<f8")
        self._fh.seek(self._payload_at)
        self.sum_sq = 0.0
        for lo in range(0, n, width):
            tile = _read_exactly(self._fh, self.path, buf[:min(width, n - lo)])
            try:
                self.sum_sq += finite_sum_of_squares(tile, "tile")
            except NonFinite:
                raise NonFinite(
                    f"{self.path}: non-finite value among pixels "
                    f"{lo}..{lo + tile.shape[0] - 1}"
                ) from None
            yield tile.T

    def read(self) -> np.ndarray:
        """The whole payload as a channels x pixels matrix.

        One readinto fills the final (pixels x channels) array, handed out
        as its transpose: a Fortran-ordered view, not a copy. A short read
        raises TruncatedFile; finiteness is left to the caller's model type.
        """
        self._fh.seek(self._payload_at)
        return _read_exactly(self._fh, self.path, np.empty(
            (self.n_pixels, self.n_channels), dtype="<f8")).T

    def _read_into(self, model, **kwargs):
        """model(read(), shape, **kwargs), naming the file in a NonFinite."""
        try:
            return model(self.read(), self.shape, **kwargs)
        except NonFinite as exc:
            raise NonFinite(f"{self.path}: {exc}") from None

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_cube(path) -> ContainerReader:
    """Open a cube file for streaming; see ContainerReader."""
    return ContainerReader(path, MAGIC_CUBE)


def write_cube(path, cube: ImageCube) -> None:
    _write_container(
        path, MAGIC_CUBE, cube.data, cube.shape[0], cube.shape[1],
        cube.wavelengths,
    )


def read_cube(path) -> ImageCube:
    with open_cube(path) as source:
        return source._read_into(ImageCube, wavelengths=source.wavelengths)


def write_abundance(path, a: AbundanceMatrix) -> None:
    _write_container(
        path, MAGIC_ABUNDANCE, a.data, a.shape[0], a.shape[1], None
    )


def read_abundance(path) -> AbundanceMatrix:
    with ContainerReader(path, MAGIC_ABUNDANCE) as source:
        return source._read_into(AbundanceMatrix)


# ------------------------------------------------------------- curve CSV


@dataclass(frozen=True)
class ConvergenceCurve:
    """Metric rows of one solver run, one row per recorded sweep, as
    metrics.CurveRecorder builds them and the curve CSV holds them.

    re_db and nmse_db hold nan where the matching reference was not
    supplied.
    """

    sweep: np.ndarray
    time_s: np.ndarray
    objective: np.ndarray
    re_db: np.ndarray
    nmse_db: np.ndarray
    unconverged: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.sweep)


_CURVE_HEADER = ["sweep", "time_s", "objective", "re_db", "nmse_db",
                 "unconverged"]


def _cell(value: float) -> str:
    if np.isnan(value):
        return ""
    if np.isneginf(value):
        return "-inf"
    return _fmt(value)


def write_curve_csv(curve: ConvergenceCurve, path) -> None:
    """One row per curve entry; nan cells empty, -inf literal `-inf`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CURVE_HEADER)
        for k in range(curve.n_rows):
            row = [
                str(int(curve.sweep[k])),
                _fmt(curve.time_s[k]),
                _fmt(curve.objective[k]),
                _cell(curve.re_db[k]),
                _cell(curve.nmse_db[k]),
                str(int(curve.unconverged[k])),
            ]
            writer.writerow(row)
