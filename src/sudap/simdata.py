"""Synthetic experiment generation.

Covers the three ingredients of a controlled unmixing run: picking
endmembers out of a spectral library subject to a pairwise-angle floor,
drawing abundance maps uniformly from the simplex, and mixing them into
a noisy cube at a prescribed SNR. make_scene chains the three; every
seeded scene in the package is built by it.

SNR convention used throughout: 10 log10 of mean-square signal power
over mean-square noise power, both taken entrywise over the whole cube,
so noise variance is sigma^2 = |EA|_F^2 / (n_bands * n_pixels * 10^(snr/10)).

All randomness flows through numpy Generators seeded explicitly; equal
seeds give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientCandidates
from .model import (
    AbundanceMatrix,
    EndmemberMatrix,
    ImageCube,
    _as_matrix,
    _grid,
    _wavelengths,
)


@dataclass(frozen=True)
class SpectralLibrary:
    """Candidate signatures, one per column (n_bands x L)."""

    signatures: np.ndarray
    names: tuple
    wavelengths: np.ndarray | None = None

    def __post_init__(self):
        sig, _ = _as_matrix(self.signatures, "library")
        if sig.shape[1] < 1:
            raise ValueError("library needs at least one signature column")
        norms = np.linalg.norm(sig, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("library contains a zero-norm signature")
        object.__setattr__(self, "signatures", sig)
        names = tuple(str(n) for n in self.names)
        if len(names) != sig.shape[1]:
            raise ValueError("need exactly one name per signature")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "wavelengths",
                           _wavelengths(self.wavelengths, sig.shape[0]))

    @property
    def n_bands(self) -> int:
        return self.signatures.shape[0]

    @property
    def n_signatures(self) -> int:
        return self.signatures.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise level and its seed.

    snr_db may be numpy.inf for a noiseless cube.
    """

    snr_db: float
    seed: int

    def __post_init__(self):
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ValueError("snr_db must be a number or +inf")


def select_endmember_indices(
    lib: SpectralLibrary, m: int, min_angle_deg: float, seed: int
) -> list:
    """Greedy angle-filtered selection; returns library column indices.

    Walks a seeded random permutation of the library and keeps a
    candidate iff its angle to every signature kept so far stays
    strictly above min_angle_deg, stopping at m. The order of the
    returned indices is the acceptance order.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if min_angle_deg < 0:
        raise ValueError("min_angle_deg must be non-negative")
    if lib.n_signatures < m:
        raise InsufficientCandidates(m, lib.n_signatures)
    sig = lib.signatures
    unit = sig / np.linalg.norm(sig, axis=0)
    rng = np.random.default_rng(seed)
    chosen: list = []
    for idx in rng.permutation(lib.n_signatures):
        if chosen:
            cosines = unit[:, chosen].T @ unit[:, idx]
            angles = np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0)))
            if angles.min() <= min_angle_deg:
                continue
        chosen.append(int(idx))
        if len(chosen) == m:
            return chosen
    raise InsufficientCandidates(m, len(chosen))


def sample_abundances(m: int, n: int, seed: int) -> AbundanceMatrix:
    """Draw n columns i.i.d. uniform on the (m-1)-simplex.

    Uses normalized exponential spacings: m independent standard
    exponentials divided by their sum are exactly uniform on the
    simplex, with no rejection step.

    The returned matrix carries a 1 x n spatial shape; callers with a
    real grid should rewrap.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    rng = np.random.default_rng(seed)
    gaps = rng.standard_exponential((m, n))
    a = gaps / gaps.sum(axis=0)
    if m > 1:
        # one correction step keeps every column sum within an ulp or
        # two of 1 even for large m
        a /= a.sum(axis=0)
    return AbundanceMatrix(a, (1, n), feasible=True)


def synthesize_cube(
    e: EndmemberMatrix,
    a: AbundanceMatrix,
    noise: NoiseSpec,
    shape: tuple,
) -> ImageCube:
    """Mix X = EA + N with white Gaussian noise at the requested SNR.

    With snr_db = +inf the noise term is skipped entirely and X = EA
    exactly. Otherwise the noise variance follows the module's SNR
    convention (see module docstring). Bit-reproducible for a fixed
    NoiseSpec.
    """
    if e.n_endmembers != a.n_endmembers:
        raise DimensionMismatch(e.n_endmembers, a.n_endmembers)
    shape = _grid(shape, a.n_pixels)
    signal = e.data @ a.data
    if np.isinf(noise.snr_db):
        x = signal.copy()
    else:
        power = float(np.linalg.norm(signal) ** 2)
        sigma2 = power / (signal.size * 10.0 ** (noise.snr_db / 10.0))
        rng = np.random.default_rng(noise.seed)
        x = signal + rng.normal(0.0, np.sqrt(sigma2), signal.shape)
    return ImageCube(x, shape, wavelengths=e.wavelengths)


def measured_snr_db(
    cube: ImageCube, e: EndmemberMatrix, a: AbundanceMatrix
) -> float:
    """Realized SNR of a cube against the clean mixture EA."""
    signal = e.data @ a.data
    noise_power = float(np.linalg.norm(cube.data - signal) ** 2)
    if noise_power == 0.0:
        return np.inf
    return 10.0 * np.log10(float(np.linalg.norm(signal) ** 2) / noise_power)


def make_synthetic_library(
    n_bands: int = 224, n_signatures: int = 24, seed: int = 0
) -> SpectralLibrary:
    """Generate a smooth positive reflectance-style library.

    Each signature is a baseline plus a handful of Gaussian bumps. One
    dominant bump per signature is spread across the wavelength range
    so that pairwise angles stay usefully large, which makes the
    library a good feed for select_endmember_indices in tests and demos.
    """
    if n_bands < 2 or n_signatures < 1:
        raise ValueError("need n_bands >= 2 and n_signatures >= 1")
    rng = np.random.default_rng(seed)
    wl = np.linspace(400.0, 2500.0, n_bands)
    span = wl[-1] - wl[0]
    sig = np.empty((n_bands, n_signatures))
    for j in range(n_signatures):
        base = rng.uniform(0.02, 0.10)
        centre = wl[0] + span * ((j + 0.5) / n_signatures)
        centre += rng.uniform(-0.2, 0.2) * span / n_signatures
        width = rng.uniform(80.0, 220.0)
        curve = base + rng.uniform(0.5, 1.0) * np.exp(
            -0.5 * ((wl - centre) / width) ** 2
        )
        for _ in range(rng.integers(1, 4)):
            mu = rng.uniform(wl[0], wl[-1])
            w = rng.uniform(60.0, 300.0)
            curve += rng.uniform(0.05, 0.30) * np.exp(
                -0.5 * ((wl - mu) / w) ** 2
            )
        sig[:, j] = curve
    names = tuple(f"synth{j:02d}" for j in range(n_signatures))
    return SpectralLibrary(sig, names, wavelengths=wl)


def child_seeds(seed: int, count: int) -> list:
    """Fan one master seed out into count independent integer seeds."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


def make_scene(
    lib: SpectralLibrary,
    m: int,
    min_angle_deg: float,
    shape: tuple,
    snr_db: float,
    seeds,
) -> tuple:
    """Select m endmembers, draw abundances on a shape grid, and mix.

    seeds holds three seeds, for selection, abundances and noise, in
    that order. Returns (idx, e, a, cube): the selected library column
    indices, the endmember matrix, the ground-truth abundances and the
    noisy cube.
    """
    seed_sel, seed_ab, seed_noise = seeds
    idx = select_endmember_indices(lib, m, min_angle_deg, seed_sel)
    e = EndmemberMatrix(
        lib.signatures[:, idx].copy(), wavelengths=lib.wavelengths
    )
    a = sample_abundances(m, shape[0] * shape[1], seed_ab)
    a = AbundanceMatrix(a.data, shape, feasible=True)
    cube = synthesize_cube(e, a, NoiseSpec(snr_db, seed_noise), shape)
    return idx, e, a, cube


def make_instance(
    m: int, shape: tuple, snr_db: float, seed: int, n_bands: int = 64
) -> tuple:
    """Seeded synthetic library plus scene; returns (e, a_true, cube).

    One master seed fans out into independent streams for library
    construction, endmember selection, abundances and noise, so two
    calls with the same arguments build identical problems. Endmembers
    are picked with a 10 degree angle floor.
    """
    seed_lib, *seeds = child_seeds(seed, 4)
    lib = make_synthetic_library(n_bands, 24, seed=seed_lib)
    _, e, a, cube = make_scene(lib, m, 10.0, shape, snr_db, seeds)
    return e, a, cube
