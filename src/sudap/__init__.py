"""Fully constrained spectral unmixing by subspace projection.

Solves min |X - EA|_F^2 subject to A >= 0 and unit column sums by
mapping the problem into a coordinate system where the feasible set is
an intersection of a hyperplane with half spaces, each with a
closed-form projector, then running Dykstra's alternating projections.
An independent active-set solver provides exact answers for
verification at small m.

The package root exports the documented API; every other name is
imported from its own module (sudap.simdata, sudap.io, ...).
"""

from .dykstra import DykstraConfig
from .errors import SudapError
from .metrics import CurveRecorder, relative_error_db
from .model import EndmemberMatrix, ImageCube
from .solver import solve_oracle_activeset, solve_sudap

__version__ = "0.1.0"

__all__ = [
    "CurveRecorder",
    "DykstraConfig",
    "EndmemberMatrix",
    "ImageCube",
    "SudapError",
    "relative_error_db",
    "solve_oracle_activeset",
    "solve_sudap",
]
