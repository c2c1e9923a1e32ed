"""Fully constrained spectral unmixing by subspace projection.

Solves min |X - EA|_F^2 subject to A >= 0 and unit column sums by
mapping the problem into a coordinate system where the feasible set is
an intersection of a hyperplane with half spaces, each with a
closed-form projector, then running Dykstra's alternating projections.
An independent active-set solver provides exact answers for
verification at small m.
"""

from .dykstra import (
    DykstraConfig,
    DykstraTrace,
    dykstra_project,
)
from .errors import (
    BadMagic,
    DegenerateProblem,
    DimensionMismatch,
    EmptyFile,
    IndexOutOfRange,
    InsufficientCandidates,
    NoKKTPoint,
    NonFinite,
    ParseError,
    RankDeficient,
    ShapeMismatch,
    SudapError,
    TooManyEndmembers,
    TruncatedFile,
    VersionUnsupported,
    ZeroReference,
)
from .metrics import (
    ConvergenceCurve,
    build_curve,
    nmse_db,
    objective,
    relative_error_db,
)
from .model import (
    AbundanceMatrix,
    EndmemberMatrix,
    FeasibilityReport,
    ImageCube,
    column_feasibility,
    validate_dimensions,
)
from .projectors import (
    project_hyperplane,
    project_intersection_geometric,
    project_intersection_kkt,
)
from .simdata import (
    NoiseSpec,
    SpectralLibrary,
    make_synthetic_library,
    measured_snr_db,
    pairwise_angles_deg,
    sample_abundances,
    select_endmember_indices,
    select_endmembers,
    synthesize_cube,
)
from .solver import (
    SolveResult,
    clip_negatives,
    solve_ls,
    solve_ls_sum1,
    solve_oracle_activeset,
    solve_sudap,
)
from .subspace import (
    SubspaceTransform,
    build_transform,
    forward_transform,
    inverse_transform,
)

__version__ = "0.1.0"

__all__ = [
    "AbundanceMatrix",
    "BadMagic",
    "ConvergenceCurve",
    "DegenerateProblem",
    "DimensionMismatch",
    "DykstraConfig",
    "DykstraTrace",
    "EmptyFile",
    "EndmemberMatrix",
    "FeasibilityReport",
    "ImageCube",
    "IndexOutOfRange",
    "InsufficientCandidates",
    "NoKKTPoint",
    "NoiseSpec",
    "NonFinite",
    "ParseError",
    "RankDeficient",
    "ShapeMismatch",
    "SolveResult",
    "SpectralLibrary",
    "SubspaceTransform",
    "SudapError",
    "TooManyEndmembers",
    "TruncatedFile",
    "VersionUnsupported",
    "ZeroReference",
    "build_curve",
    "build_transform",
    "clip_negatives",
    "column_feasibility",
    "dykstra_project",
    "forward_transform",
    "inverse_transform",
    "make_synthetic_library",
    "measured_snr_db",
    "nmse_db",
    "objective",
    "pairwise_angles_deg",
    "project_hyperplane",
    "project_intersection_geometric",
    "project_intersection_kkt",
    "relative_error_db",
    "sample_abundances",
    "select_endmember_indices",
    "select_endmembers",
    "solve_ls",
    "solve_ls_sum1",
    "solve_oracle_activeset",
    "solve_sudap",
    "synthesize_cube",
    "validate_dimensions",
]
