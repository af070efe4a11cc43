"""carpenter: constructive projections with prescribed diagonals.

Diagonal sequences are given exactly (rational prefix + closed tail rule);
the package decides whether an orthogonal projection with that diagonal
exists, builds one when it does, and verifies the result.  Finite fields of
diagonals and sampled shift-invariant spectral data ride on the same engine.
"""

from .errors import (
    CarpenterError,
    ConstructionError,
    ExactnessError,
    InfeasibleDiagonalError,
    MajorizationError,
    OutOfRangeError,
    SpecError,
    UnsupportedStructureError,
)
from .feasibility import (
    BranchLabel,
    FeasibilityReport,
    Route,
    branch_of,
    classify,
    route,
)
from .schurhorn import (
    finite_projection,
    finite_projection_pair,
    majorizes,
    schur_horn_unitary,
)
from .selector import (
    NecessityReport,
    ProjectionField,
    VerificationReport,
    carpenter,
    carpenter_field,
    necessity_oracle,
    verify_projection,
)
from .seqcore import (
    INF,
    CellField,
    DiagonalSpec,
    IndexMap,
    PermutationWindow,
    ProjectionRep,
    SparseVector,
    SqrtTail,
    TailRule,
    conjugate_by_permutation,
    dumps_canonical,
    rat,
)
from .sispectral import (
    RangeFunctionFile,
    SpectralFiber,
    SpectralSamples,
    check_spectral,
    extract_spectral,
    synthesize_range,
)
from .summable import (
    DecouplingPlan,
    decouple,
    proper_subspec,
    summable_construct,
    summable_construct2,
)
from .tetris import (
    TetrisOutput,
    block_sort,
    coupling,
    min_s,
    nonsummable_construct,
    tetris_vectors,
)

__version__ = "0.1.0"
