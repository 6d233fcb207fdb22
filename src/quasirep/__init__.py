"""Approximate representations and approximate homomorphisms of finite groups.

The package builds finite groups as validated multiplication tables,
decomposes their regular representation into unitary irreducibles, and then
measures how close matrix-valued functions and maps between groups come to
being homomorphisms: defects, agreement probabilities, the compression
constructions that meet the known bounds, and the fourth-moment twirl
coefficients behind the error analysis.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .approx import (
    DefectReport,
    MatrixFunction,
    PolarFunction,
    beating_random_threshold,
    defect_direct,
    defect_via_fourier,
    haar_baseline,
    minor_construction,
    perturbed_irrep,
    polar_construction,
    polar_residual,
    polar_unitary,
    random_admissible,
    random_sign_function,
    thm4_defect,
    thm5_bound,
    thm5_normalized_bound,
)
from .errors import (
    ClosureCapExceeded,
    DecompositionFailed,
    DegenerateDimension,
    DimensionError,
    FileFormatError,
    IncompleteTable,
    MissingIrrepTable,
    NotAGroup,
    NotAHomomorphism,
    OddOrder,
    OrderCapExceeded,
    QuasirepError,
    RankDeficient,
    ToleranceViolation,
    UnsupportedParameter,
)
from .fourier import invert_matrix, transform_matrix
from .groups import (
    FiniteGroup,
    from_permutation_generators,
    from_table,
    group_hash,
    load_group,
    named,
    product,
    save_group,
)
from .homs import (
    GroupMap,
    HomReport,
    agreement_probability,
    balanced_random_map,
    evaluate,
    genuine_hom,
    lift_through_irrep,
    make_group_map,
    r_h,
    random_map,
)
from .irreps import (
    IrrepTable,
    UnitaryRep,
    decompose,
    frobenius_schur,
)
from .twirl import (
    TwirlAudit,
    TwirlExpansion,
    error_term_audit,
    moment_trace,
    tableau_count,
    twirl_exact,
    twirl_gram,
)
from .verify import (
    RunManifest,
    VerifyContext,
    deterministic_manifest_dict,
    run_battery,
    run_check,
)

__all__ = [
    "__version__",
    # groups
    "FiniteGroup", "from_table", "from_permutation_generators", "named",
    "product", "group_hash", "save_group", "load_group",
    # irreps
    "UnitaryRep", "IrrepTable", "decompose", "frobenius_schur",
    # fourier
    "transform_matrix", "invert_matrix",
    # approximate representations
    "MatrixFunction", "PolarFunction", "DefectReport",
    "defect_direct", "defect_via_fourier",
    "minor_construction", "polar_unitary", "polar_construction",
    "polar_residual", "random_sign_function", "haar_baseline",
    "perturbed_irrep", "random_admissible", "thm4_defect",
    "thm5_normalized_bound", "thm5_bound", "beating_random_threshold",
    # maps between groups
    "GroupMap", "HomReport", "make_group_map", "agreement_probability",
    "r_h", "evaluate", "lift_through_irrep", "random_map",
    "balanced_random_map", "genuine_hom",
    # twirl
    "TwirlExpansion", "TwirlAudit", "twirl_exact", "twirl_gram",
    "error_term_audit", "tableau_count", "moment_trace",
    # verification
    "RunManifest", "VerifyContext", "run_battery", "run_check",
    "deterministic_manifest_dict",
    # errors
    "QuasirepError", "NotAGroup",
    "ClosureCapExceeded", "OrderCapExceeded", "UnsupportedParameter",
    "DecompositionFailed", "ToleranceViolation", "IncompleteTable",
    "MissingIrrepTable", "DimensionError", "RankDeficient", "OddOrder",
    "DegenerateDimension", "NotAHomomorphism", "FileFormatError",
]
