"""Fiberization of signal spaces on finite abelian groups.

The library represents translation-invariant subspaces by range functions
(one subspace of the coset fiber space per dual coset) and realizes the
one-to-one correspondence between translation-commuting operators and
block-diagonal fields of fiber operators, with verification reports for the
norm, Hilbert-Schmidt, trace, isometry and self-adjointness identities.
"""

from .checks import Verdict
from .fiberization import (
    FiberContext,
    determining_function,
    fiber_context,
    zak,
    zak_inverse,
    zak_matrix,
)
from .groups import (
    GroupSpec,
    Subgroup,
    Transversal,
    all_subgroups,
    annihilator,
    make_group,
    pairing,
    subgroup_from_generators,
    translate,
    translation_matrix,
    transversal,
)
from .operators import (
    NotTranslationPreservingError,
    RangeOperatorField,
    RangeSolveError,
    VerificationReport,
    check_translation_preserving,
    extract_range_operator,
    fiber_summary,
    hs_trace_report,
    multiplication_preserving_check,
    norm_identity_report,
    operator_summary,
    solve_range_field,
    structural_flags,
    synthesize_operator,
)
from .spaces import (
    NotTranslationInvariantError,
    RangeFunction,
    full_range_function,
    is_translation_invariant,
    parseval_fiber_check,
    principal_decomposition,
    project_via_fibers,
    range_function,
    space_from_range,
    translate_parseval_frame,
)

__all__ = [
    "FiberContext",
    "GroupSpec",
    "NotTranslationInvariantError",
    "NotTranslationPreservingError",
    "RangeFunction",
    "RangeOperatorField",
    "RangeSolveError",
    "Subgroup",
    "Transversal",
    "VerificationReport",
    "Verdict",
    "all_subgroups",
    "annihilator",
    "check_translation_preserving",
    "determining_function",
    "extract_range_operator",
    "fiber_context",
    "fiber_summary",
    "full_range_function",
    "hs_trace_report",
    "is_translation_invariant",
    "make_group",
    "multiplication_preserving_check",
    "norm_identity_report",
    "operator_summary",
    "pairing",
    "parseval_fiber_check",
    "principal_decomposition",
    "project_via_fibers",
    "range_function",
    "solve_range_field",
    "space_from_range",
    "structural_flags",
    "subgroup_from_generators",
    "synthesize_operator",
    "translate",
    "translate_parseval_frame",
    "translation_matrix",
    "transversal",
    "zak",
    "zak_inverse",
    "zak_matrix",
]

__version__ = "0.1.0"
