"""Polynomial families, their real zeros, and machine-checked interlacing."""

from .families import FamilySpec, monic_by_recurrence
from .interlacing import (
    DEFAULT_FLOOR,
    Verdict,
    added_point_interlace,
    alternates,
    interlaces_down,
)
from .poly import FLOAT, RATIONAL, Polynomial, is_identically_zero, linear_combine
from .relations import (
    CheckReport,
    MixedRelation,
    build_relation,
    check_relation,
    run_check,
    verify_identity,
)
from .rootfind import ZeroSet, sign_at_zeros, zeros_general, zeros_orthogonal

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DEFAULT_FLOOR",
    "FLOAT",
    "FamilySpec",
    "MixedRelation",
    "Polynomial",
    "RATIONAL",
    "Verdict",
    "ZeroSet",
    "added_point_interlace",
    "alternates",
    "build_relation",
    "check_relation",
    "interlaces_down",
    "is_identically_zero",
    "linear_combine",
    "monic_by_recurrence",
    "run_check",
    "sign_at_zeros",
    "verify_identity",
    "zeros_general",
    "zeros_orthogonal",
]
