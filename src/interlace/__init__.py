"""Polynomial families, their real zeros, and machine-checked interlacing."""

from .families import FamilySpec, monic_by_recurrence
from .interlacing import (
    DEFAULT_FLOOR,
    Verdict,
    added_point_interlace,
    alternates,
    interlaces_down,
)
from .poly import RATIONAL, Polynomial
from .relations import (
    CheckReport,
    MixedRelation,
    build_relation,
    check_relation,
    relation_terms,
    run_check,
    verify_identity,
)
from .rootfind import ZeroSet, zeros_general, zeros_orthogonal

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DEFAULT_FLOOR",
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
    "monic_by_recurrence",
    "relation_terms",
    "run_check",
    "verify_identity",
    "zeros_general",
    "zeros_orthogonal",
]
