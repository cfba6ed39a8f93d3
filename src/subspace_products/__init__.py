"""Exact computation of minimal dimensions of subspace products in GF(p^n),
their integer lower bound, optimal constructions, and finite-group sumset
analogues."""

__version__ = "0.1.0"

from .kappa import (
    INFINITE,
    AdmissibleDegreeSet,
    KappaResult,
    divisors,
    f_h,
    kappa_rs,
    kappa_table,
)

__all__ = [
    "INFINITE",
    "AdmissibleDegreeSet",
    "KappaResult",
    "divisors",
    "f_h",
    "kappa_rs",
    "kappa_table",
    "__version__",
]
