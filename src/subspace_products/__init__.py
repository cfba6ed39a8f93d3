"""Exact computation of minimal dimensions of subspace products in GF(p^n),
their integer lower bound, optimal constructions, and finite-group sumset
analogues."""

__version__ = "0.1.0"
