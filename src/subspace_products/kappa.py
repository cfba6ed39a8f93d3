"""Integer minimization kernel for the extremal bound on subspace products.

For an extension with admissible intermediate degrees D, the bound at
dimensions (r, s) is

    kappa(r, s) = min over h in D of (ceil(r/h) + ceil(s/h) - 1) * h.

`kappa_rs(r, s, degrees)` is the one place that evaluates it; `divisors(n)`
gives D for GF(p^n) over F_p, and `kappa_table` fills the matrix from it.
Everything here is exact integer arithmetic; ceilings are computed by
ceiling division, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import prime_factors

#: Sentinel for "infinite extension degree" in AdmissibleDegreeSet.n.
INFINITE = 0


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def f_h(r: int, s: int, h: int) -> int:
    """Per-degree term (ceil(r/h) + ceil(s/h) - 1) * h.

    All three arguments must be >= 1; the formula degenerates at zero and
    zero inputs are rejected outright.
    """
    if r < 1 or s < 1 or h < 1:
        raise ValueError(f"f_h requires positive integers, got r={r}, s={s}, h={h}")
    return (_ceil_div(r, h) + _ceil_div(s, h) - 1) * h


@dataclass(frozen=True)
class AdmissibleDegreeSet:
    """Sorted set of degrees of intermediate fields (or subgroup orders).

    ``n`` is the ambient degree, or ``INFINITE`` (0) when there is none.
    1 is always admissible, and for finite ``n`` every degree divides ``n``.
    """

    n: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"ambient degree must be >= 0, got {self.n}")
        ds = self.degrees
        if not ds:
            raise ValueError("degree set is empty")
        if ds[0] != 1:
            raise ValueError("degree set must contain 1")
        if any(a >= b for a, b in zip(ds, ds[1:])):
            raise ValueError(f"degrees must be strictly ascending: {ds}")
        if self.n != INFINITE:
            bad = [h for h in ds if self.n % h != 0]
            if bad:
                raise ValueError(f"degrees {bad} do not divide n={self.n}")


def divisors(n: int) -> AdmissibleDegreeSet:
    """All divisors of n, as the degree set of a full subfield lattice, built
    from the prime factors of n; n must lie below 2^64, where they are exact."""
    if not 1 <= n < 1 << 64:
        raise ValueError(f"n={n} must lie in [1, 2^64)")
    ds = [1]
    for f in prime_factors(n):
        ds = [d * f ** e for d in ds for e in range(n.bit_length()) if n % f ** e == 0]
    return AdmissibleDegreeSet(n=n, degrees=tuple(sorted(ds)))


@dataclass(frozen=True)
class KappaResult:
    """Minimum value, the smallest degree h0 attaining it, and the ceilings."""

    value: int
    h0: int
    r0: int
    s0: int


def kappa_rs(r: int, s: int, degrees: AdmissibleDegreeSet) -> KappaResult:
    """Minimize f_h over the admissible degrees, for 1 <= r, s (and r, s <= n
    when n is finite).

    Ties are broken toward the smallest minimizing h, so downstream
    constructions land in the cheapest intermediate field.
    """
    if r < 1 or s < 1:
        raise ValueError(f"r and s must be >= 1, got r={r}, s={s}")
    n = degrees.n
    if n != INFINITE and (r > n or s > n):
        raise ValueError(f"r={r}, s={s} exceed ambient degree n={n}")
    value = h0 = 0
    for h in degrees.degrees:
        v = f_h(r, s, h)
        if not value or v < value:
            value, h0 = v, h
    return KappaResult(value=value, h0=h0, r0=_ceil_div(r, h0), s0=_ceil_div(s, h0))


#: Largest n kappa_table accepts: the table has n^2 entries, so n = 1024
#: already takes seconds and tens of megabytes.
MAX_TABLE_N = 2048


def kappa_table(n: int, degrees: AdmissibleDegreeSet | None = None) -> list[list[int]]:
    """n x n matrix with entry (r, s) = kappa(r, s); symmetric by construction.

    Raises ValueError for n < 1 or n > MAX_TABLE_N before any work is done."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if n > MAX_TABLE_N:
        raise ValueError(f"n={n} is past the table limit {MAX_TABLE_N}")
    if degrees is None:
        degrees = divisors(n)
    if degrees.n != n:
        raise ValueError(f"degree set is for n={degrees.n}, table requested for n={n}")
    return [[kappa_rs(r, s, degrees).value for s in range(1, n + 1)] for r in range(1, n + 1)]
