"""Product spans, stabilizer subfields, the linear Kneser bound, and the
constructions that realize the minimum dimension exactly.

Every subspace the paper builds from a subfield is an H-span of powers,
`_h_span`: the stabilizer's H, the subfield M of the tower, and the
witnesses of `optimal_pair`.  `kneser_check` is the one path from a pair
to its product, the product's stabilizer and the Kneser slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fields import ExtensionField
from .kappa import KappaResult, divisors, kappa_rs
from .linalg import Subspace, span


def _require_nonzero(*spaces: Subspace) -> None:
    for sp in spaces:
        if sp.is_zero():
            raise ValueError("zero subspace is not admissible here")


def _h_span(field: ExtensionField, m: int, alpha: int, count: int) -> Subspace:
    """F_p-span of gamma_m^i * alpha^j for i < m and j < count, where gamma_m
    generates the subfield H = F_{p^m}: the H-span of 1, alpha, ...,
    alpha^(count-1).  Each power is one mul from the one before."""
    mul = field.mul
    gamma = field.subfield_generator(m)
    rows = []
    alpha_j = 1
    for _ in range(count):
        x = alpha_j
        for _ in range(m):
            rows.append(x)
            x = mul(x, gamma)
        alpha_j = mul(alpha_j, alpha)
    return span(field, rows)


def product_span(a: Subspace, b: Subspace) -> Subspace:
    """Span of all pairwise products; basis products suffice by bilinearity."""
    _require_nonzero(a, b)
    a._check_ambient(b)
    field = a.field
    mul = field.mul
    return span(field, [mul(x, y) for x in a.rows for y in b.rows])


@dataclass(frozen=True)
class StabilizerReport:
    """Stabilizer subfield H = {x : x*V inside V} with its verification bits."""

    h: Subspace
    g: int
    is_subfield_verified: bool


def stabilizer(v: Subspace) -> StabilizerReport:
    """Compute H = {x : x*V in V} from the subfield lattice.

    H is a subfield F_{p^g} and V is an H-space, so g | gcd(n, dim V).  The
    subfield F_{p^d} = F_p[gamma_d] lies in H iff gamma_d*w is in V for every
    basis row w; the d that pass are exactly the divisors of g, so g is the
    largest divisor of gcd(n, dim V) that passes.
    """
    _require_nonzero(v)
    field = v.field
    n = field.n
    degree = 1
    for d in reversed(divisors(gcd(n, v.dim)).degrees[1:]):
        gamma_d = field.subfield_generator(d)
        if all(v.contains(field.mul(gamma_d, w)) for w in v.rows):
            degree = d
            break
    h = _h_span(field, degree, 1, 1)
    g = h.dim
    verified = h.contains(1) and n % g == 0
    if verified:
        verified = all(h.contains(field.mul(x, y)) for x in h.rows for y in h.rows)
    if verified:
        verified = product_span(h, v) == v
    return StabilizerReport(h=h, g=g, is_subfield_verified=verified)


@dataclass(frozen=True)
class KneserReport:
    """dim<AB> against the stabilizer lower bound dim A + dim B - dim H, with
    the stabilizer's verification bit."""

    dim_a: int
    dim_b: int
    dim_ab: int
    dim_h: int
    slack: int
    holds: bool
    is_subfield_verified: bool


def kneser_check(a: Subspace, b: Subspace) -> KneserReport:
    ab = product_span(a, b)
    st = stabilizer(ab)
    slack = ab.dim - (a.dim + b.dim - st.g)
    return KneserReport(dim_a=a.dim, dim_b=b.dim, dim_ab=ab.dim, dim_h=st.g, slack=slack,
                        holds=slack >= 0, is_subfield_verified=st.is_subfield_verified)


def optimal_pair(field: ExtensionField, r: int, s: int) -> tuple[Subspace, Subspace, KappaResult]:
    """Build subspaces of dimensions (r, s) whose product span attains the
    integer bound exactly.

    The minimizing intermediate degree h0 picks the subfield H; the ambient
    primitive element beta generates the extension over H, so the H-span of
    1, beta, ..., beta^(r0-1) has an F_p-basis of gamma^i * beta^j products.
    Its first r RREF rows (1 always leads) give the trimmed witness.
    """
    n = field.n
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"r={r}, s={s} must lie in [1, {n}]")
    cert = kappa_rs(r, s, divisors(n))
    a0 = _h_span(field, cert.h0, field.primitive, cert.r0)
    b0 = a0 if cert.s0 == cert.r0 else _h_span(field, cert.h0, field.primitive, cert.s0)
    if a0.dim != cert.r0 * cert.h0 or b0.dim != cert.s0 * cert.h0:
        raise AssertionError("H-span of primitive powers has wrong dimension")
    return Subspace(field, a0.rows[:r]), Subspace(field, b0.rows[:s]), cert


@dataclass(frozen=True)
class TowerSpec:
    """Parameters of the two-step construction through a subfield M of degree m.

    r and s decompose as q*m + remainder with remainder in [1, m], and alpha
    generates the ambient field over M with degree d = n/m.
    """

    field: ExtensionField
    m: int
    d: int
    alpha: int
    q1: int
    q2: int
    r0: int
    s0: int

    @classmethod
    def for_dims(cls, field: ExtensionField, m: int, r: int, s: int,
                 alpha: int | None = None) -> "TowerSpec":
        n = field.n
        if m < 1 or n % m != 0:
            raise ValueError(f"m={m} does not divide n={n}")
        d = n // m
        if not (1 <= r <= n and 1 <= s <= n):
            raise ValueError(f"r={r}, s={s} must lie in [1, {n}]")
        r0 = (r - 1) % m + 1
        s0 = (s - 1) % m + 1
        if alpha is None:
            alpha = field.primitive
        if _h_span(field, m, alpha, d).dim != n:
            raise ValueError("alpha does not have degree n/m over the subfield M")
        return cls(field=field, m=m, d=d, alpha=alpha, q1=(r - r0) // m, q2=(s - s0) // m,
                   r0=r0, s0=s0)


def tower_construction(spec: TowerSpec, a0: Subspace, b0: Subspace) -> tuple[Subspace, Subspace]:
    """Lift small witnesses from the subfield M up the tower:

        A = M * {1, alpha, ..., alpha^(q1-1)}  (+)  A0 * alpha^q1

    (and likewise for B), which keeps dim<AB> <= r + s - 1.
    """
    field = spec.field
    _require_nonzero(a0, b0)
    m_space = _h_span(field, spec.m, 1, 1)
    if not (m_space.contains_subspace(a0) and m_space.contains_subspace(b0)):
        raise ValueError("A0 and B0 must be contained in the subfield M")
    if a0.dim != spec.r0 or b0.dim != spec.s0:
        raise ValueError(f"A0/B0 dimensions ({a0.dim}, {b0.dim}) do not match "
                         f"the spec remainders ({spec.r0}, {spec.s0})")
    if product_span(a0, b0).dim > spec.r0 + spec.s0 - 1:
        raise ValueError("product of A0 and B0 is too large for the lift")

    def lift(base: Subspace, q: int) -> Subspace:
        top = field.pow(spec.alpha, q)
        lifted = span(field, [*_h_span(field, spec.m, spec.alpha, q).rows,
                              *(field.mul(x, top) for x in base.rows)])
        if lifted.dim != q * spec.m + base.dim:
            raise AssertionError("tower lift produced a dependent basis")
        return lifted

    return lift(a0, spec.q1), lift(b0, spec.q2)
