"""Product spans, stabilizer subfields, the linear Kneser bound, and the
constructions that realize the minimum dimension exactly.

H-spans of powers, `_h_span`, build the stabilizer's H, the tower's M and
the witnesses of `optimal_pair`; H is certified from its generator (see
stabilizer).  `kneser_check` is the one path from a pair to its product,
its stabilizer and its slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fields import ExtensionField
from .kappa import KappaResult, check_rs, divisors, kappa_rs
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
    """Span of all pairwise products; basis products suffice by bilinearity.
    They are consumed lazily: none is computed once they span the field."""
    _require_nonzero(a, b)
    a._check_ambient(b)
    field = a.field
    mul = field.mul
    return span(field, (mul(x, y) for x in a.rows for y in b.rows))


@dataclass(frozen=True)
class StabilizerReport:
    """Stabilizer subfield H = {x : x*V inside V} with its verification bits."""

    h: Subspace
    g: int
    is_subfield_verified: bool


def stabilizer(v: Subspace) -> StabilizerReport:
    """Compute H = {x : x*V in V} from the subfield lattice.

    H = F_{p^g} is a subfield and V an H-space, so g | gcd(n, dim V); F_{p^d} =
    F_p[gamma_d] lies in H iff gamma_d*w is in V for every row w, so g is the
    largest such d that passes.  H is the span of gamma_g^i for i < g, so it
    is a subfield iff 1 is in H, dim H | n and gamma_g^g is in H (then
    gamma_g*H lies in H); and it absorbs V iff gamma_g*w is in V for every
    row w, retested here (V lies in H*V as 1 is in H).  These four checks
    replace closing H under its g^2 row products and rebuilding H*V.
    """
    _require_nonzero(v)
    field = v.field
    degree = 1
    for d in reversed(divisors(gcd(field.n, v.dim)).degrees[1:]):
        gamma_d = field.subfield_generator(d)
        if all(v.contains(field.mul(gamma_d, w)) for w in v.rows):
            degree = d
            break
    h = _h_span(field, degree, 1, 1)
    gamma = field.subfield_generator(degree)
    verified = (h.contains(1) and field.n % h.dim == 0 and h.contains(field.pow(gamma, degree))
                and all(v.contains(field.mul(gamma, w)) for w in v.rows))
    return StabilizerReport(h=h, g=h.dim, is_subfield_verified=verified)


@dataclass(frozen=True)
class KneserReport:
    """dim<AB> against the stabilizer lower bound dim A + dim B - dim H, with
    the stabilizer's verification bit."""

    dim_ab: int
    dim_h: int
    slack: int
    holds: bool
    is_subfield_verified: bool


def kneser_check(a: Subspace, b: Subspace) -> KneserReport:
    ab = product_span(a, b)
    st = stabilizer(ab)
    slack = ab.dim - (a.dim + b.dim - st.g)
    return KneserReport(dim_ab=ab.dim, dim_h=st.g, slack=slack, holds=slack >= 0,
                        is_subfield_verified=st.is_subfield_verified)


def optimal_pair(field: ExtensionField, r: int, s: int) -> tuple[Subspace, Subspace, KappaResult]:
    """Build subspaces of dimensions (r, s) whose product span attains the
    integer bound exactly.

    The minimizing intermediate degree h0 picks the subfield H; the ambient
    primitive element beta generates the extension over H, so the H-span of
    1, beta, ..., beta^(r0-1) has an F_p-basis of gamma^i * beta^j products.
    Its first r RREF rows (1 always leads) give the trimmed witness.
    """
    n = field.n
    check_rs(r, s, n)
    cert = kappa_rs(r, s, divisors(n))
    a0 = _h_span(field, cert.h0, field.primitive, cert.r0)
    b0 = a0 if cert.s0 == cert.r0 else _h_span(field, cert.h0, field.primitive, cert.s0)
    if a0.dim != cert.r0 * cert.h0 or b0.dim != cert.s0 * cert.h0:
        raise AssertionError("H-span of primitive powers has wrong dimension")
    return Subspace(field, a0.rows[:r]), Subspace(field, b0.rows[:s]), cert


def tower_construction(field: ExtensionField, m: int, r: int, s: int,
                       a0: Subspace, b0: Subspace) -> tuple[Subspace, Subspace]:
    """Lift A0 and B0 inside the subfield M of degree m to dimensions r and s:

        A = M * {1, alpha, ..., alpha^(q1-1)}  (+)  A0 * alpha^q1

    with r = q1*m + r0, r0 = dim A0 in [1, m], and alpha the primitive element
    (degree n/m over M); likewise B.  Keeps dim<AB> <= r + s - 1 when
    dim<A0B0> <= r0 + s0 - 1.
    """
    n = field.n
    if m < 1 or n % m != 0:
        raise ValueError(f"m={m} does not divide n={n}")
    check_rs(r, s, n)
    r0 = (r - 1) % m + 1
    s0 = (s - 1) % m + 1
    _require_nonzero(a0, b0)
    m_space = _h_span(field, m, 1, 1)
    for base in (a0, b0):
        m_space._check_ambient(base)
        if not all(map(m_space.contains, base.rows)):
            raise ValueError("A0 and B0 must be contained in the subfield M")
    if a0.dim != r0 or b0.dim != s0:
        raise ValueError(f"A0/B0 dimensions ({a0.dim}, {b0.dim}) do not match "
                         f"the remainders ({r0}, {s0})")
    if product_span(a0, b0).dim > r0 + s0 - 1:
        raise ValueError("product of A0 and B0 is too large for the lift")
    alpha = field.primitive

    def lift(base: Subspace, dim: int) -> Subspace:
        q = (dim - base.dim) // m
        top = field.pow(alpha, q)
        lifted = span(field, [*_h_span(field, m, alpha, q).rows,
                              *(field.mul(x, top) for x in base.rows)])
        if lifted.dim != dim:
            raise AssertionError("tower lift produced a dependent basis")
        return lifted

    return lift(a0, r), lift(b0, s)
