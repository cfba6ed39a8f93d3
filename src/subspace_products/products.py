"""Product spans, stabilizer subfields, the linear Kneser bound, and the
constructions that realize the minimum dimension exactly."""

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
    degree, gamma = 1, 1
    for d in reversed(divisors(gcd(n, v.dim)).degrees[1:]):
        gamma_d = field.subfield_generator(d)
        if all(v.contains(field.mul(gamma_d, w)) for w in v.rows):
            degree, gamma = d, gamma_d
            break
    h = span(field, [field.pow(gamma, i) for i in range(degree)])
    g = h.dim
    verified = h.contains(1) and n % g == 0
    if verified:
        verified = all(h.contains(field.mul(x, y)) for x in h.rows for y in h.rows)
    if verified:
        verified = product_span(h, v) == v
    return StabilizerReport(h=h, g=g, is_subfield_verified=verified)


@dataclass(frozen=True)
class KneserReport:
    """dim<AB> against the stabilizer lower bound dim A + dim B - dim H."""

    dim_a: int
    dim_b: int
    dim_ab: int
    dim_h: int
    slack: int
    holds: bool


def kneser_check(a: Subspace, b: Subspace) -> KneserReport:
    _require_nonzero(a, b)
    ab = product_span(a, b)
    st = stabilizer(ab)
    slack = ab.dim - (a.dim + b.dim - st.g)
    return KneserReport(dim_a=a.dim, dim_b=b.dim, dim_ab=ab.dim, dim_h=st.g,
                        slack=slack, holds=slack >= 0)


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
    h0 = cert.h0
    gamma = field.subfield_generator(h0)
    beta = field.primitive

    def h_span_of_powers(count: int) -> Subspace:
        rows = []
        for j in range(count):
            bj = field.pow(beta, j)
            gi = 1
            for _ in range(h0):
                rows.append(field.mul(gi, bj))
                gi = field.mul(gi, gamma)
        sp = span(field, rows)
        if sp.dim != count * h0:
            raise AssertionError("H-span of primitive powers has wrong dimension")
        return sp

    a0 = h_span_of_powers(cert.r0)
    b0 = a0 if cert.s0 == cert.r0 else h_span_of_powers(cert.s0)
    a = Subspace(field, a0.rows[:r])
    b = Subspace(field, b0.rows[:s])
    return a, b, cert


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
        q1 = (r - r0) // m
        q2 = (s - s0) // m
        if alpha is None:
            alpha = field.primitive
        spec = cls(field=field, m=m, d=d, alpha=alpha, q1=q1, q2=q2, r0=r0, s0=s0)
        gamma = field.subfield_generator(m)
        ladder = [field.mul(field.pow(gamma, i), field.pow(alpha, j))
                  for j in range(d) for i in range(m)]
        if span(field, ladder).dim != n:
            raise ValueError("alpha does not have degree n/m over the subfield M")
        return spec

    def subfield(self) -> Subspace:
        gamma = self.field.subfield_generator(self.m)
        return span(self.field, [self.field.pow(gamma, i) for i in range(self.m)])


def tower_construction(spec: TowerSpec, a0: Subspace, b0: Subspace) -> tuple[Subspace, Subspace]:
    """Lift small witnesses from the subfield M up the tower:

        A = M * {1, alpha, ..., alpha^(q1-1)}  (+)  A0 * alpha^q1

    (and likewise for B), which keeps dim<AB> <= r + s - 1.
    """
    field = spec.field
    _require_nonzero(a0, b0)
    m_space = spec.subfield()
    if not (m_space.contains_subspace(a0) and m_space.contains_subspace(b0)):
        raise ValueError("A0 and B0 must be contained in the subfield M")
    if a0.dim != spec.r0 or b0.dim != spec.s0:
        raise ValueError(f"A0/B0 dimensions ({a0.dim}, {b0.dim}) do not match "
                         f"the spec remainders ({spec.r0}, {spec.s0})")
    if product_span(a0, b0).dim > spec.r0 + spec.s0 - 1:
        raise ValueError("product of A0 and B0 is too large for the lift")

    def lift(base: Subspace, q: int, target_dim: int) -> Subspace:
        if q == 0:
            return base
        rows = [field.mul(g, field.pow(spec.alpha, j))
                for j in range(q) for g in m_space.rows]
        rows += [field.mul(x, field.pow(spec.alpha, q)) for x in base.rows]
        lifted = span(field, rows)
        if lifted.dim != target_dim:
            raise AssertionError("tower lift produced a dependent basis")
        return lifted

    a = lift(a0, spec.q1, spec.q1 * spec.m + spec.r0)
    b = lift(b0, spec.q2, spec.q2 * spec.m + spec.s0)
    return a, b
