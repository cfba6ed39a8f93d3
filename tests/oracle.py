"""Reference implementations, for comparison in tests.

The stabilizer by plain linear algebra: H = {x : x*V in V} is the
intersection, over the basis rows w of V, of the solution spaces of the
linear condition x*w in V.  Each solution space is a left kernel, and the
spaces are met by Zassenhaus intersection.  This makes no use of the fact
that H is a subfield, so it checks the subfield-lattice stabilizer in the
library independently.

The group subset minimum by a plain double loop, with no pruning and no
early exit, checks the library's branch-and-bound search.
"""

from bisect import insort
from itertools import combinations

from subspace_products.linalg import Subspace, _rref_bits, _rref_modp, span, whole_space
from subspace_products.products import StabilizerReport, product_span


def left_kernel(field, rows) -> list[int]:
    """Dependencies among rows: all x with sum_i x_i * rows[i] = 0, returned as
    packed coordinate vectors of length len(rows).

    Each row gets an identity tag appended; elimination picks pivots in the
    leading n columns only, so rows whose leading block vanishes carry a
    kernel vector in their tag.
    """
    m = len(rows)
    n = field.n
    if field.p == 2:
        mask = (1 << n) - 1
        pivot_rows: list[int] = []
        kernel: list[int] = []
        for i, r in enumerate(rows):
            v = (r & mask) | (1 << (n + i))
            for b in pivot_rows:
                if v & ((b & mask) & -(b & mask)):
                    v ^= b
            if v & mask:
                insort(pivot_rows, v, key=lambda row: (row & mask) & -(row & mask))
            else:
                kernel.append(v >> n)
        return kernel
    p = field.p
    pivot_vecs: list[list[int]] = []
    pivots: list[int] = []
    kernel_vecs: list[int] = []
    for i, r in enumerate(rows):
        tag = [0] * m
        tag[i] = 1
        v = list(field.coeffs(r)) + tag
        for b, piv in zip(pivot_vecs, pivots):
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, b)]
        piv = next((j for j, c in enumerate(v[:n]) if c), -1)
        if piv >= 0:
            inv = pow(v[piv], -1, p)
            v = [x * inv % p for x in v]
            at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
            pivot_vecs.insert(at, v)
            pivots.insert(at, piv)
        else:
            kernel_vecs.append(sum(c * p ** j for j, c in enumerate(v[n:])))
    return kernel_vecs


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [[U U], [V 0]]; zero-left rows carry the
    intersection in their right block."""
    u._check_ambient(v)
    f = u.field
    n = f.n
    if f.p == 2:
        mask = (1 << n) - 1
        stacked = [r | (r << n) for r in u.rows] + list(v.rows)
        reduced = _rref_bits(stacked)
        inter = [r >> n for r in reduced if not r & mask]
        return span(f, inter)
    stacked = [list(f.coeffs(r)) * 2 for r in u.rows]
    stacked += [list(f.coeffs(r)) + [0] * n for r in v.rows]
    reduced = _rref_modp(stacked, f.p)
    inter = [f.from_coeffs_unchecked(row[n:]) for row in reduced if not any(row[:n])]
    return span(f, inter)


def stabilizer_oracle(v: Subspace) -> StabilizerReport:
    """The stabilizer by kernel solves and intersections, with the same
    verification bits as the library's stabilizer."""
    field = v.field
    n = field.n
    h = whole_space(field)
    basis_elems = [field.p ** i for i in range(n)]
    for w in v.rows:
        conditions = [v.reduce(field.mul(e, w)) for e in basis_elems]
        solutions = span(field, left_kernel(field, conditions))
        h = intersect(h, solutions)
        if h.dim == 1:
            break
    g = h.dim
    verified = h.contains(1) and n % g == 0
    if verified:
        verified = all(h.contains(field.mul(x, y)) for x in h.rows for y in h.rows)
    if verified:
        verified = product_span(h, v) == v
    return StabilizerReport(h=h, g=g, is_subfield_verified=verified)


def mu_group_brute(group, r, s):
    """(value, A, B) for the first pair, in A-major lexicographic order over
    identity-containing subsets, with the least |AB|; |AB| is counted as a
    set of Cayley entries and every pair is visited."""
    e = group.identity
    others = [g for g in range(group.order) if g != e]
    best = None
    for a_combo in combinations(others, r - 1):
        a = (e, *a_combo)
        for b_combo in combinations(others, s - 1):
            b = (e, *b_combo)
            value = len({group.cayley[x][y] for x in a for y in b})
            if best is None or value < best[0]:
                best = (value, a, b)
    return best
