"""Reference implementations, for comparison in tests.

The stabilizer by plain linear algebra: H = {x : x*V in V} is the
intersection, over the basis rows w of V, of the solution spaces of the
linear condition x*w in V.  Each solution space is a left kernel, and the
spaces are met by Zassenhaus intersection.  This makes no use of the fact
that H is a subfield, so it checks the subfield-lattice stabilizer in the
library independently.

The group subset minimum by a plain double loop, with no pruning and no
early exit, checks the library's branch-and-bound search.  The field minimum
by a plain double loop over subspace pairs, with full product spans, checks
the library's depth-first walk over B's rows: its value, witnesses, exact
flag and pair count.

Row reduction by the list-based elimination the library used before its
pivot-indexed echelon basis: an ascending-pivot list of rows, kept sorted by
insertion.  It checks `span` and `Subspace.reduce`, and gives `intersect` an
elimination that is not the one under test.

Field helpers the library itself does not need: `scale`, `add`, `neg` and
`multiplicative_order`.
"""

from bisect import insort
from itertools import combinations

from subspace_products.fields import prime_factors
from subspace_products.linalg import Subspace, span, whole_space
from subspace_products.products import StabilizerReport, product_span
from subspace_products.search import enumerate_subspaces


# F_2: rows are ints, pivot = lowest set bit.

def _ech_insert_bits(basis: list[int], v: int) -> int:
    """Reduce v against an ascending-pivot echelon basis; insert the remainder
    if nonzero.  Returns 1 if the dimension grew, else 0."""
    for r in basis:
        if v & (r & -r):
            v ^= r
    if not v:
        return 0
    insort(basis, v, key=lambda row: row & -row)
    return 1


def _rref_bits(vectors) -> tuple[int, ...]:
    basis: list[int] = []
    for v in vectors:
        _ech_insert_bits(basis, v)
    for i in range(len(basis) - 1, 0, -1):
        piv = basis[i] & -basis[i]
        for j in range(i):
            if basis[j] & piv:
                basis[j] ^= basis[i]
    return tuple(basis)


def _reduce_bits(rows, v: int) -> int:
    for r in rows:
        if v & (r & -r):
            v ^= r
    return v


# F_p: rows are lists of residues; pivot entries normalized to 1.

def _ech_insert_modp(basis: list[list[int]], pivots: list[int], v: list[int], p: int) -> int:
    for row, piv in zip(basis, pivots):
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    piv = next((j for j, c in enumerate(v) if c), -1)
    if piv < 0:
        return 0
    inv = pow(v[piv], -1, p)
    v = [x * inv % p for x in v]
    at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
    basis.insert(at, v)
    pivots.insert(at, piv)
    return 1


def _rref_modp(vectors, p: int) -> list[list[int]]:
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        _ech_insert_modp(basis, pivots, list(v), p)
    for i in range(len(basis) - 1, 0, -1):
        piv = pivots[i]
        for j in range(i):
            c = basis[j][piv]
            if c:
                basis[j] = [(x - c * y) % p for x, y in zip(basis[j], basis[i])]
    return basis


def _reduce_modp(rows_coeffs, pivots, v: list[int], p: int) -> list[int]:
    for row, piv in zip(rows_coeffs, pivots):
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


def rref_rows(field, elements) -> tuple[int, ...]:
    """Canonical RREF rows of the span of `elements`, as element indices."""
    if field.p == 2:
        return _rref_bits(elements)
    reduced = _rref_modp([list(field.coeffs(e)) for e in elements], field.p)
    return tuple(field.from_coeffs_unchecked(v) for v in reduced)


def reduce_against(field, rows, elem) -> int:
    """Remainder of elem against canonical RREF rows."""
    if field.p == 2:
        return _reduce_bits(rows, elem)
    coeffs = [field.coeffs(r) for r in rows]
    pivots = [next(j for j, c in enumerate(cs) if c) for cs in coeffs]
    v = _reduce_modp(coeffs, pivots, list(field.coeffs(elem)), field.p)
    return field.from_coeffs_unchecked(v)


def scale(field, c, a):
    """The element a times the base-field scalar c (an int mod p)."""
    p = field.p
    return field.from_coeffs_unchecked([c * x % p for x in field.coeffs(a)])


def add(field, a, b):
    """The sum a + b: XOR over F_2, coordinate-wise mod p otherwise."""
    if field.p == 2:
        return a ^ b
    p = field.p
    return field.from_coeffs_unchecked([(x + y) % p for x, y in zip(field.coeffs(a),
                                                                     field.coeffs(b))])


def neg(field, a):
    """The additive inverse -a."""
    return scale(field, -1, a)


def multiplicative_order(field, a):
    """Least k >= 1 with a^k = 1, found by dividing q - 1 by its prime factors."""
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    order = field.q - 1
    for f in prime_factors(order) if order > 1 else ():
        while order % f == 0 and field.pow(a, order // f) == 1:
            order //= f
    return order


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


def mu_field_brute(field, r, s, canonicalize, floor, budget):
    """(value, A rows, B rows, exhaustive, pairs) for the first pair, in
    A-major enumeration order, with the least dim<AB>, each pair's product
    span computed in full.  Stops before the next pair once the value
    reaches `floor` or `budget` pairs are done; the run is exhaustive when it
    saw every pair or reached the floor."""
    value, a_rows, b_rows = field.n + 1, None, None
    pairs = 0
    for a in enumerate_subspaces(field, r, canonicalize):
        for b in enumerate_subspaces(field, s, canonicalize):
            if value <= floor or pairs == budget:
                return value, a_rows, b_rows, value <= floor, pairs
            pairs += 1
            dim = product_span(a, b).dim
            if dim < value:
                value, a_rows, b_rows = dim, a.rows, b.rows
    return value, a_rows, b_rows, True, pairs
