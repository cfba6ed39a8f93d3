"""Reference implementations, for comparison in tests.

The stabilizer by plain linear algebra: H = {x : x*V in V} is the
intersection, over the basis rows w of V, of the solution spaces of the
linear condition x*w in V.  Each solution space is a left kernel, and the
spaces are met by Zassenhaus intersection.  This makes no use of the fact
that H is a subfield, so it checks the subfield-lattice stabilizer in the
library independently.

The group subset minimum by a plain double loop, with no pruning and no
early exit, checks the library's branch-and-bound search.  The group swap
descent as first written, which rebuilds its masks every sweep and evaluates
every probe, checks the library's descent, which keeps its masks across
moves and skips the probes that cannot win.  The field minimum by a plain
double loop over subspace pairs, with full product spans, checks the
library's depth-first walk over B's rows: its value, witnesses, exact flag
and pair count.

Row reduction by the list-based elimination the library used before its
pivot-indexed echelon basis: an ascending-pivot list of rows, kept sorted by
insertion.  It checks `span` and `Subspace.reduce`, and gives `intersect` an
elimination that is not the one under test.

A subspace's orbit under scaling and Frobenius, `orbit_brute`, scales by
every nonzero element of it with the field arithmetic below.  It checks the
library's orbits, which scale by one point per line and read each image from
the exp/log tables.

Subgroup orders by trying every subset for closure under the product, which
checks the library's generator-by-generator closure search.

Helpers the library itself does not need: the field operations `scale`,
`add`, `neg` and `multiplicative_order`, the trace form `trace` and the
trace dual `trace_dual`; the subspaces `whole_space`, `one_subspace` and
`random_span` and the sum `sum_with`; `group_to_json`, the inverse of
`group_from_json`; and the golden-file harness `check_golden` and
`write_golden`.

Field arithmetic of its own, on coefficient lists (low degree first) for odd
p and bit by bit on coefficient bitmasks for p = 2: the product of two
elements by schoolbook multiplication and long division by the modulus, and
the field tables built from it as the library first built them (coordinates
by repeated divmod, each power of the primitive element by one
multiplication of the previous power).  Irreducibility by sieving: the monic irreducibles of degree n are
the monic polynomials of degree n that are no product of two monic
polynomials of lower degree.
"""

import json
import random
from bisect import insort
from itertools import combinations

from subspace_products.fields import prime_factors
from subspace_products.linalg import Subspace, span
from subspace_products.products import StabilizerReport, product_span
from subspace_products.search import MuResult, enumerate_subspaces


def _digits(v, p, n):
    """The base-p digits of v, low first: an element index's coordinates."""
    cs = []
    for _ in range(n):
        v, c = divmod(v, p)
        cs.append(c)
    return cs


def _index(cs, p):
    return sum(c * p ** i for i, c in enumerate(cs))


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
    return tuple(_index(v, field.p) for v in reduced)


def reduce_against(field, rows, elem) -> int:
    """Remainder of elem against canonical RREF rows."""
    if field.p == 2:
        return _reduce_bits(rows, elem)
    coeffs = [field.coeffs(r) for r in rows]
    pivots = [next(j for j, c in enumerate(cs) if c) for cs in coeffs]
    v = _reduce_modp(coeffs, pivots, list(field.coeffs(elem)), field.p)
    return _index(v, field.p)


def scale(field, c, a):
    """The element a times the base-field scalar c (an int mod p)."""
    p = field.p
    return _index([c * x % p for x in field.coeffs(a)], p)


def add(field, a, b):
    """The sum a + b: XOR over F_2, coordinate-wise mod p otherwise."""
    if field.p == 2:
        return a ^ b
    p = field.p
    return _index([(x + y) % p for x, y in zip(field.coeffs(a), field.coeffs(b))], p)


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


def random_span(field, rng, k) -> Subspace:
    """The span of k elements drawn from `rng`."""
    return span(field, [rng.randrange(field.q) for _ in range(k)])


def whole_space(field) -> Subspace:
    return span(field, [field.p ** i for i in range(field.n)])


def one_subspace(field) -> Subspace:
    return span(field, [1])


def sum_with(u: Subspace, v: Subspace) -> Subspace:
    """The subspace sum U + V."""
    u._check_ambient(v)
    return span(u.field, u.rows + v.rows)


def group_to_json(group) -> str:
    """The group as a `--group-file` JSON object."""
    return json.dumps({"name": group.name, "order": group.order,
                       "identity": group.identity,
                       "cayley": [list(row) for row in group.cayley]})


def check_golden(path, cases, compute):
    """Assert that compute(cache, case), for each case in order, equals the
    row pinned for it in the JSON list at `path`; the cases share one dict
    `cache`, in which compute keeps the fields or groups it builds."""
    expected = json.loads(path.read_text())
    cache = {}
    got = [compute(cache, case) for case in cases]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e, (g[0], g[1:], e[1:])


def write_golden(path, cases, compute, **dumps):
    """Rewrite the golden file at `path` that check_golden reads: a JSON list
    with one row per line, each row json.dumps(compute(cache, case), **dumps)."""
    cache = {}
    rows = [json.dumps(compute(cache, case), **dumps) for case in cases]
    path.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(rows)} cases to {path}")


def poly_mul(a, b, p):
    """The product of two coefficient lists over F_p."""
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    return res


def poly_mul_mod(a, b, modulus, p):
    """a*b reduced by the monic `modulus`, as a list of len(modulus) - 1."""
    n = len(modulus) - 1
    res = poly_mul(a, b, p)
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(n):
                if modulus[j]:
                    res[i - n + j] = (res[i - n + j] - c * modulus[j]) % p
    return (res + [0] * n)[:n]


def mul(field, a, b):
    """The product of two element indices."""
    p, n = field.p, field.n
    if p == 2:   # the same on coefficient bitmasks, bit by bit
        f = _index(field.modulus, 2)
        acc = 0
        for i in range(n):
            if b >> i & 1:
                acc ^= a << i
        for i in range(2 * n - 2, n - 1, -1):
            if acc >> i & 1:
                acc ^= f << i - n
        return acc
    return _index(poly_mul_mod(_digits(a, p, n), _digits(b, p, n), field.modulus, p), p)


def power(field, a, e):
    """a^e by square-and-multiply with `mul`."""
    result = 1
    while e:
        if e & 1:
            result = mul(field, result, a)
        e >>= 1
        a = mul(field, a, a)
    return result


def orbit_brute(field, rows) -> set:
    """Canonical RREF rows (by `rref_rows`) of every image (x/a)^(p^k), x in
    A = span(rows), for every nonzero a of A, listed by its coordinates, and
    0 <= k < n; each image is multiplied with `mul` and raised with `power`."""
    p, q = field.p, field.q
    elements = [0]
    for row in rows:
        elements = [add(field, e, scale(field, c, row)) for e in elements for c in range(p)]
    images = set()
    for a in elements[1:]:
        a_inv = power(field, a, q - 2)
        image = [mul(field, x, a_inv) for x in rows]
        for _ in range(field.n):
            images.add(rref_rows(field, image))
            image = [power(field, x, p) for x in image]
    return images


def trace(field, x):
    """Tr(x) = x + x^p + ... + x^(p^(n-1)) by `add` and `power`: an index below p."""
    t = 0
    for _ in range(field.n):
        t = add(field, t, x)
        x = power(field, x, field.p)
    return t


def trace_dual(field, rows, traces) -> set:
    """W^perp = {y : Tr(w*y) = 0 for every row w of W}, every element tried;
    `traces` lists Tr of every element index."""
    return {y for y in range(field.q) if not any(traces[mul(field, w, y)] for w in rows)}


def monic_irreducibles(p, n):
    """The set of monic irreducible coefficient tuples of degree n over F_p."""
    def monic(d):
        return [tuple(_digits(v, p, d)) + (1,) for v in range(p ** d)]

    reducible = {tuple(poly_mul(a, b, p)) for d in range(1, n // 2 + 1)
                 for a in monic(d) for b in monic(n - d)}
    return {f for f in monic(n) if f not in reducible}


def has_root(coeffs, p):
    """Whether the polynomial has a root in F_p: Horner at every x at once."""
    values = [coeffs[-1]] * p
    for c in reversed(coeffs[:-1]):
        values = [(v * x + c) % p for x, v in enumerate(values)]
    return 0 in values


def field_tables(field):
    """(primitive, exp, log, coordinate cache) of `field`, built with
    `mul`.  The primitive element is the least g whose power (q-1)/f differs
    from 1 for every prime f dividing q - 1.  The exp and log tables exist
    when q <= 2^16, and the coordinate cache also needs an odd p and n > 1;
    each is None otherwise."""
    p, n, q = field.p, field.n, field.q
    cache = None
    if p != 2 and n > 1 and q <= 1 << 16:
        cache = tuple(tuple(_digits(v, p, n)) for v in range(q))
    checks = [(q - 1) // f for f in prime_factors(q - 1)] if q > 2 else []
    primitive = next(g for g in range(1, q)
                     if all(power(field, g, e) != 1 for e in checks))
    if q > 1 << 16:
        return primitive, None, None, cache
    exp = [0] * (q - 1)
    log = [-1] * q
    g = 1
    for k in range(q - 1):
        exp[k] = g
        log[g] = k
        g = mul(field, g, primitive)
    return primitive, exp, log, cache


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
    inter = [_index(row[n:], f.p) for row in reduced if not any(row[:n])]
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


def subgroup_orders_brute(group) -> tuple[int, ...]:
    """Sizes of the nonempty subsets closed under the product, every subset
    tried: in a finite group these are exactly the subgroups."""
    k, cayley = group.order, group.cayley
    sizes = set()
    for mask in range(1, 1 << k):
        elems = [x for x in range(k) if mask >> x & 1]
        if all(mask >> cayley[a][b] & 1 for a in elems for b in elems):
            sizes.add(len(elems))
    return tuple(sorted(sizes))


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


def mu_group_randomized_reference(group, r, s, trials, seed):
    """The swap descent as first written, with none of the library's shortcuts:
    each side's sweep builds its masks (x*B on the A side, A*y on the B side)
    afresh, ORs the rest of the subset for every `out`, and evaluates every
    probe.  Same rng calls, move order and count, so its MuResult must equal
    the library's `mu_group_randomized`."""
    k = group.order
    e = group.identity
    others = [g for g in range(k) if g != e]
    cols = list(zip(*group.bits))
    rng = random.Random(seed)
    best = k + 1
    best_a = best_b = None
    evals = 0
    while evals < trials:
        a_set = {e, *rng.sample(others, r - 1)}
        b_set = {e, *rng.sample(others, s - 1)}
        value = len({group.cayley[a][b] for a in a_set for b in b_set})
        evals += 1
        improved = True
        while improved and evals < trials:
            improved = False
            for subset, bits, other in ((a_set, cols, b_set), (b_set, group.bits, a_set)):
                masks = list(map(sum, zip(*(bits[x] for x in other))))
                cand = [(into, masks[into]) for into in range(k) if into not in subset]
                move = None
                move_value = value
                for out in sorted(subset - {e}):
                    rest = 0
                    for x in subset:
                        if x != out:
                            rest |= masks[x]
                    evals += len(cand)
                    for into, m in cand:
                        v = (rest | m).bit_count()
                        if v < move_value:
                            move_value, move = v, (out, into)
                if move is not None:
                    subset.discard(move[0])
                    subset.add(move[1])
                    value = move_value
                    improved = True
        if value < best:
            best = value
            best_a, best_b = tuple(sorted(a_set)), tuple(sorted(b_set))
    return MuResult(value=best, witness_a=best_a, witness_b=best_b,
                    exhaustive=False, pairs_examined=evals)


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
