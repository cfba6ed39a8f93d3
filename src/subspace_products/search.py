"""Ground-truth minimum of dim<AB> by enumeration of subspace pairs.

Subspaces are enumerated through their RREF profiles (pivot column set plus
free entries), which visits every subspace exactly once; within a profile
each basis row takes its values from a precomputed list, and the subspaces
are the product of those lists.  The pair search normalizes both subspaces
to contain 1 -- multiplying A by a^-1 and B by b^-1 is an F_p-linear
bijection that preserves dim<AB> -- and, for each A, walks B depth first
over its rows: the echelon basis of A*b_0 + ... + A*b_i is shared by every
B that starts with b_0..b_i, and a prefix whose rank already reaches the
best value found is skipped with all its completions, since dim<AB> only
grows with B.  Skipped pairs count as examined, so the value, witnesses and
pair count are those of a pair-by-pair scan.  The search stops at a proven
lower bound, so early exit never changes the reported minimum.  When the
pair count exceeds the budget the run is truncated: it decides the A-major
prefix of `budget` pairs and is exact only if it reaches the proven floor.

The least dim<AB> over B does not change when A, containing 1, becomes
a^-1*A for a nonzero a in A, again a subspace containing 1 with <a^-1*A*B> =
a^-1*<AB>, or its Frobenius image A^p, as <A^p*B^p> = <AB>^p and B -> B^p
permutes the B's containing 1.  So only the first A of each orbit is walked
(isomorph rejection by least representatives: Read, "Every one a winner",
1978; McKay, "Isomorph-free exhaustive generation", 1998); every later A of
the orbit counts its B pairs as decided, since none of them can beat the
value its representative already reached.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any

from .fields import ExtensionField
from .kappa import divisors, kappa_rs
from .linalg import Subspace, echelon_ops, span


def gaussian_binomial(n: int, r: int, p: int) -> int:
    """Number of r-dimensional subspaces of F_p^n."""
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= p ** (n - i) - 1
        den *= p ** (r - i) - 1
    q, rem = divmod(num, den)
    if rem:
        raise AssertionError("Gaussian binomial did not divide exactly")
    return q


def _row_tables(field: ExtensionField, r: int, containing_one: bool = False):
    """Per RREF profile (pivot column set), in profile order: (rows, sizes).
    Each r-dim subspace matches exactly one profile with one assignment of
    F_p values to its free cells, the non-pivot columns right of each row's
    pivot; with containing_one, row 0 is the vector 1 itself (so r = 0 has
    no profile).

    rows[i] lists the values basis row i takes, pivot bit plus every
    assignment of its free cells, and sizes[i] = len(rows[i+1]) * ... *
    len(rows[r-1]) counts the subspaces of the profile that share one choice
    of rows 0..i.  The profile's subspaces are itertools.product(*rows), in
    that order."""
    p, n = field.p, field.n
    for pivots in itertools.combinations(range(n), r):
        if containing_one and pivots[:1] != (0,):
            continue
        rows = []
        for i, pi in enumerate(pivots):
            values = [p ** pi]
            if not (containing_one and i == 0):
                for j in range(pi + 1, n):
                    if j not in pivots:
                        values = [v + c * p ** j for v in values for c in range(p)]
            rows.append(values)
        sizes = [1] * r
        for i in range(r - 2, -1, -1):
            sizes[i] = sizes[i + 1] * len(rows[i + 1])
        yield rows, sizes


def enumerate_subspaces(field: ExtensionField, r: int, containing_one: bool = False):
    """Iterator over each r-dimensional subspace exactly once, in
    deterministic profile order; r is checked at the call.  With
    containing_one, restrict to subspaces containing 1 (the pivot-0 row is
    then forced to be the vector 1 itself, and r = 0 yields nothing)."""
    n = field.n
    if r < 0 or r > n:
        raise ValueError(f"r={r} out of range [0, {n}]")
    return (Subspace(field, combo) for rows, _ in _row_tables(field, r, containing_one)
            for combo in itertools.product(*rows))


def random_subspace(field: ExtensionField, r: int, rng: random.Random,
                    containing_one: bool = False) -> Subspace:
    """Uniformly random r-dimensional subspace (spanning sets of full rank are
    equidistributed over subspaces)."""
    fixed = [1] if containing_one else []
    if not len(fixed) <= r <= field.n:
        raise ValueError(f"r={r} out of range [{len(fixed)}, {field.n}]")
    k = r - len(fixed)
    while True:
        sp = span(field, fixed + [rng.randrange(field.q) for _ in range(k)])
        if sp.dim == r:
            return sp


def _extend(ops, mul, ech, arows, y: int, cap: int):
    """Insert x*y for each x in arows into a copy of the pivot-indexed echelon
    basis `ech` (see linalg) until its rank reaches cap; returns (new basis,
    rank).  The rank is exact when below cap."""
    vector, _, insert, _ = ops
    basis = ech.copy()
    rank = len(basis)
    for x in arows:
        if rank >= cap:
            break
        rank += insert(basis, vector(mul(x, y)))
    return basis, rank


def product_dim_capped(field: ExtensionField, arows, brows, cap: int) -> int:
    """min(dim span{a*b}, cap), built B row by B row; stops as soon as the
    running rank reaches cap (the exact value is only needed below cap)."""
    ops, mul = echelon_ops(field), field.mul
    ech, rank = {}, 0
    for y in brows:
        ech, rank = _extend(ops, mul, ech, arows, y, cap)
        if rank >= cap:
            return cap
    return rank


@dataclass(frozen=True)
class SearchOptions:
    budget: int = 10 ** 9          # max pairs examined before truncating
    use_kappa_floor: bool = True   # prune at the proven lower bound


@dataclass(frozen=True)
class MuResult:
    value: int
    witness_a: Any                 # Subspace, or element tuple for groups
    witness_b: Any
    exhaustive: bool               # exact minimum (False when budget-truncated)
    pairs_examined: int


# Largest scan mu_exact accepts, in subspaces: the B subspaces the budget lets
# it reach.  The scan also counts its set of seen A against it, or runs
# unreduced.
MAX_HELD_ROWS = 2 ** 20


class _Replayed:
    """Iterable over `items` that draws each item on first demand and keeps
    it, so every later pass reuses what earlier passes drew."""

    def __init__(self, items):
        self._items = iter(items)
        self._kept: list = []

    def __iter__(self):
        yield from self._kept
        for item in self._items:
            self._kept.append(item)
            yield item


def _orbit(field, rows) -> set:
    """Row tuples of the canonical subspaces span((x/a)^(p^k) : x in A) for
    nonzero a in A and 0 <= k < n, where A = span(rows) contains 1: A's orbit
    under the unit scalings that keep 1 inside and under Frobenius.  a and c*a
    for c in F_p^* give the same image, so a runs over one point per line."""
    p, n = field.p, field.n
    vector, element = echelon_ops(field)[:2]
    add = int.__xor__ if p == 2 else (lambda u, v: field.lanes.red(u + v))
    # a line's point: its first nonzero row with coefficient 1, plus any
    # combination of the rows after it
    points, tail = [], [0]
    for v in map(vector, reversed(rows)):
        points += [add(v, t) for t in tail]
        tail = [add(t, c * v) for c in range(p) for t in tail]
    orbit: set = set()
    for a in points:
        a_inv = field.inv(element(a))
        image = [field.mul(x, a_inv) for x in rows]
        # `orbit` holds whole Frobenius cycles, so an image already in it
        # ends the cycle: it is a^-1*A itself or its cycle is complete
        for _ in range(n):
            key = span(field, image).rows
            if key in orbit:
                break
            orbit.add(key)
            image = [field.pow(x, p) for x in image]
    return orbit


def _a_rows(field, r, skip):
    """(rows, skipped) for each r-dimensional A containing 1 in enumeration
    order; with `skip`, an A is skipped iff an earlier A lies in its orbit
    (see _orbit).

    Walking A in order, an A not yet seen is the least of its orbit, and its
    orbit is added to `seen` only when the next A is asked for, that is, after
    the scan has walked it: a scan that stops inside its first A computes no
    orbit.  A skipped A is dropped from `seen`, since it never comes again."""
    seen: set = set()
    for sp in enumerate_subspaces(field, r, containing_one=True):
        skipped = sp.rows in seen
        yield sp.rows, skipped
        if skip and not skipped:
            seen |= _orbit(field, sp.rows)
        seen.discard(sp.rows)


def _scan(field, a_rows, b_tables, b_count, floor, budget):
    """First pair, in A-major order, with the least capped product dimension.

    `a_rows` yields (rows, skipped) as _a_rows does.  A skipped A is not
    walked: its `b_count` pairs count as decided, as a skipped subtree's do.
    Its orbit's least member, whose minimum over B is the same, was walked
    before it, so a pair-by-pair scan would have rejected each of its pairs;
    and the first minimal A is the least of its orbit, so it is walked.

    For each other A, B is walked depth first over the rows of `b_tables` (from
    _row_tables), so B's come in enumeration order.  A node at depth i
    holds the echelon basis of A*b_0 + ... + A*b_i, its parent's basis
    extended by A*b_i alone, built with cap = the best value found.  Since
    dim<AB'> only grows with B', a node whose rank reaches that value is
    skipped with its subtree, and its sizes[i] pairs count as examined:
    a pair-by-pair scan would have examined and rejected each of them.  The
    first minimal pair is never skipped, as every prefix of it has rank at
    most its value, so value, witnesses and the pair count are those of the
    pair-by-pair scan.

    Returns (value, a_rows, b_rows, pairs examined).  Stops as soon as the
    value reaches `floor` or `budget` pairs have been examined."""
    ops, mul = echelon_ops(field), field.mul
    best = field.n + 1
    best_a = best_b = None
    processed = 0
    for ar, skipped in a_rows:
        if skipped:
            processed += b_count
            if processed >= budget:
                return best, best_a, best_b, budget
            continue
        for rows, sizes in b_tables:
            last = len(rows) - 1
            path = [0] * len(rows)
            stack = [({}, iter(rows[0]))]   # (parent's basis, values left for this row)
            while stack:
                depth = len(stack) - 1
                ech, values = stack[-1]
                y = next(values, 0)       # row values are never 0
                if not y:
                    stack.pop()
                    continue
                path[depth] = y
                child, rank = _extend(ops, mul, ech, ar, y, best)
                if rank >= best:
                    processed += sizes[depth]
                elif depth < last:
                    stack.append((child, iter(rows[depth + 1])))
                    continue
                else:
                    processed += 1
                    best, best_a, best_b = rank, ar, tuple(path)
                if best <= floor or processed >= budget:
                    return best, best_a, best_b, min(processed, budget)
    return best, best_a, best_b, processed


def mu_exact(field: ExtensionField, r: int, s: int,
             options: SearchOptions | None = None) -> MuResult:
    """Exact minimum of dim<AB> over all pairs with dim A = r, dim B = s.
    Only subspaces containing 1 are scanned (see the module docstring), so
    both witnesses contain 1.

    When the number of pairs exceeds the budget the run is truncated: it
    scans the A-major prefix of `budget` pairs and reports exhaustive=True
    only if that prefix reaches the proven floor.  Otherwise the reported
    value is the exact minimum even when floor pruning stops the scan early.
    Raises ValueError when the scan would reach more than MAX_HELD_ROWS
    subspaces of B.  The scan skips orbit members (see _scan) only while its
    set of seen A, up to the number of A, fits under that limit as well;
    results are the same either way.
    """
    opts = options or SearchOptions()
    n, p = field.n, field.p
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"r={r}, s={s} must lie in [1, {n}]")
    if opts.budget < 1:
        raise ValueError("budget must be >= 1")
    floor = (kappa_rs(r, s, divisors(n)).value if opts.use_kappa_floor
             else max(r, s))

    a_count, b_count = (gaussian_binomial(n - 1, k - 1, p) for k in (r, s))
    truncated = a_count * b_count > opts.budget
    held = min(b_count, opts.budget)
    if held > MAX_HELD_ROWS:
        raise ValueError(f"the scan would hold {held} subspaces, more than "
                         f"{MAX_HELD_ROWS}; lower the budget")

    # a single A (r = 1 or r = n) has no other orbit member to skip
    skip = 1 < r < n and held + a_count <= MAX_HELD_ROWS
    # Each profile's row table is built when the first A reaches it.
    b_tables = _Replayed(_row_tables(field, s, containing_one=True))
    best, best_a, best_b, processed = _scan(field, _a_rows(field, r, skip), b_tables,
                                            b_count, floor, opts.budget)
    return MuResult(value=best,
                    witness_a=span(field, best_a),
                    witness_b=span(field, best_b),
                    exhaustive=not truncated or best <= floor,
                    pairs_examined=processed)


def mu_randomized(field: ExtensionField, r: int, s: int, trials: int,
                  seed: int) -> MuResult:
    """Minimum of dim<AB> over `trials` uniformly sampled pairs of subspaces
    containing 1.  Upper bound only; seed-reproducible."""
    n = field.n
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"r={r}, s={s} must lie in [1, {n}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    best = n + 1
    best_a = best_b = None
    for _ in range(trials):
        a_sp = random_subspace(field, r, rng, containing_one=True)
        b_sp = random_subspace(field, s, rng, containing_one=True)
        d = product_dim_capped(field, a_sp.rows, b_sp.rows, best)
        if d < best:
            best, best_a, best_b = d, a_sp, b_sp
    return MuResult(value=best, witness_a=best_a, witness_b=best_b,
                    exhaustive=False, pairs_examined=trials)
