"""Ground-truth minimum of dim<AB> by enumeration of subspace pairs.

Subspaces are enumerated through their RREF profiles, each exactly once (see
_row_tables).  The pair search normalizes both subspaces to contain 1 --
multiplying A by a^-1 and B by b^-1 is an F_p-linear bijection that
preserves dim<AB> -- and, for each A, walks B depth first over its rows: the
echelon basis of A*b_0 + ... + A*b_i is shared by every B that starts with
b_0..b_i, and a prefix whose rank already reaches the best value found is
skipped with all its completions, since dim<AB> only grows with B.  Every
prefix of the first minimal pair has rank at most its value, so that pair is
never skipped, and skipped pairs count as examined: the value, witnesses and
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
value its representative already reached, and the first minimal A is the
least of its orbit, so it is walked.  The field keeps the walked A (see
_a_rows) and the row tables (see _profiles) for later scans.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any

from .fields import ExtensionField
from .kappa import check_rs, divisors, kappa_rs
from .linalg import Subspace, span


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


def _row_tables(field: ExtensionField, r: int, containing_one: bool = False, start: int = 0):
    """Per RREF profile (pivot column set), in profile order: (rows, sizes).
    Each r-dim subspace matches exactly one profile with one assignment of
    F_p values to its free cells, the non-pivot columns right of each row's
    pivot; with containing_one, row 0 is the vector 1 itself (so r = 0 has
    no profile).  The first `start` profiles are passed over unbuilt, so
    that a kept prefix is resumed where it ends (see _profiles).

    rows[i] lists the values basis row i takes, pivot bit plus every
    assignment of its free cells, and sizes[i] = len(rows[i+1]) * ... *
    len(rows[r-1]) counts the subspaces of the profile that share one choice
    of rows 0..i.  The profile's subspaces are itertools.product(*rows), in
    that order.  Raises ValueError, whatever `start`, before it builds any
    row, when one profile's rows would take more than MAX_HELD_ROWS values."""
    p, n = field.p, field.n
    # the first profile (pivots 0..r-1) has the most free cells in every row
    total = (r - 1 if containing_one else r) * p ** (n - r)
    if total > MAX_HELD_ROWS:
        raise ValueError(f"an RREF profile takes {total} values, more than {MAX_HELD_ROWS}")
    lead = (0,) if containing_one else ()
    if r < len(lead):
        return
    for rest in itertools.islice(itertools.combinations(range(len(lead), n), r - len(lead)),
                                 start, None):
        pivots = lead + rest
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
    containing_one, only those containing 1 (see _row_tables)."""
    n = field.n
    if r < 0 or r > n:
        raise ValueError(f"r={r} out of range [0, {n}]")
    return (Subspace(field, combo) for rows, _ in _row_tables(field, r, containing_one)
            for combo in itertools.product(*rows))


def _draw(field: ExtensionField, fixed: list, k: int, rng: random.Random):
    """(rows, basis): rows = fixed + k elements, drawn before the rank check
    and all again until independent, and their echelon basis in the field's
    row form.  An element is getrandbits(q.bit_length()), drawn again while
    >= q: the rule and calls of rng.randrange(q), so the same stream."""
    vector, insert, q = field.vector, field.insert, field.q
    bits, width, size = rng.getrandbits, q.bit_length(), len(fixed) + k
    while True:
        rows = fixed[:]
        while len(rows) < size:
            x = bits(width)
            if x < q:
                rows.append(x)
        basis: dict = {}
        for v in map(vector, rows):
            if not insert(basis, v):
                break
        else:
            return rows, basis


def random_subspace(field: ExtensionField, r: int, rng: random.Random) -> Subspace:
    """Uniformly random r-dimensional subspace (spanning sets of full rank are
    equidistributed over subspaces): the RREF of r independent elements drawn
    uniformly (see _draw)."""
    if not 0 <= r <= field.n:
        raise ValueError(f"r={r} out of range [0, {field.n}]")
    return Subspace(field, field.rref(_draw(field, [], r, rng)[1]))


def product_dim_capped(field: ExtensionField, arows, brows, cap: int, basis=None,
                       rank: int = 0) -> int:
    """min(cap, rank of `basis`, given as `rank` and empty when omitted, once
    x*y = mul(x, y) for x in arows, y in brows are inserted y by y); stops
    when the rank reaches cap.  `basis` is extended in place."""
    mul, vector, insert = field.mul, field.vector, field.insert
    if basis is None:
        basis = {}
    for y in brows:
        for x in arows:
            if rank >= cap:
                return cap
            rank += insert(basis, vector(mul(x, y)))
    return min(rank, cap)


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


# Most values in the basis rows of one RREF profile (see _row_tables), in a
# field's kept profiles of one dimension (see _profiles), and most rows in the
# scan's set of seen A (see _a_rows).
MAX_HELD_ROWS = 2 ** 20


def _profiles(field, k):
    """The profiles of _row_tables(field, k, containing_one=True) in order, as
    (rows, sizes, held), through field.row_tables[k], which every consumer of
    that field and k shares: A's enumeration (k = r) and each walked A's B
    loop (k = s), both on one list when r = s.  held counts the values in
    the rows of that profile and of every profile before it.

    The list holds the profiles drawn so far, which depend only on the field
    and k, so keeping them changes no result.  A consumer reads it first,
    then draws each profile past it and appends it while held stays at most
    MAX_HELD_ROWS; past that the list stops growing and every consumer
    streams on past it.  A consumer whose next profile another one has
    appended meanwhile reads it from the list, so none is appended twice.
    Nothing is drawn before a consumer asks for it, so a stopped scan keeps
    what it drew, and a later scan draws only the profiles past it.  A list
    drawn to its end becomes a tuple, which is returned itself."""
    kept = field.row_tables.setdefault(k, [])
    return kept if type(kept) is tuple else _drawn(field, k, kept)


def _drawn(field, k, kept):
    """_profiles of a list not yet drawn to its end."""
    i = 0
    while True:
        while i < len(kept):
            yield kept[i]
            i += 1
        held = kept[-1][2] if kept else 0
        for rows, sizes in _row_tables(field, k, True, i):
            held += sum(map(len, rows))
            if held <= MAX_HELD_ROWS:
                kept.append((rows, sizes, held))
            yield rows, sizes, held
            i += 1
            if i < len(kept):                   # another consumer drew ahead
                break
        else:
            if i == len(kept):
                field.row_tables[k] = tuple(kept)
            return


def _orbit(field, rows) -> set:
    """Row tuples of the canonical subspaces span((x/a)^(p^k) : x in A) for
    nonzero a in A and 0 <= k < n, where A = span(rows) contains 1: A's orbit
    under the unit scalings that keep 1 inside and under Frobenius.  a and c*a
    for c in F_p^* give the same image, so a runs over one point per line.
    With exp/log tables, (x/a)^(p^k) is exp[log x * p^k - log a * p^k], each
    product mod q - 1 and a negative index wrapping as in _scan, so one
    field.extend builds an image from A's logs; else inv, mul and pow do."""
    p, n, vector, add, rref = field.p, field.n, field.vector, field.add, field.rref
    # a line's point: its first nonzero row with coefficient 1, plus any
    # combination of the rows after it
    points, tail = [], [0]
    for v in map(vector, reversed(rows)):
        points += [add(v, t) for t in tail]
        tail = [add(t, c * v) for c in range(p) for t in tail]
    tables, qm1 = field.log_tables(), field.q - 1
    if tables is not None:
        exp, log = tables
        logs = [[log[x] * p ** k % qm1 for x in rows] for k in range(n)]
    orbit: set = set()
    for a in map(field.element, points):
        if tables is None:
            a_inv = field.inv(a)
            image = [field.mul(x, a_inv) for x in rows]
        # `orbit` holds whole Frobenius cycles, so an image already in it
        # ends the cycle: it is a^-1*A itself or its cycle is complete
        for k in range(n):
            basis: dict = {}
            if tables is None:
                for v in map(vector, image):
                    field.insert(basis, v)
            else:
                field.extend(basis, exp, logs[k], -(log[a] * p ** k % qm1), 0, n)
            key = rref(basis)
            if key in orbit:
                break
            orbit.add(key)
            if tables is None:
                image = [field.pow(x, p) for x in image]
    return orbit


def _a_rows(field, r):
    """(skipped, rows) for each r-dimensional A containing 1 that the scan
    walks, in enumeration order (see _profiles), where `skipped` counts the A
    just before it that are not walked; a last entry (skipped, None) counts
    those after the last walked A.  An A is skipped iff an earlier A lies in
    its orbit (see _orbit).  A caller counts a run's pairs in one step, with
    its budget checked after it: nothing changes between two skipped A, so
    this returns what a check after each of them would.

    Walking A in order, an A not yet seen is the least of its orbit, and its
    orbit is added to `seen` only when the next entry is asked for, that is,
    after the scan has walked it: a scan that stops inside its first A
    computes no orbit.  A skipped A is dropped from `seen`, since it never
    comes again.

    The entries depend only on the field and r, so keeping them changes no
    result.  Once the caller has asked past the last one, their list is kept
    in field.orbit_skips[r], and a later call returns that list, enumerating
    no A and building no orbit.  A scan stopped by its floor or budget keeps
    nothing, and a new field object starts with none.  With more A than
    MAX_HELD_ROWS, which `seen` could reach, every A is walked and the list
    is neither read nor kept."""
    skip = gaussian_binomial(field.n - 1, r - 1, field.p) <= MAX_HELD_ROWS
    runs = field.orbit_skips.get(r) if skip else None
    return _runs(field, r, skip) if runs is None else runs


def _runs(field, r, skip):
    """_a_rows of a first scan: every A enumerated, with orbits iff skip."""
    runs, seen, skipped = [], set(), 0
    for rows, _, _ in _profiles(field, r):
        for ar in itertools.product(*rows):
            if ar in seen:
                seen.discard(ar)
                skipped += 1
                continue
            yield skipped, ar
            if skip:
                runs.append((skipped, ar))
                seen |= _orbit(field, ar)
                seen.discard(ar)
            skipped = 0
    yield skipped, None
    if skip:
        runs.append((skipped, None))
        field.orbit_skips[r] = runs


def _scan(field, r, s, cap, floor, budget):
    """First pair, in A-major order, of r-dim A and s-dim B containing 1 with
    the least capped product dimension, by the walk of the module docstring:
    each walked A after its run of skipped A (see _a_rows), B over the
    profiles the field keeps (see _profiles).

    A node at depth i holds its parent's basis extended by A*b_i alone,
    built with cap = the best value found; a node that reaches it is cut and
    its sizes[i] pairs count as examined.  The root, b_0 = 1, holds A's own
    basis, of rank r, built once per walked A and copied by every row-1 node
    of every profile; the root is cut when r reaches the best value, and is
    the leaf when s = 1.

    On a field without exp/log tables (q > 2^16) a node is one capped insert
    loop (see product_dim_capped).  Otherwise each walked A's rows are taken
    to their logs once, and a node is one field.extend call with x*y =
    exp[log x + log y - (q - 1)]: the index lies in [-(q - 1), q - 3], and a
    negative one wraps to the same power of the primitive element.

    Returns (value, a_rows, b_rows, pairs examined, exhaustive), with `cap`
    as the best value at the start: a scan that returns cap with no witness
    proves dim<AB> >= cap for every pair.  cap must exceed `floor`, else the
    scan stops at its first node (kappa = max(r, s) is trivial).  It stops
    once the value reaches `floor` or `budget` pairs are examined, and
    exhaustive is False only when the budget stops it first."""
    a_count, b_count = (gaussian_binomial(field.n - 1, k - 1, field.p) for k in (r, s))
    whole = a_count * b_count <= budget
    vector, insert, tables = field.vector, field.insert, field.log_tables()
    if tables is not None:
        exp, log = tables
        extend, qm1 = field.extend, field.q - 1
    best, best_a, best_b = cap, None, None
    processed = 0
    path = [1] * s                  # b_0 = 1 in every profile
    for skipped, ar in _a_rows(field, r):
        processed += skipped * b_count
        if processed >= budget:
            return best, best_a, best_b, budget, whole
        if ar is None:              # asking past the last entry keeps the list
            continue
        if tables is not None:
            logs = [log[x] for x in ar]
        a_basis: dict = {}
        for v in map(vector, ar):
            insert(a_basis, v)
        for rows, sizes, _ in _profiles(field, s):
            if r >= best:
                processed += sizes[0]
            elif s == 1:
                processed += 1
                best, best_a, best_b = r, ar, tuple(path)
            else:
                # a frame walks row `depth` from its parent's basis
                stack = [(a_basis, iter(rows[1]))]
                while stack:
                    ech, values = stack[-1]
                    depth = len(stack)
                    for y in values:
                        path[depth] = y
                        basis = ech.copy()
                        if tables is None:
                            rank = product_dim_capped(field, ar, (y,), best, basis, len(basis))
                        else:
                            rank = extend(basis, exp, logs, log[y] - qm1, len(basis), best)
                        if rank >= best:
                            processed += sizes[depth]
                        elif depth < s - 1:
                            stack.append((basis, iter(rows[depth + 1])))
                            break
                        else:
                            processed += 1
                            best, best_a, best_b = rank, ar, tuple(path)
                        if best <= floor or processed >= budget:
                            return (best, best_a, best_b, min(processed, budget),
                                    whole or best <= floor)
                    else:
                        stack.pop()
            # a walk that runs to its end met neither stop, so only the root's
            # cut or leaf can stop the scan here
            if best <= floor or processed >= budget:
                return best, best_a, best_b, min(processed, budget), whole or best <= floor
    return best, best_a, best_b, processed, True   # every pair decided


def mu_exact(field: ExtensionField, r: int, s: int,
             options: SearchOptions | None = None) -> MuResult:
    """Exact minimum of dim<AB> over all pairs with dim A = r, dim B = s, by
    _scan over the subspaces containing 1, so both witnesses contain 1; the
    budget may truncate it (see the module docstring).  Raises ValueError
    before the first pair when the rows of one RREF profile of A or B take
    more than MAX_HELD_ROWS values.
    """
    opts = options or SearchOptions()
    check_rs(r, s, field.n)
    if opts.budget < 1:
        raise ValueError("budget must be >= 1")
    floor = (kappa_rs(r, s, divisors(field.n)).value if opts.use_kappa_floor
             else max(r, s))
    best, best_a, best_b, processed, exhaustive = _scan(field, r, s, field.n + 1, floor,
                                                        opts.budget)
    # A's rows and B's are paths through row tables, so both are canonical
    # RREF already
    return MuResult(value=best, witness_a=Subspace(field, best_a),
                    witness_b=Subspace(field, best_b), exhaustive=exhaustive,
                    pairs_examined=processed)


def mu_randomized(field: ExtensionField, r: int, s: int, trials: int,
                  seed: int) -> MuResult:
    """Minimum of dim<AB> over `trials` uniformly sampled pairs of subspaces
    containing 1, each drawn by _draw as a spanning list of 1 and independent
    uniform elements.  A's drawn basis spans A*1 and is the root that B's
    later rows extend (see product_dim_capped); only the reported witnesses
    are put in RREF.  Upper bound only; seed-reproducible; `pairs_examined`
    is `trials`."""
    check_rs(r, s, field.n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    best, best_a, best_b = field.n + 1, None, None
    for _ in range(trials):
        a, a_basis = _draw(field, [1], r - 1, rng)
        b = _draw(field, [1], s - 1, rng)[0]
        d = product_dim_capped(field, a, b[1:], best, a_basis, r)
        if d < best:
            best, best_a, best_b = d, a, b
    return MuResult(value=best, witness_a=span(field, best_a), witness_b=span(field, best_b),
                    exhaustive=False, pairs_examined=trials)
