"""Ground-truth minimum of dim<AB> by enumeration of subspace pairs.

Subspaces are enumerated through their RREF profiles (pivot column set plus
free entries), which visits every subspace exactly once.  The pair search
normalizes both subspaces to contain 1 -- multiplying A by a^-1 and B by b^-1
is an F_p-linear bijection that preserves dim<AB> -- and prunes with a proven
lower bound, so early exit never changes the reported minimum.  When the
pair count exceeds the budget the run is truncated: it scans the A-major
prefix of `budget` pairs and is exact only if it reaches the proven floor.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any

from .fields import ExtensionField
from .kappa import divisors, kappa_rs
from .linalg import Subspace, _ech_insert_bits, _ech_insert_modp, span


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


def pivot_profiles(n: int, r: int, containing_one: bool = False):
    """RREF profiles: (pivot columns, free cells).  Each r-dim subspace matches
    exactly one profile with one assignment of F_p values to the free cells."""
    for pivots in itertools.combinations(range(n), r):
        if containing_one and pivots[0] != 0:
            continue
        pivset = set(pivots)
        free = [(i, j)
                for i, pi in enumerate(pivots)
                for j in range(pi + 1, n)
                if j not in pivset and not (containing_one and i == 0)]
        yield pivots, free


def enumerate_subspaces(field: ExtensionField, r: int, containing_one: bool = False):
    """Yield each r-dimensional subspace exactly once, in deterministic
    profile order.  With containing_one, restrict to subspaces containing 1
    (the pivot-0 row is then forced to be the vector 1 itself)."""
    n = field.n
    if r < 0 or r > n:
        raise ValueError(f"r={r} out of range [0, {n}]")
    if r == 0:
        yield Subspace(field, (), ())
        return
    p = field.p
    if p == 2:
        for pivots, free in pivot_profiles(n, r, containing_one):
            base = [1 << pi for pi in pivots]
            for values in itertools.product((0, 1), repeat=len(free)):
                rows = base.copy()
                for (i, j), val in zip(free, values):
                    if val:
                        rows[i] |= 1 << j
                yield Subspace(field, tuple(rows), pivots)
    else:
        ppows = [p ** i for i in range(n)]
        for pivots, free in pivot_profiles(n, r, containing_one):
            base = [ppows[pi] for pi in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = base.copy()
                for (i, j), val in zip(free, values):
                    if val:
                        rows[i] += val * ppows[j]
                yield Subspace(field, tuple(rows), pivots)


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


def product_dim_capped(field: ExtensionField, arows, brows, cap: int) -> int:
    """dim of span{a*b} computed incrementally; returns cap as soon as the
    running rank reaches it (the exact value is only needed below cap)."""
    mul = field.mul
    if field.p == 2:
        acc: list[int] = []
        dim = 0
        for x in arows:
            for y in brows:
                dim += _ech_insert_bits(acc, mul(x, y))
                if dim >= cap:
                    return cap
        return dim
    coeffs = field.coeffs
    p = field.p
    acc2: list[list[int]] = []
    pivots: list[int] = []
    for x in arows:
        for y in brows:
            if _ech_insert_modp(acc2, pivots, list(coeffs(mul(x, y))), p) and len(acc2) >= cap:
                return cap
    return len(acc2)


@dataclass(frozen=True)
class SearchOptions:
    budget: int = 10 ** 9          # max pairs examined before truncating
    workers: int = 1
    canonicalize: bool = True      # restrict to subspaces containing 1
    use_kappa_floor: bool = True   # prune at the proven lower bound


@dataclass(frozen=True)
class MuResult:
    value: int
    witness_a: Any                 # Subspace, or element tuple for groups
    witness_b: Any
    exhaustive: bool               # exact minimum (False when budget-truncated)
    pairs_examined: int


# Most subspace rows a scan may hold in memory (the B list, plus the A list
# when the scan is split across worker processes).
MAX_HELD_ROWS = 2 ** 20


def _scan(field, a_rows, b_list, floor, budget):
    """First pair, in A-major order, with the least capped product dimension.

    Returns (value, a_rows, b_rows, pairs examined).  Stops as soon as the
    value reaches `floor` or `budget` pairs have been examined."""
    best = field.n + 1
    best_a = best_b = None
    processed = 0
    for ar in a_rows:
        for br in b_list:
            d = product_dim_capped(field, ar, br, best)
            processed += 1
            if d < best:
                best, best_a, best_b = d, ar, br
            if best <= floor or processed >= budget:
                return best, best_a, best_b, processed
    return best, best_a, best_b, processed


# Worker globals, set once per process by the pool initializer.
_W: dict = {}


def _init_worker(p, n, modulus, a_list, b_list, floor, budget):
    _W.update(field=ExtensionField(p, n, modulus), a=a_list, b=b_list,
              floor=floor, budget=budget)


def _scan_chunk(bounds):
    start, end = bounds
    return _scan(_W["field"], _W["a"][start:end], _W["b"], _W["floor"], _W["budget"])


def mu_exact(field: ExtensionField, r: int, s: int,
             options: SearchOptions | None = None) -> MuResult:
    """Exact minimum of dim<AB> over all pairs with dim A = r, dim B = s.

    When the number of pairs exceeds the budget the run is truncated: it
    scans the A-major prefix of `budget` pairs and reports exhaustive=True
    only if that prefix reaches the proven floor.  Otherwise the reported
    value is the exact minimum even when floor pruning stops the scan early.
    Raises ValueError when the scan would hold more than MAX_HELD_ROWS
    subspaces in memory.
    """
    opts = options or SearchOptions()
    n, p = field.n, field.p
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"r={r}, s={s} must lie in [1, {n}]")
    if opts.budget < 1:
        raise ValueError("budget must be >= 1")
    floor = (kappa_rs(r, s, divisors(n)).value if opts.use_kappa_floor
             else max(r, s))

    def count(k):
        if opts.canonicalize:
            return gaussian_binomial(n - 1, k - 1, p)
        return gaussian_binomial(n, k, p)

    a_count, b_count = count(r), count(s)
    truncated = a_count * b_count > opts.budget
    parallel = opts.workers > 1 and not truncated
    held = min(b_count, opts.budget) + (a_count if parallel else 0)
    if held > MAX_HELD_ROWS:
        raise ValueError(f"the scan would hold {held} subspaces, more than "
                         f"{MAX_HELD_ROWS}; lower the budget")

    b_list = [sp.rows for sp in
              itertools.islice(enumerate_subspaces(field, s, opts.canonicalize),
                               opts.budget)]
    a_rows = (sp.rows for sp in enumerate_subspaces(field, r, opts.canonicalize))
    if parallel:
        best, best_a, best_b, processed = _scan_parallel(
            field, list(a_rows), b_list, floor, opts.budget, opts.workers)
    else:
        best, best_a, best_b, processed = _scan(field, a_rows, b_list, floor,
                                                opts.budget)
    return MuResult(value=best,
                    witness_a=span(field, best_a),
                    witness_b=span(field, best_b),
                    exhaustive=not truncated or best <= floor,
                    pairs_examined=processed)


def _scan_parallel(field, a_list, b_list, floor, budget, workers):
    chunk = max(1, -(-len(a_list) // (workers * 4)))
    bounds = [(k, min(k + chunk, len(a_list))) for k in range(0, len(a_list), chunk)]
    best = field.n + 1
    best_a = best_b = None
    processed = 0
    ctx = get_context()
    # The chunking follows the requested worker count, so results do not
    # depend on how many processes the machine can run.
    with ctx.Pool(min(workers, len(bounds), os.cpu_count() or 1),
                  initializer=_init_worker,
                  initargs=(field.p, field.n, field.modulus, a_list, b_list,
                            floor, budget)) as pool:
        # Consuming chunk results in submission order makes the reduction
        # independent of scheduling.
        for value, ar, br, done in pool.imap(_scan_chunk, bounds):
            processed += done
            if value < best:
                best, best_a, best_b = value, ar, br
            if best <= floor:
                pool.terminate()
                break
    return best, best_a, best_b, processed


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
