"""Finite groups as Cayley tables: subgroup orders and subset-product minima.

Subsets are bitmasks over element indices (orders up to 64).  A product set
is the OR of translate masks (see _masks), so an |AB| evaluation is a few
ORs and one bit count.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from .kappa import AdmissibleDegreeSet, KappaResult, check_rs, kappa_rs
from .search import MuResult

MAX_ORDER = 64


def _check_order(order: int) -> None:
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"group order must be in [1, {MAX_ORDER}], got {order}")


def _closure(cayley, gens, identity) -> frozenset:
    """The subgroup generated by gens: a walk from the identity that multiplies
    each newly reached element by each generator once.  In a finite group every
    inverse is a positive power, so the products reached are the subgroup."""
    elems = {identity}
    frontier = [identity]
    while frontier:
        row = cayley[frontier.pop()]
        for g in gens:
            c = row[g]
            if c not in elems:
                elems.add(c)
                frontier.append(c)
    return frozenset(elems)


def subgroup_orders_of(cayley, identity) -> tuple[int, ...]:
    """Orders of all subgroups, by closure enumeration over added generators:
    H joins one g per right coset Hg, since <H, xg> = <H, g> for x in H; H is
    queued with the generators that built it, so <H, g> is their closure with g.
    By Lagrange every order divides |G|, so the walk stops once each divisor is seen."""
    order = len(cayley)
    trivial = frozenset({identity})
    seen = {trivial}
    unseen = {d for d in range(2, order + 1) if order % d == 0}
    queue = [(trivial, ())]
    while queue and unseen:
        h, gens = queue.pop()
        covered = set(h)
        for g in range(order):
            if g in covered:
                continue
            covered.update(cayley[x][g] for x in h)
            h2 = _closure(cayley, (*gens, g), identity)
            if h2 not in seen:
                seen.add(h2)
                unseen.discard(len(h2))
                queue.append((h2, (*gens, g)))
    return tuple(sorted({len(h) for h in seen}))


@dataclass(frozen=True)
class GroupSpec:
    name: str
    order: int
    identity: int
    cayley: tuple[tuple[int, ...], ...]
    subgroup_orders: tuple[int, ...]
    bits: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(tuple(1 << v for v in row) for row in self.cayley))

    @classmethod
    def from_cayley(cls, cayley, name: str = "custom") -> "GroupSpec":
        """Validate a list of rows of ints (no bool, float or null) as a group."""
        if not (isinstance(cayley, list) and all(
                isinstance(row, list) and all(type(x) is int for x in row) for row in cayley)):
            raise ValueError("Cayley table must be a list of rows of integers")
        table = tuple(tuple(row) for row in cayley)
        order = len(table)
        _check_order(order)
        rng = range(order)
        if any(len(row) != order or any(x not in rng for x in row) for row in table):
            raise ValueError("Cayley table is not a square of valid element indices")
        if any(len(set(row)) != order for row in table):
            raise ValueError("Cayley table rows are not permutations")
        if any(len({table[i][j] for i in rng}) != order for j in rng):
            raise ValueError("Cayley table columns are not permutations")
        identity = next((e for e in rng
                         if all(table[e][x] == x and table[x][e] == x for x in rng)), -1)
        if identity < 0:
            raise ValueError("Cayley table has no identity element")
        gens, reached = [], {identity}
        for g in rng:
            if g not in reached:
                gens.append(g)
                reached = _closure(table, gens, identity)
        # Light's test: the g with (xg)y = x(gy) for all x, y are closed under
        # products, and the walk reaches every element as a product of gens
        if any(table[table[x][g]][y] != table[x][table[g][y]]
               for g in gens for x in rng for y in rng):
            a, b, c = next((a, b, c) for a in rng for b in rng for c in rng
                           if table[table[a][b]][c] != table[a][table[b][c]])
            raise ValueError(f"Cayley table is not associative at ({a},{b},{c})")
        return cls(name=name, order=order, identity=identity, cayley=table,
                   subgroup_orders=subgroup_orders_of(table, identity))


def group_from_json(text: str) -> GroupSpec:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("group file must hold a JSON object")
    for key, kind in (("name", str), ("order", int), ("identity", int)):
        if key in data and type(data[key]) is not kind:
            raise ValueError(f"group file {key!r} must be of type {kind.__name__}, "
                             f"got {type(data[key]).__name__}")
    spec = GroupSpec.from_cayley(data["cayley"], name=data.get("name", "custom"))
    if "order" in data and data["order"] != spec.order:
        raise ValueError(f"declared order {data['order']} != table size {spec.order}")
    if "identity" in data and data["identity"] != spec.identity:
        raise ValueError(f"declared identity {data['identity']} != computed {spec.identity}")
    return spec


def builtin_group(name: str) -> GroupSpec:
    """Named groups, each the semidirect product Z/n ⋊_t Z/m with
    (a, b) * (c, d) = (a + t^b c mod n, b + d mod m), element a*m + b being
    the pair (a, b): cyclic:n is (n, 1, 1), product:n,m is (n, m, 1) and
    Z7xZ3semidirect is (7, 3, 2), whose twist is multiplication by 2 on Z/7,
    an automorphism of order 3 (2^3 = 8 = 1 mod 7).  The order is checked
    before the Cayley table is built."""
    if name == "Z7xZ3semidirect":
        n, m, t = 7, 3, 2
    elif name.startswith(("cyclic:", "product:")):
        try:
            sizes = [int(x) for x in name.split(":", 1)[1].split(",")]
        except ValueError:
            sizes = []
        if len(sizes) != 1 + name.startswith("product:"):
            raise ValueError(f"malformed group name {name!r}: expected cyclic:n or product:n,m")
        n, m, t = (*sizes, 1, 1)[:3]
        # a cyclic name checks n itself; a product needs two positive sizes
        _check_order(n if len(sizes) == 1 else n * m if n > 0 and m > 0 else 0)
    else:
        raise ValueError(f"unknown builtin group {name!r}")
    table = [[(a + pow(t, b, n) * c) % n * m + (b + d) % m for c in range(n) for d in range(m)]
             for a in range(n) for b in range(m)]
    return GroupSpec.from_cayley(table, name=name)


def kappa_group(r: int, s: int, group: GroupSpec) -> KappaResult:
    """Same minimization as the field bound, over subgroup orders."""
    return kappa_rs(r, s, AdmissibleDegreeSet(n=group.order, degrees=group.subgroup_orders))


def _masks(bits, subset) -> list[int]:
    """masks[g] = sum of bits[x][g] over x in subset: the bitmask of subset*g
    for `GroupSpec.bits` (bits[x][y] = 1 << x*y), and of g*subset for its
    transpose.  The rows and columns of a Cayley table are permutations, so
    each mask is a sum of distinct powers of two, and adding or removing one
    x of subset adds or subtracts the row bits[x]."""
    return list(map(sum, zip(*(bits[x] for x in subset))))


def mu_group_exact(group: GroupSpec, r: int, s: int,
                   budget: int = 10 ** 9) -> MuResult:
    """Exact min |AB| over subsets with |A| = r, |B| = s, normalized so that
    both subsets contain the identity (translation preserves |AB|).

    For each A, in lexicographic order, B = (e, b_1 < ... < b_{s-1}) grows one
    element at a time, depth first in lexicographic order; a stack frame holds
    the mask of AB' and an iterator over the children left to visit, so a cut
    child costs one OR and one bit count.  A branch is cut once |AB'| reaches
    the best value found, since |AB'| only grows with B'; every prefix of the
    first minimal pair in A-major order stays below the best value found
    before it, so that pair is never cut.
    `pairs_examined` counts search nodes, one |AB'| per partial or complete B'
    visited, cut or not; `budget` caps it once a first complete pair is found.
    """
    k = group.order
    check_rs(r, s, k)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    e = group.identity
    elems = [e] + [g for g in range(k) if g != e]
    floor = max(r, s)
    best = k + 1
    best_a = best_b = None
    path = [e] * s
    nodes = 0
    limit = max(budget, s)   # the first s nodes, never cut, reach the first pair
    for a_combo in itertools.combinations(elems[1:], r - 1):
        a_elems = (e, *a_combo)
        masks = _masks(group.bits, a_elems)
        stack = [(0, iter((0,)), 1)]   # (mask of AB', children left, their |B'|)
        while stack:
            acc, children, depth = stack[-1]
            for j in children:
                if nodes >= limit:
                    break
                nodes += 1
                child = acc | masks[elems[j]]
                if child.bit_count() >= best:
                    continue
                path[depth - 1] = elems[j]
                if depth < s:
                    stack.append((child, iter(range(j + 1, k - s + depth + 1)), depth + 1))
                    break
                best, best_a, best_b = child.bit_count(), a_elems, tuple(path)
                if best <= floor:
                    break
            else:
                stack.pop()
            if len(stack) == depth:   # neither pushed nor popped: the floor or budget stop
                break
        if stack or best <= floor:
            break
    return MuResult(value=best, witness_a=tuple(sorted(best_a)),
                    witness_b=tuple(sorted(best_b)),
                    exhaustive=not stack or best <= floor, pairs_examined=nodes)


def mu_group_randomized(group: GroupSpec, r: int, s: int, trials: int,
                        seed: int) -> MuResult:
    """Upper bound on min |AB| from random restarts with steepest-descent
    single-element swaps; seed-reproducible.  `pairs_examined` counts |AB|
    evaluations, restarts plus descent probes.  `trials` is checked only
    before each restart and each descent round, and a round once started runs
    its swap sweeps over both sides to the end, so the count can pass `trials`.

    Each restart builds the A side's masks, masks[x] the bitmask of x*B, and
    the B side's, masks[y] that of A*y, once.  A move out -> into on one side
    adds row `into` and subtracts row `out` in each of the other side's
    masks, rows of bits for a move on A and of cols for one on B (see
    _masks).  A side's sweep ORs the subset's masks once into `union`, the
    mask of AB, and `twice`, the elements that two or more of them reach;
    `alone` = union ^ twice holds those that exactly one reaches, so removing
    `out` leaves rest = union ^ (masks[out] & alone), and the probe that
    swaps `out` for `into` is rest | masks[into].  Every probe contains rest,
    so when rest is already no smaller than the best value of the sweep,
    none of that `out`'s probes can win and none is evaluated; they still
    count in `pairs_examined`, so the count is that of a sweep that
    evaluates every probe.  The first strict improvement in sweep order is
    the move made."""
    k = group.order
    check_rs(r, s, k)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    e = group.identity
    others = [g for g in range(k) if g != e]
    bits = group.bits
    cols = list(zip(*bits))
    rng = random.Random(seed)
    best = k + 1
    best_a = best_b = None
    evals = 0
    while evals < trials:
        a_set = {e, *rng.sample(others, r - 1)}
        b_set = {e, *rng.sample(others, s - 1)}
        x_b = _masks(cols, b_set)
        a_y = _masks(bits, a_set)
        union = 0
        for x in a_set:
            union |= x_b[x]
        value = union.bit_count()
        evals += 1
        improved = True
        while improved and evals < trials:
            improved = False
            for subset, masks, other, rows in ((a_set, x_b, a_y, bits), (b_set, a_y, x_b, cols)):
                cand = [(into, masks[into]) for into in range(k) if into not in subset]
                union = twice = 0
                for x in subset:
                    twice |= union & masks[x]
                    union |= masks[x]
                alone = union ^ twice
                move = None
                move_value = value
                for out in sorted(subset - {e}):
                    rest = union ^ (masks[out] & alone)
                    evals += len(cand)
                    if rest.bit_count() >= move_value:
                        continue
                    for into, m in cand:
                        v = (rest | m).bit_count()
                        if v < move_value:
                            move_value, move = v, (out, into)
                if move is not None:
                    out, into = move
                    subset.discard(out)
                    subset.add(into)
                    other[:] = [m + i - o for m, i, o in zip(other, rows[into], rows[out])]
                    value = move_value
                    improved = True
        if value < best:
            best = value
            best_a, best_b = tuple(sorted(a_set)), tuple(sorted(b_set))
    return MuResult(value=best, witness_a=best_a, witness_b=best_b,
                    exhaustive=False, pairs_examined=evals)
