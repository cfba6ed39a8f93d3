"""Finite groups as Cayley tables: subgroup orders and subset-product minima.

Subsets are bitmasks over element indices (orders up to 64), and product sets
are accumulated through precomputed translation rows, so |AB| evaluations stay
cheap inside the exhaustive search.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from .kappa import AdmissibleDegreeSet, KappaResult, kappa_rs
from .search import MuResult

MAX_ORDER = 64


def _check_order(order: int) -> None:
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"group order must be in [1, {MAX_ORDER}], got {order}")


def _closure(cayley, gens, identity) -> frozenset:
    elems = {identity, *gens}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            row = cayley[a]
            for b in list(elems):
                c = row[b]
                if c not in elems:
                    elems.add(c)
                    changed = True
    return frozenset(elems)


def subgroup_orders_of(cayley, identity) -> tuple[int, ...]:
    """Orders of all subgroups, by closure enumeration over added generators."""
    order = len(cayley)
    trivial = frozenset({identity})
    seen = {trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        for g in range(order):
            if g in h:
                continue
            h2 = _closure(cayley, h | {g}, identity)
            if h2 not in seen:
                seen.add(h2)
                queue.append(h2)
    return tuple(sorted({len(h) for h in seen}))


@dataclass(frozen=True)
class GroupSpec:
    name: str
    order: int
    identity: int
    cayley: tuple[tuple[int, ...], ...]
    subgroup_orders: tuple[int, ...]

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
        for a in rng:
            for b in rng:
                ab = table[a][b]
                for c in rng:
                    if table[ab][c] != table[a][table[b][c]]:
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
    """Named groups: cyclic:n, product:n,m, Z7xZ3semidirect.  The order is
    checked before the Cayley table is built."""
    if name.startswith("cyclic:"):
        n = int(name.split(":", 1)[1])
        _check_order(n)
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return GroupSpec.from_cayley(table, name=name)
    if name.startswith("product:"):
        n, m = (int(t) for t in name.split(":", 1)[1].split(","))
        order = n * m if n > 0 and m > 0 else 0
        _check_order(order)
        def mul(i, j):
            a1, b1 = divmod(i, m)
            a2, b2 = divmod(j, m)
            return ((a1 + a2) % n) * m + (b1 + b2) % m
        table = [[mul(i, j) for j in range(order)] for i in range(order)]
        return GroupSpec.from_cayley(table, name=name)
    if name == "Z7xZ3semidirect":
        # (a, b) * (c, d) = (a + 2^b c, b + d): the order-3 automorphism is
        # multiplication by 2 on Z/7 (2^3 = 8 = 1 mod 7).
        def mul(i, j):
            a1, b1 = divmod(i, 3)
            a2, b2 = divmod(j, 3)
            return ((a1 + pow(2, b1, 7) * a2) % 7) * 3 + (b1 + b2) % 3
        table = [[mul(i, j) for j in range(21)] for i in range(21)]
        return GroupSpec.from_cayley(table, name=name)
    raise ValueError(f"unknown builtin group {name!r}")


def kappa_group(r: int, s: int, group: GroupSpec) -> KappaResult:
    """Same minimization as the field bound, over subgroup orders."""
    return kappa_rs(r, s, AdmissibleDegreeSet(n=group.order, degrees=group.subgroup_orders))


def _translate_masks(cayley, a_elems, order) -> list[int]:
    """masks[g] = bitmask of the set A*g."""
    masks = [0] * order
    for g in range(order):
        m = 0
        for a in a_elems:
            m |= 1 << cayley[a][g]
        masks[g] = m
    return masks


def mu_group_exact(group: GroupSpec, r: int, s: int,
                   budget: int = 10 ** 9) -> MuResult:
    """Exact min |AB| over subsets with |A| = r, |B| = s, normalized so that
    both subsets contain the identity (translation preserves |AB|).

    For each A, in lexicographic order, B = (e, b_1 < ... < b_{s-1}) grows one
    element at a time, depth first in lexicographic order.  A branch is cut
    once |AB'| reaches the best value found, since |AB'| only grows with B';
    every prefix of the first minimal pair in A-major order stays below the
    best value found before it, so that pair is never cut.
    `pairs_examined` counts search nodes (one |AB'| per partial or complete
    B'); `budget` caps it once a first complete pair is found.
    """
    k = group.order
    if not (1 <= r <= k and 1 <= s <= k):
        raise ValueError(f"r={r}, s={s} must lie in [1, {k}]")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    e = group.identity
    elems = [e] + [g for g in range(k) if g != e]
    floor = max(r, s)
    best = k + 1
    best_a = best_b = None
    path = [e] * s
    nodes = 0
    for a_combo in itertools.combinations(elems[1:], r - 1):
        a_elems = (e, *a_combo)
        masks = _translate_masks(group.cayley, a_elems, k)
        stack = [(masks[e], 1, 0)]   # (mask of AB', |B'|, index of B''s last element)
        while stack and best > floor and (nodes < budget or best_a is None):
            acc, depth, i = stack.pop()
            nodes += 1
            v = acc.bit_count()
            if v >= best:
                continue
            path[depth - 1] = elems[i]
            if depth == s:
                best, best_a, best_b = v, a_elems, tuple(path)
                continue
            for j in range(k - s + depth, i, -1):   # reversed: pops in lex order
                stack.append((acc | masks[elems[j]], depth + 1, j))
        if stack or best <= floor:   # the floor or the budget stopped the search
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

    Before each side's swap sweep, masks[x] is the bitmask of x*B on the A
    side or of A*x on the B side, a sum of distinct bits 1 << v over Cayley
    entries v (Cayley rows and columns are permutations), so the probe that
    swaps `out` for `into` is one OR of masks[into] with the masks of the
    subset without `out`."""
    k = group.order
    if not (1 <= r <= k and 1 <= s <= k):
        raise ValueError(f"r={r}, s={s} must lie in [1, {k}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    e = group.identity
    others = [g for g in range(k) if g != e]
    cayley = group.cayley
    rows = [[1 << v for v in row] for row in cayley]   # rows[x][y] = bit of x*y
    cols = list(zip(*rows))
    rng = random.Random(seed)
    best = k + 1
    best_a = best_b = None
    evals = 0
    while evals < trials:
        a_set = {e, *rng.sample(others, r - 1)}
        b_set = {e, *rng.sample(others, s - 1)}
        value = len({cayley[a][b] for a in a_set for b in b_set})
        evals += 1
        improved = True
        while improved and evals < trials:
            improved = False
            for subset, bits, other in ((a_set, cols, b_set), (b_set, rows, a_set)):
                masks = list(map(sum, zip(*(bits[y] for y in other))))
                move = None
                move_value = value
                for out in sorted(subset - {e}):
                    rest = 0
                    for x in subset - {out}:
                        rest |= masks[x]
                    for into in range(k):
                        if into in subset:
                            continue
                        v = (rest | masks[into]).bit_count()
                        evals += 1
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
