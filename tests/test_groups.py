import itertools
import time
import tracemalloc

import pytest

import subspace_products.groups as groups_module

from oracle import (group_to_json, mu_group_brute, mu_group_randomized_reference,
                    subgroup_orders_brute)
from subspace_products.groups import (GroupSpec, builtin_group, group_from_json,
                                      kappa_group, mu_group_exact, mu_group_randomized,
                                      subgroup_orders_of)
from subspace_products.kappa import f_h

# order-5 loop: latin square with identity but no associativity
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def _product_set(group, a_elems, b_elems):
    out = set()
    for a in a_elems:
        for b in b_elems:
            out.add(group.cayley[a][b])
    return out


def test_builtin_trivial_group():
    g = builtin_group("cyclic:1")
    assert g.order == 1 and g.subgroup_orders == (1,)


def test_cyclic6_isomorphic_to_product23():
    c6 = builtin_group("cyclic:6")
    p23 = builtin_group("product:2,3")
    assert c6.subgroup_orders == p23.subgroup_orders == (1, 2, 3, 6)


def test_order21_semidirect_structure():
    g = builtin_group("Z7xZ3semidirect")
    assert g.order == 21
    assert g.subgroup_orders == (1, 3, 7, 21)
    assert g.identity == 0


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_group("dihedral:4")


def test_builtin_refuses_order_before_building_table():
    # an order^2 table is never built for an order past MAX_ORDER
    for name in ("cyclic:100000", "product:1000,1000", "cyclic:0", "product:-2,-3"):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="group order"):
            builtin_group(name)
        assert time.perf_counter() - t0 < 0.1, name
    assert builtin_group("cyclic:64").order == 64


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        GroupSpec.from_cayley([[0, 1], [1, 1]])      # not latin
    with pytest.raises(ValueError):
        GroupSpec.from_cayley([[0, 1], [0, 1]])      # columns repeat
    with pytest.raises(ValueError, match="identity"):
        GroupSpec.from_cayley([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    with pytest.raises(ValueError, match="associative"):
        GroupSpec.from_cayley(NONASSOC_LOOP)
    with pytest.raises(ValueError):
        GroupSpec.from_cayley([[0, 1]])              # not square
    for table in (5, [[0.5]], [[None]], [[True, False], [False, True]], ((0,),), [(0,)]):
        with pytest.raises(ValueError, match="list of rows of integers"):
            GroupSpec.from_cayley(table)


def _first_nonassociative(table):
    k = len(table)
    return next(((a, b, c) for a, b, c in itertools.product(range(k), repeat=3)
                 if table[table[a][b]][c] != table[a][table[b][c]]), None)


@pytest.mark.parametrize("name", ["cyclic:6", "cyclic:8", "product:2,4", "product:3,2",
                                  "product:4,2"])
def test_associativity_check_matches_the_triple_loop(name):
    # swapping the entries of a 2x2 subsquare off the identity's row and column
    # keeps a Latin square with that identity, associative or not; the check
    # over the generators must give the full triple loop's verdict and triple
    base = [list(row) for row in builtin_group(name).cayley]
    k = len(base)
    loops = [base]
    for a, b in itertools.combinations(range(1, k), 2):
        for c, d in itertools.combinations(range(1, k), 2):
            if base[a][c] == base[b][d] and base[a][d] == base[b][c]:
                t = [list(row) for row in base]
                t[a][c], t[a][d], t[b][c], t[b][d] = t[a][d], t[a][c], t[b][d], t[b][c]
                loops.append(t)
    verdicts = set()
    for t in loops:
        first = _first_nonassociative(t)
        verdicts.add(first is None)
        if first is None:
            assert GroupSpec.from_cayley(t).order == k
        else:
            with pytest.raises(ValueError) as err:
                GroupSpec.from_cayley(t)
            assert str(err.value) == "Cayley table is not associative at (%d,%d,%d)" % first
    assert verdicts == {True, False}


def test_subgroup_orders_sanity():
    z12 = builtin_group("cyclic:12")
    assert z12.subgroup_orders == (1, 2, 3, 4, 6, 12)
    v4 = builtin_group("product:2,2")
    assert v4.subgroup_orders == (1, 2, 4)
    table = builtin_group("cyclic:5").cayley
    assert subgroup_orders_of(table, 0) == (1, 5)


@pytest.mark.parametrize("name", [f"cyclic:{k}" for k in range(1, 13)] + [
    f"product:{a},{b}" for a in range(2, 7) for b in range(2, 7) if a * b <= 12])
def test_subgroup_orders_match_closed_subsets(name):
    g = builtin_group(name)
    assert g.subgroup_orders == subgroup_orders_brute(g)


def _old_builtin_table(name):
    """Each family's table by its own formula, a reference for the one
    semidirect-product table of builtin_group."""
    if name == "Z7xZ3semidirect":
        def mul(i, j):
            a1, b1 = divmod(i, 3)
            a2, b2 = divmod(j, 3)
            return ((a1 + pow(2, b1, 7) * a2) % 7) * 3 + (b1 + b2) % 3
        return [[mul(i, j) for j in range(21)] for i in range(21)]
    sizes = [int(t) for t in name.split(":")[1].split(",")]
    if name.startswith("cyclic:"):
        n, = sizes
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    n, m = sizes

    def mul(i, j):
        a1, b1 = divmod(i, m)
        a2, b2 = divmod(j, m)
        return ((a1 + a2) % n) * m + (b1 + b2) % m
    return [[mul(i, j) for j in range(n * m)] for i in range(n * m)]


def test_builtin_tables_and_refusals_are_pinned():
    names = [f"cyclic:{n}" for n in range(1, 65)] + [
        f"product:{a},{b}" for a in range(1, 65) for b in range(1, 65) if a * b <= 64]
    for name in names + ["Z7xZ3semidirect"]:
        g = builtin_group(name)
        table = _old_builtin_table(name)
        assert (g.name, g.order, g.identity) == (name, len(table), 0), name
        assert g.cayley == tuple(map(tuple, table)), name
    order = "group order must be in [1, 64], got "
    malformed = ": expected cyclic:n or product:n,m"
    for name, message in [
        ("cyclic:0", order + "0"),
        ("cyclic:-3", order + "-3"),
        ("cyclic:65", order + "65"),
        ("product:-2,-3", order + "0"),
        ("product:1,-1", order + "0"),
        ("product:2", "malformed group name 'product:2'" + malformed),
        ("cyclic:2,3", "malformed group name 'cyclic:2,3'" + malformed),
        ("cyclic:x", "malformed group name 'cyclic:x'" + malformed),
        ("dihedral:4", "unknown builtin group 'dihedral:4'"),
    ]:
        with pytest.raises(ValueError) as err:
            builtin_group(name)
        assert str(err.value) == message, name


def _a4():
    """The alternating group A4, nonabelian of order 12, on even permutations."""
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[x]] for x in range(4))] for b in perms] for a in perms]
    return GroupSpec.from_cayley(table, name="A4")


def test_subgroup_orders_of_a4():
    # a subgroup walk may not skip g only because g lies in a subgroup K
    # already seen that contains H: <H, g> can be a proper subgroup of K.  In
    # A4, once A4 itself is seen, every g would be skipped for H = <(01)(23)>,
    # and the Klein four-group, its only subgroup of order 4, would be lost
    a4 = _a4()
    assert a4.order == 12 and a4.identity == 0
    assert a4.subgroup_orders == subgroup_orders_brute(a4) == (1, 2, 3, 4, 12)


def test_subgroup_orders_stop_once_every_divisor_is_seen(monkeypatch):
    # by Lagrange no other order is possible: the XOR table of (Z/2)^6 has
    # 2,825 subgroups, and a walk that finds them all makes 23,562 closures
    closure, calls = groups_module._closure, []

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(groups_module, "_closure", counted)
    xor = [[x ^ y for y in range(64)] for x in range(64)]
    assert subgroup_orders_of(xor, 0) == (1, 2, 4, 8, 16, 32, 64)
    assert len(calls) <= 200


def test_json_round_trip():
    g = builtin_group("Z7xZ3semidirect")
    again = group_from_json(group_to_json(g))
    assert again.cayley == g.cayley
    assert again.subgroup_orders == g.subgroup_orders
    with pytest.raises(ValueError):
        group_from_json('{"order": 3, "identity": 0, "cayley": [[0,1],[1,0]]}')


def test_kappa_group_cyclic_prime():
    z7 = builtin_group("cyclic:7")
    for r in range(1, 8):
        for s in range(1, 8):
            assert kappa_group(r, s, z7).value == min(r + s - 1, 7)


def test_kappa_group_order21():
    g = builtin_group("Z7xZ3semidirect")
    res = kappa_group(5, 9, g)
    assert res.value == 12 and res.h0 == 3
    assert f_h(5, 9, 3) == 12
    assert kappa_group(1, 1, g).value == 1


def test_mu_group_exact_cyclic7():
    z7 = builtin_group("cyclic:7")
    res = mu_group_exact(z7, 3, 4)
    assert res.value == 6 and res.exhaustive
    assert len(_product_set(z7, res.witness_a, res.witness_b)) == res.value


def test_mu_group_exact_z4_matches_kappa():
    z4 = builtin_group("cyclic:4")
    for r in range(1, 5):
        for s in range(1, 5):
            assert mu_group_exact(z4, r, s).value == kappa_group(r, s, z4).value


def test_mu_group_exact_budget():
    z8 = builtin_group("cyclic:8")
    res = mu_group_exact(z8, 4, 4, budget=5)
    assert res.pairs_examined <= 5
    assert res.value >= 4


def test_mu_group_exact_matches_brute_force():
    groups = [builtin_group(f"cyclic:{n}") for n in range(1, 9)]
    groups += [builtin_group("product:2,2"), builtin_group("product:2,4")]
    cells = [(g, r, s) for g in groups
             for r in range(1, g.order + 1) for s in range(1, g.order + 1)]
    z21 = builtin_group("Z7xZ3semidirect")
    cells += [(z21, r, s) for r in range(1, 4) for s in range(1, 4)]
    for g, r, s in cells:
        res = mu_group_exact(g, r, s)
        assert res.exhaustive
        assert (res.value, res.witness_a, res.witness_b) == mu_group_brute(g, r, s), \
            (g.name, r, s)


def test_mu_group_exact_small_budget_holds_no_b_list():
    z20 = builtin_group("cyclic:20")
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        res = mu_group_exact(z20, 2, 10, budget=1)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first descent to a complete B always finishes: s search nodes
    assert not res.exhaustive and res.pairs_examined == 10
    assert len(_product_set(z20, res.witness_a, res.witness_b)) == res.value
    assert elapsed < 0.05 and peak < 2 ** 20


def test_mu_group_exact_budget_reproduces_full_run():
    # cells whose minimum lies above the floor max(r, s): the search runs out
    for name, r, s in (("cyclic:8", 3, 3), ("product:2,4", 3, 5), ("Z7xZ3semidirect", 3, 4)):
        g = builtin_group(name)
        full = mu_group_exact(g, r, s)
        assert full.exhaustive and full.value > max(r, s)
        for budget in (full.pairs_examined, full.pairs_examined + 1):
            assert mu_group_exact(g, r, s, budget=budget) == full
        for budget in (1, full.pairs_examined // 2, full.pairs_examined - 1):
            cut = mu_group_exact(g, r, s, budget=budget)
            assert not cut.exhaustive and cut.pairs_examined <= max(budget, s)
            assert cut.value >= full.value


def test_mu_group_exact_validates():
    z4 = builtin_group("cyclic:4")
    with pytest.raises(ValueError):
        mu_group_exact(z4, 0, 1)
    with pytest.raises(ValueError):
        mu_group_exact(z4, 1, 5)
    for r, s, trials, message in [(0, 1, 1, "must lie in"), (1, 5, 1, "must lie in"),
                                  (2, 2, 0, "trials")]:
        with pytest.raises(ValueError, match=message):
            mu_group_randomized(z4, r, s, trials, seed=0)


def test_mu_group_randomized_deterministic_and_bounded():
    g = builtin_group("Z7xZ3semidirect")
    r1 = mu_group_randomized(g, 4, 4, 2000, seed=11)
    r2 = mu_group_randomized(g, 4, 4, 2000, seed=11)
    assert ((r1.value, r1.witness_a, r1.witness_b, r1.pairs_examined)
            == (r2.value, r2.witness_a, r2.witness_b, r2.pairs_examined))
    assert len(_product_set(g, r1.witness_a, r1.witness_b)) == r1.value


def test_mu_group_randomized_finds_order21_witness():
    g = builtin_group("Z7xZ3semidirect")
    res = mu_group_randomized(g, 5, 9, 100000, seed=1)
    assert res.value == 13
    assert len(res.witness_a) == 5 and len(res.witness_b) == 9
    assert len(_product_set(g, res.witness_a, res.witness_b)) == 13


def test_mu_group_randomized_matches_reference_descent():
    # the reference rebuilds its masks every sweep and evaluates every probe;
    # the library keeps them across moves and skips probes that cannot win.
    # Every (r, s) includes whole-group subsets, which leave a sweep no
    # candidates, and 3 trials run out inside a first sweep
    groups = [builtin_group(name) for name in ("cyclic:2", "cyclic:7", "product:2,2",
                                               "product:3,3")] + [_a4()]
    cells = [(g, r, s) for g in groups
             for r in range(1, g.order + 1) for s in range(1, g.order + 1)]
    z = builtin_group("Z7xZ3semidirect")
    cells += [(z, r, s) for r, s in ((5, 9), (3, 7), (4, 4), (2, 10))]
    past_trials = 0
    for seed, (g, r, s) in enumerate(cells):
        for trials in (1, 3, 300):
            res = mu_group_randomized(g, r, s, trials, seed)
            assert res == mu_group_randomized_reference(g, r, s, trials, seed), \
                (g.name, r, s, trials, seed)
            past_trials += trials == 3 and res.pairs_examined > trials
    assert past_trials > 100
