import time
import tracemalloc

import pytest

from oracle import mu_group_brute
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


def test_subgroup_orders_sanity():
    z12 = builtin_group("cyclic:12")
    assert z12.subgroup_orders == (1, 2, 3, 4, 6, 12)
    v4 = builtin_group("product:2,2")
    assert v4.subgroup_orders == (1, 2, 4)
    table = builtin_group("cyclic:5").cayley
    assert subgroup_orders_of(table, 0) == (1, 5)


def test_json_round_trip():
    g = builtin_group("Z7xZ3semidirect")
    again = group_from_json(g.to_json())
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


def test_mu_group_randomized_deterministic_and_bounded():
    g = builtin_group("Z7xZ3semidirect")
    r1 = mu_group_randomized(g, 4, 4, 2000, seed=11)
    r2 = mu_group_randomized(g, 4, 4, 2000, seed=11)
    assert (r1.value, r1.witness_a, r1.witness_b) == (r2.value, r2.witness_a, r2.witness_b)
    assert len(_product_set(g, r1.witness_a, r1.witness_b)) == r1.value


def test_mu_group_randomized_finds_order21_witness():
    g = builtin_group("Z7xZ3semidirect")
    res = mu_group_randomized(g, 5, 9, 100000, seed=1)
    assert res.value == 13
    assert len(res.witness_a) == 5 and len(res.witness_b) == 9
    assert len(_product_set(g, res.witness_a, res.witness_b)) == 13
