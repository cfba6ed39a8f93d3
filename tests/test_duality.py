"""Trace duality of the product minima, and its analogue for group subsets.

Tr(xy) is a nondegenerate form on GF(p^n), so AB in W iff A*W^perp in B^perp,
with dim W^perp = n - dim W; hence mu(r, s) <= d iff mu(r, n - d) <= n - s
for d in [1, n - 1].  In a group of order N, AB misses a set C iff B misses
A^-1*C, so mu_G(r, s) <= d iff mu_G(r, N - d) <= N - s.  Neither identity is
used by the library, so each checks the scans independently.
"""

import random

import pytest

from oracle import mul, trace, trace_dual
from subspace_products.fields import ExtensionField
from subspace_products.groups import builtin_group, mu_group_exact
from subspace_products.kappa import kappa_table
from subspace_products.products import product_span
from subspace_products.search import SearchOptions, mu_exact, random_subspace


def _assert_dual(table, n, rows=None):
    """table[r - 1][s - 1] = mu(r, s) for r in `rows` (default [1, n]) and
    every s in [1, n]."""
    for r in rows or range(1, n + 1):
        mu = table[r - 1]
        for s in range(1, n + 1):
            for d in range(1, n):
                assert (mu[s - 1] <= d) == (mu[n - d - 1] <= n - s), (r, s, d)


@pytest.mark.parametrize("p, n", ((2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5)))
def test_floor_free_field_tables_are_self_dual(field_cache, p, n):
    f = field_cache(p, n)
    opts = SearchOptions(use_kappa_floor=False)
    table = [[0] * n for _ in range(n)]
    for r in range(1, n + 1):
        for s in range(r, n + 1):   # <AB> = <BA>
            res = mu_exact(f, r, s, opts)
            assert res.exhaustive
            table[r - 1][s - 1] = table[s - 1][r - 1] = res.value
    _assert_dual(table, n)


def test_kappa_tables_are_self_dual():
    for n in range(1, 41):
        _assert_dual(kappa_table(n), n)


@pytest.mark.parametrize("p, n", ((2, 6), (3, 4)))
def test_product_maps_the_trace_dual_into_the_dual(p, n):
    f = ExtensionField(p, n)
    traces = [trace(f, x) for x in range(f.q)]
    assert all(t < p for t in traces) and any(traces)
    rng = random.Random(p * 10 + n)
    for _ in range(12):
        a = random_subspace(f, rng.randint(1, n - 1), rng)
        b = random_subspace(f, rng.randint(1, n - 1), rng)
        w = product_span(a, b)
        w_dual, b_dual = trace_dual(f, w.rows, traces), trace_dual(f, b.rows, traces)
        assert len(w_dual) == p ** (n - w.dim) and len(b_dual) == p ** (n - b.dim)
        assert all(mul(f, x, y) in b_dual for x in a.rows for y in w_dual)


@pytest.mark.parametrize("name, max_r", [
    *((f"cyclic:{k}", None) for k in range(1, 11)), ("product:2,2", None),
    ("product:2,4", None), ("Z7xZ3semidirect", 2)])
def test_group_minima_are_self_complementary(name, max_r):
    # criterion 08's groups in full, and the first rows of the order-21 group
    g = builtin_group(name)
    k = g.order
    rows = range(1, (max_r or k) + 1)
    _assert_dual([[mu_group_exact(g, r, s).value for s in range(1, k + 1)] for r in rows],
                 k, rows)
