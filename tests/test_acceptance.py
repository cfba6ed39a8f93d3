"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from pathlib import Path

from oracle import mu_field_brute
from subspace_products.cli import format_table_text, main
from subspace_products.groups import builtin_group, kappa_group, mu_group_exact, \
    mu_group_randomized
from subspace_products.kappa import divisors, kappa_rs, kappa_table
from subspace_products.linalg import span
from subspace_products.products import (_h_span, kneser_check, optimal_pair, product_span,
                                        stabilizer, tower_construction)
from subspace_products.search import (SearchOptions, enumerate_subspaces,
                                      gaussian_binomial, mu_exact, random_subspace)

DATA = Path(__file__).parent / "data"

# Hopf-Stiefel values for a degree-16 extension with intermediate degrees
# 1, 2, 4, 8, 16; row r, column s, 1-based.
TABLE_16 = [
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    [2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 14, 14, 16, 16],
    [3, 4, 4, 4, 7, 8, 8, 8, 11, 12, 12, 12, 15, 16, 16, 16],
    [4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12, 16, 16, 16, 16],
    [5, 6, 7, 8, 8, 8, 8, 8, 13, 14, 15, 16, 16, 16, 16, 16],
    [6, 6, 8, 8, 8, 8, 8, 8, 14, 14, 16, 16, 16, 16, 16, 16],
    [7, 8, 8, 8, 8, 8, 8, 8, 15, 16, 16, 16, 16, 16, 16, 16],
    [8, 8, 8, 8, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16],
    [9, 10, 11, 12, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16],
    [10, 10, 12, 12, 14, 14, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
    [11, 12, 12, 12, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
    [12, 12, 12, 12, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
    [13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
    [14, 14, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
    [15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
    [16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
]


def _run(num, name, limit_seconds, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s"


def test_criterion_01_golden_degree16_table(capsys):
    def check():
        assert kappa_table(16) == TABLE_16
        golden = (DATA / "kappa_table_16.txt").read_text()
        assert format_table_text(TABLE_16) + "\n" == golden
        code = main(["kappa-table", "--n", "16"])
        out = capsys.readouterr().out
        assert code == 0 and out == golden

    _run(1, "golden degree-16 table", 1.0, check)


def test_criterion_02_prime_degree_formula():
    def check():
        from subspace_products.fields import ExtensionField
        # floor-free, so the scan shows min(r + s - 1, n) is the minimum
        # rather than stopping as soon as it is attained
        opts = SearchOptions(use_kappa_floor=False)
        f32 = ExtensionField(2, 5)
        for r in range(1, 6):
            for s in range(1, 6):
                assert mu_exact(f32, r, s, opts).value == min(r + s - 1, 5), (r, s)
        f27 = ExtensionField(3, 3)
        for r in range(1, 4):
            for s in range(1, 4):
                assert mu_exact(f27, r, s, opts).value == min(r + s - 1, 3), (r, s)

    _run(2, "prime-degree product minimum", 60.0, check)


def test_criterion_03_mu_equals_kappa_desk_scale(field_cache):
    def check():
        # floor-free: pruning stops only at the trivial bound max(r, s), so
        # mu >= kappa is checked rather than assumed
        opts = SearchOptions(use_kappa_floor=False)
        cases = [(2, n) for n in (2, 3, 4, 6)] + [(3, 4)]
        cells = [(p, n, r, s) for p, n in cases
                 for r in range(1, n + 1) for s in range(1, n + 1)]
        # GF(2^7), GF(2^8) and GF(3^6) for r <= s only: <AB> = <BA>, so
        # (s, r) has the same minimum
        cells += [(p, n, r, s) for p, n in ((2, 7), (2, 8), (3, 6))
                  for r in range(1, n + 1) for s in range(r, n + 1)]
        cells += [(3, 5, r, s) for r in range(1, 6) for s in range(1, 6)]
        for p, n, r, s in cells:
            res = mu_exact(field_cache(p, n), r, s, opts)
            assert res.exhaustive
            assert res.value == kappa_rs(r, s, divisors(n)).value, (p, n, r, s)

    _run(3, "exhaustive minimum equals integer bound", 60.0, check)


def test_criterion_04_constructions_attain_bound(field_cache):
    def check():
        for p, n in ((2, 12), (3, 6)):
            f = field_cache(p, n)
            degs = divisors(n)
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    a, b, cert = optimal_pair(f, r, s)
                    assert cert.value == kappa_rs(r, s, degs).value
                    assert a.dim == r and b.dim == s
                    ab = product_span(a, b)
                    st = stabilizer(ab)
                    slack = ab.dim - (r + s - st.g)
                    assert ab.dim == cert.value, (p, n, r, s, ab.dim, cert.value)
                    assert slack >= 0 and st.is_subfield_verified

    _run(4, "optimal constructions certified", 60.0, check)


def test_criterion_05_kneser_property_suite(field_cache):
    def check():
        suite = (((2, 8), 3, 5), ((2, 12), 5, 7), ((3, 6), 3, 4))
        for (p, n), r, s in suite:
            f = field_cache(p, n)
            rng = random.Random(1)
            for _ in range(10 ** 4):
                a = random_subspace(f, r, rng)
                b = random_subspace(f, s, rng)
                ab = product_span(a, b)
                st = stabilizer(ab)
                assert st.is_subfield_verified, (p, n)
                assert ab.dim >= a.dim + b.dim - st.g, (p, n)
        # Exhaustive canonical cells: scaling A or B by a unit changes neither
        # dim<AB> nor its stabilizer, so the pairs with 1 in both and r <= s
        # cover every pair with r + s <= n.  Each proper subfield degree must
        # be the stabilizer of some tight pair (slack 0), so a stabilizer that
        # is too small breaks the bound and one that is too large reaches no
        # tight pair at that degree.
        for p, n in ((2, 6), (3, 4)):
            f = field_cache(p, n)
            spaces = {k: list(enumerate_subspaces(f, k, True)) for k in range(1, n)}
            tight = set()
            for r in range(1, n // 2 + 1):
                for s in range(r, n - r + 1):
                    for a in spaces[r]:
                        for b in spaces[s]:
                            rep = kneser_check(a, b)
                            assert rep.holds and rep.is_subfield_verified, (p, n, a.rows, b.rows)
                            if rep.slack == 0:
                                tight.add(rep.dim_h)
            assert tight == set(divisors(n).degrees[:-1]), (p, n, sorted(tight))
        # Structured cells: for each proper subfield H = F_{p^d} with d > 1,
        # A and B are H-spans of 1, t, ..., t^(a-1) for a random t, trimmed
        # to their first RREF rows as optimal_pair trims its witnesses and
        # scaled by random units.  The untrimmed pairs have dim<AB> <= r + s
        # - d, so each d must be the stabilizer of some tight pair.
        for p, n in ((2, 12), (3, 6)):
            f = field_cache(p, n)
            rng = random.Random(2)
            for d in divisors(n).degrees[1:-1]:
                tight = set()
                for a in range(1, n // d + 1):
                    for b in range(a, n // d + 1):
                        for _ in range(12):
                            t = rng.randrange(1, f.q)
                            pair = []
                            for count in (a, b):
                                rows = _h_span(f, d, t, count).rows
                                keep = rng.choice((len(rows), rng.randrange(1, len(rows) + 1)))
                                u = rng.randrange(1, f.q)
                                pair.append(span(f, [f.mul(u, x) for x in rows[:keep]]))
                            rep = kneser_check(*pair)
                            assert rep.holds and rep.is_subfield_verified, (p, n, d, a, b)
                            if rep.slack == 0:
                                tight.add(rep.dim_h)
                assert d in tight, (p, n, d, sorted(tight))

    _run(5, "stabilizer bound never violated", 30.0, check)


def test_criterion_06_tower_construction(field_cache):
    def check():
        f = field_cache(2, 6)
        gamma = f.subfield_generator(2)
        for r in range(1, 7):
            for s in range(1, 7):
                a0 = span(f, [f.pow(gamma, i) for i in range((r - 1) % 2 + 1)])
                b0 = span(f, [f.pow(gamma, i) for i in range((s - 1) % 2 + 1)])
                a, b = tower_construction(f, 2, r, s, a0, b0)
                assert a.dim == r and b.dim == s
                assert product_span(a, b).dim <= r + s - 1, (r, s)

    _run(6, "tower construction stays under r+s-1", 10.0, check)


def test_criterion_07_galois_cross_check(field_cache):
    def check():
        opts = SearchOptions(use_kappa_floor=False)
        for n in (4, 6):
            f = field_cache(2, n)
            g = builtin_group(f"cyclic:{n}")
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    assert mu_exact(f, r, s, opts).value == mu_group_exact(g, r, s).value, \
                        (n, r, s)

    _run(7, "field minimum equals cyclic-group minimum", 4.0, check)


def test_criterion_08_abelian_groups_match_bound():
    def check():
        names = [f"cyclic:{n}" for n in range(1, 11)] + ["product:2,2", "product:2,4"]
        for name in names:
            g = builtin_group(name)
            k = g.order
            for r in range(1, k + 1):
                for s in range(1, k + 1):
                    assert mu_group_exact(g, r, s).value == kappa_group(r, s, g).value, \
                        (name, r, s)

    _run(8, "abelian subset minimum equals bound", 2.5, check)


def test_criterion_09_nonabelian_gap():
    def check():
        g = builtin_group("Z7xZ3semidirect")
        t0 = time.perf_counter()
        cert = kappa_group(5, 9, g)
        assert cert.value == 12
        assert time.perf_counter() - t0 < 0.1
        res = mu_group_randomized(g, 5, 9, trials=100000, seed=1)
        assert res.value == 13
        size = len({g.cayley[a][b] for a in res.witness_a for b in res.witness_b})
        assert size == 13

    _run(9, "order-21 group beats its bound by one", 60.0, check)


def test_criterion_09_long_exhaustive_order21():
    def check():
        g = builtin_group("Z7xZ3semidirect")
        res = mu_group_exact(g, 5, 9)
        assert res.exhaustive
        assert res.value == 13

    _run(9, "order-21 exhaustive confirmation", 30.0, check)


def test_criterion_10_infrastructure(field_cache):
    def check():
        for p, n_max in ((2, 8), (3, 5)):
            for n in range(1, n_max + 1):
                f = field_cache(p, n)
                for r in range(n + 1):
                    count = sum(1 for _ in enumerate_subspaces(f, r))
                    assert count == gaussian_binomial(n, r, p), (p, n, r)
        # canonicalized versus full search, elementary floor only
        for n in (2, 3, 4):
            f = field_cache(2, n)
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    full = mu_field_brute(f, r, s, False, max(r, s), 10 ** 9)[0]
                    canon = mu_exact(f, r, s, SearchOptions(use_kappa_floor=False))
                    assert full == canon.value, (n, r, s)

    _run(10, "enumeration counts, canonicalization", 6.0, check)
