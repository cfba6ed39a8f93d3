import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import subspace_products.search as search

from oracle import mu_field_brute
from subspace_products.fields import ExtensionField
from subspace_products.kappa import divisors, kappa_rs
from subspace_products.linalg import span
from subspace_products.products import product_span
from subspace_products.search import (SearchOptions, enumerate_subspaces,
                                      gaussian_binomial, mu_exact, mu_randomized,
                                      random_subspace)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(5, 2, 3) == 1210
    assert gaussian_binomial(3, 5, 2) == 0


def test_enumeration_counts_and_uniqueness(field_cache):
    for p, n in ((2, 5), (3, 3)):
        f = field_cache(p, n)
        for r in range(n + 1):
            seen = set()
            for sp in enumerate_subspaces(f, r):
                assert sp.dim == r
                assert sp.rows not in seen
                seen.add(sp.rows)
            assert len(seen) == gaussian_binomial(n, r, p)


def test_enumeration_matches_canonical_span(field_cache):
    # enumerated rows are already in canonical RREF
    from subspace_products.linalg import span
    f = field_cache(2, 4)
    for sp in enumerate_subspaces(f, 2):
        assert span(f, sp.rows) == sp


def test_enumeration_containing_one(field_cache):
    for p, n in ((2, 5), (3, 3)):
        f = field_cache(p, n)
        for r in range(n + 1):
            subs = list(enumerate_subspaces(f, r, containing_one=True))
            assert len(subs) == gaussian_binomial(n - 1, r - 1, p)
            assert all(sp.contains(1) for sp in subs)


def test_enumeration_rejects_dimension_at_the_call(field_cache):
    f = field_cache(2, 4)
    for r in (-1, 5, 99):
        with pytest.raises(ValueError, match="out of range"):
            enumerate_subspaces(f, r)


def test_random_subspace_dimension_and_membership(field_cache):
    f = field_cache(2, 8)
    rng = random.Random(9)
    for _ in range(100):
        sp = random_subspace(f, 3, rng)
        assert sp.dim == 3
        sp1 = random_subspace(f, 3, rng, containing_one=True)
        assert sp1.dim == 3 and sp1.contains(1)
    assert random_subspace(f, 0, rng).dim == 0
    assert random_subspace(f, 8, rng, containing_one=True).dim == 8


def test_random_subspace_rejects_impossible_dimensions(run_python):
    # in a child process: sampling a dimension no subspace has never ends
    code = """if True:
        import random
        from subspace_products.fields import ExtensionField
        from subspace_products.search import random_subspace
        f = ExtensionField(2, 4)
        for r, one in ((5, False), (-1, False), (0, True)):
            try:
                random_subspace(f, r, random.Random(0), containing_one=one)
            except ValueError:
                continue
            raise SystemExit(f"no error for r={r}, containing_one={one}")
    """
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_mu_exact_trivial(field_cache):
    f = field_cache(2, 2)
    res = mu_exact(f, 1, 1)
    assert res.value == 1 and res.exhaustive


def test_mu_exact_gf16(field_cache):
    f = field_cache(2, 4)
    res = mu_exact(f, 3, 3)
    assert res.value == 4
    assert product_span(res.witness_a, res.witness_b).dim == res.value


def test_mu_exact_witness_recomputes(field_cache):
    f = field_cache(2, 5)
    for r, s in ((2, 2), (2, 3), (3, 3)):
        res = mu_exact(f, r, s)
        assert res.witness_a.dim == r and res.witness_b.dim == s
        assert product_span(res.witness_a, res.witness_b).dim == res.value
        assert res.value == min(r + s - 1, 5)


def test_mu_exact_budget_truncation(field_cache):
    f = field_cache(2, 4)
    res = mu_exact(f, 2, 3, SearchOptions(budget=3, use_kappa_floor=False))
    assert not res.exhaustive
    assert res.pairs_examined == 3
    assert res.value >= kappa_rs(2, 3, divisors(4)).value


def test_mu_exact_validates_input(field_cache):
    f = field_cache(2, 4)
    with pytest.raises(ValueError):
        mu_exact(f, 0, 1)
    with pytest.raises(ValueError):
        mu_exact(f, 1, 5)
    with pytest.raises(ValueError):
        mu_exact(f, 1, 1, SearchOptions(budget=0))


def _fields_of(res):
    return (res.value, res.witness_a.rows, res.witness_b.rows, res.exhaustive,
            res.pairs_examined)


def _orbit_reps(f, r):
    return [rows for rows, skipped in search._a_rows(f, r, True) if not skipped]


@pytest.mark.parametrize("p, n, r", [(2, 6, r) for r in range(2, 6)]
                         + [(3, 4, r) for r in range(2, 4)])
def test_orbits_partition_canonical_subspaces(field_cache, p, n, r):
    f = field_cache(p, n)
    canonical = [sp.rows for sp in enumerate_subspaces(f, r, containing_one=True)]
    reps = _orbit_reps(f, r)
    orbits = [search._orbit(f, rows) for rows in reps]
    assert sum(len(o) for o in orbits) == gaussian_binomial(n - 1, r - 1, p)
    assert set().union(*orbits) == set(canonical)
    for rows in set().union(*orbits):
        sp = span(f, rows)
        assert sp.rows == rows and sp.dim == r and sp.contains(1)
    # each representative is the least member of its orbit
    order = {rows: i for i, rows in enumerate(canonical)}
    assert all(min(o, key=order.get) == rows for o, rows in zip(orbits, reps))


def test_subfield_is_its_own_orbit(field_cache):
    for p, n, d in ((2, 6, 2), (2, 6, 3), (3, 4, 2), (2, 8, 4)):
        f = field_cache(p, n)
        g = f.subfield_generator(d)
        sub = span(f, [f.pow(g, i) for i in range(d)])
        assert sub.dim == d
        assert search._orbit(f, sub.rows) == {sub.rows}


def test_orbit_representative_counts(field_cache):
    assert (len(_orbit_reps(field_cache(2, 6), 3)), gaussian_binomial(5, 2, 2)) == (7, 155)
    assert (len(_orbit_reps(field_cache(2, 7), 3)), gaussian_binomial(6, 2, 2)) == (15, 651)


def _count_orbits(monkeypatch):
    calls = []
    orbit = search._orbit

    def counted(f, rows):
        calls.append(rows)
        return orbit(f, rows)

    monkeypatch.setattr(search, "_orbit", counted)
    return calls


def _unreduced(f, r, s, opts):
    """Serial mu_exact with the orbit skip off: the limit admits the B walk
    of the scan but not its set of seen A."""
    with pytest.MonkeyPatch.context() as m:
        calls = _count_orbits(m)
        m.setattr(search, "MAX_HELD_ROWS",
                  min(gaussian_binomial(f.n - 1, s - 1, f.p), opts.budget))
        res = mu_exact(f, r, s, opts)
    assert not calls
    return res


def test_mu_exact_turns_the_skip_off_when_seen_set_exceeds_limit(field_cache):
    f = field_cache(2, 6)
    for r, s, budget in ((3, 3, 10 ** 9), (3, 4, 10 ** 9), (2, 5, 10 ** 9), (4, 3, 5000)):
        opts = SearchOptions(budget=budget, use_kappa_floor=False)
        with pytest.MonkeyPatch.context() as m:
            calls = _count_orbits(m)
            reduced = mu_exact(f, r, s, opts)
        assert calls, (r, s)
        assert _fields_of(reduced) == _fields_of(_unreduced(f, r, s, opts)), (r, s, budget)


def test_mu_exact_refuses_scans_too_large_to_hold(field_cache):
    # GF(2^16) has about 2.5e17 canonical 8-dimensional subspaces; the default
    # budget would have the truncated scan hold 10^9 of them
    f = field_cache(2, 16)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="would hold"):
        mu_exact(f, 8, 8)
    assert time.perf_counter() - t0 < 1.0
    # a truncated run builds B's row tables only as far as it walks
    t0 = time.perf_counter()
    res = mu_exact(f, 8, 8, SearchOptions(budget=1000))
    assert time.perf_counter() - t0 < 1.0
    assert not res.exhaustive and res.pairs_examined == 1000


def _check_against_oracle(f, r, s, use_kappa_floor, budget):
    floor = kappa_rs(r, s, divisors(f.n)).value if use_kappa_floor else max(r, s)
    res = mu_exact(f, r, s, SearchOptions(budget=budget, use_kappa_floor=use_kappa_floor))
    assert _fields_of(res) == mu_field_brute(f, r, s, True, floor, budget), \
        (f.p, f.n, r, s, use_kappa_floor, budget)


def test_mu_exact_matches_brute_force(field_cache):
    # the walk skips subtrees; the oracle computes every product span in full
    cells = [(2, 4, r, s) for r in range(1, 5) for s in range(1, 5)]
    cells += [(3, 3, r, s) for r in range(1, 4) for s in range(1, 4)]
    cells += [(2, 5, r, s) for r in range(1, 4) for s in range(1, 4)]
    for p, n, r, s in cells:
        for use_kappa_floor in (True, False):
            _check_against_oracle(field_cache(p, n), r, s, use_kappa_floor, 10 ** 9)
    # GF(2^6) (2, 3) and (4, 2): the first minimal A (at index 10 and 15) has
    # other orbit members, and the budgets 100, 400 and 1300 end inside the
    # pair ranges of skipped A
    for r, s in ((2, 3), (4, 2)):
        for budget in (10 ** 9, 100, 400, 1300):
            for use_kappa_floor in (True, False):
                _check_against_oracle(field_cache(2, 6), r, s, use_kappa_floor, budget)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mu_exact_truncated_runs_match_brute_force(field_cache, data):
    p, n = data.draw(st.sampled_from([(2, 4), (3, 3), (2, 5), (2, 6)]))
    r = data.draw(st.integers(1, min(n, 3)))
    s = data.draw(st.integers(1, min(n, 3)))
    total = gaussian_binomial(n - 1, r - 1, p) * gaussian_binomial(n - 1, s - 1, p)
    budget = data.draw(st.integers(1, total))
    _check_against_oracle(field_cache(p, n), r, s, data.draw(st.booleans()), budget)


def test_skip_matches_unreduced_scan(field_cache, monkeypatch):
    # the skip keeps the first minimal pair and counts skipped pairs as
    # decided, so every field of the result matches the unreduced scan's
    calls = _count_orbits(monkeypatch)
    for p, n in ((2, 4), (3, 3), (2, 5), (2, 6), (3, 4)):
        f = field_cache(p, n)
        for r in range(2, n):
            for s in range(1, n + 1):
                for floor in (True, False):
                    opts = SearchOptions(use_kappa_floor=floor)
                    assert _fields_of(mu_exact(f, r, s, opts)) == \
                        _fields_of(_unreduced(f, r, s, opts)), (p, n, r, s, floor)
    assert calls


def test_mu_randomized_is_reproducible_and_upper_bound(field_cache):
    f = field_cache(2, 6)
    r1 = mu_randomized(f, 3, 3, 500, seed=42)
    r2 = mu_randomized(f, 3, 3, 500, seed=42)
    assert r1.value == r2.value
    assert r1.witness_a == r2.witness_a and r1.witness_b == r2.witness_b
    assert not r1.exhaustive
    exact = mu_exact(f, 3, 3)
    assert r1.value >= exact.value
    assert product_span(r1.witness_a, r1.witness_b).dim == r1.value


def test_mu_randomized_finds_subfield_pair(field_cache):
    # kappa over divisors {1,2,3,6} at (3,3) is 3, met only by the F_8 span;
    # this seed samples it within 10^4 trials
    f = field_cache(2, 6)
    res = mu_randomized(f, 3, 3, 10000, seed=3)
    assert res.value == 3
    assert res.witness_a == res.witness_b


def test_mu_randomized_single_trial_bounds(field_cache):
    f = field_cache(2, 4)
    res = mu_randomized(f, 2, 2, 1, seed=0)
    assert res.value <= f.n
    for r, s, trials, message in [(0, 2, 1, "must lie in"), (2, 5, 1, "must lie in"),
                                  (2, 2, 0, "trials")]:
        with pytest.raises(ValueError, match=message):
            mu_randomized(f, r, s, trials, seed=0)
