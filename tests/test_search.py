import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import subspace_products.search as search

from oracle import mu_field_brute
from subspace_products.fields import ExtensionField
from subspace_products.kappa import divisors, kappa_rs
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


def test_mu_exact_canonicalization_is_lossless(field_cache):
    # full search against normalized search, floor pruning limited to the
    # elementary bound so the comparison is meaningful
    f = field_cache(2, 4)
    for r in range(1, 5):
        for s in range(r, 5):
            full = mu_exact(f, r, s, SearchOptions(canonicalize=False,
                                                   use_kappa_floor=False))
            canon = mu_exact(f, r, s, SearchOptions(use_kappa_floor=False))
            assert full.value == canon.value


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


def test_mu_exact_worker_determinism(field_cache):
    f = field_cache(2, 5)
    runs = [mu_exact(f, 3, 3, SearchOptions(workers=w, use_kappa_floor=False))
            for w in (1, 4)]
    assert runs[0].value == runs[1].value
    assert runs[0].witness_a == runs[1].witness_a
    assert runs[0].witness_b == runs[1].witness_b


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


def _check_against_oracle(f, r, s, canonicalize, use_kappa_floor, budget):
    floor = kappa_rs(r, s, divisors(f.n)).value if use_kappa_floor else max(r, s)
    res = mu_exact(f, r, s, SearchOptions(budget=budget, canonicalize=canonicalize,
                                          use_kappa_floor=use_kappa_floor))
    got = (res.value, res.witness_a.rows, res.witness_b.rows, res.exhaustive,
           res.pairs_examined)
    assert got == mu_field_brute(f, r, s, canonicalize, floor, budget), \
        (f.p, f.n, r, s, canonicalize, use_kappa_floor, budget)


def test_mu_exact_matches_brute_force(field_cache):
    # the walk skips subtrees; the oracle computes every product span in full
    cells = [(2, 4, r, s, canon) for r in range(1, 5) for s in range(1, 5)
             for canon in (True, False)]
    cells += [(3, 3, r, s, canon) for r in range(1, 4) for s in range(1, 4)
              for canon in (True, False)]
    cells += [(2, 5, r, s, True) for r in range(1, 4) for s in range(1, 4)]
    for p, n, r, s, canon in cells:
        for use_kappa_floor in (True, False):
            _check_against_oracle(field_cache(p, n), r, s, canon, use_kappa_floor, 10 ** 9)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mu_exact_truncated_runs_match_brute_force(field_cache, data):
    p, n, canon = data.draw(st.sampled_from([(2, 4, True), (2, 4, False), (3, 3, True),
                                             (3, 3, False), (2, 5, True)]))
    r = data.draw(st.integers(1, min(n, 3)))
    s = data.draw(st.integers(1, min(n, 3)))
    total = 1
    for k in (r, s):
        total *= (gaussian_binomial(n - 1, k - 1, p) if canon
                  else gaussian_binomial(n, k, p))
    budget = data.draw(st.integers(1, total))
    _check_against_oracle(field_cache(p, n), r, s, canon, data.draw(st.booleans()), budget)


class _FakePool:
    """In-process stand-in for multiprocessing.Pool that starts no process."""

    def __init__(self, processes, initializer, initargs):
        _FakeContext.processes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, items):
        return map(func, items)

    def terminate(self):
        pass


class _FakeContext:
    processes: list = []
    Pool = _FakePool


def test_mu_exact_caps_worker_processes(field_cache, monkeypatch):
    monkeypatch.setattr(search, "get_context", lambda: _FakeContext)
    monkeypatch.setattr(search, "_W", {})
    monkeypatch.setattr(_FakeContext, "processes", [])
    f = field_cache(2, 5)
    opts = SearchOptions(use_kappa_floor=False)
    serial = mu_exact(f, 3, 3, opts)
    for workers in (2, 5000):
        res = mu_exact(f, 3, 3, SearchOptions(workers=workers, use_kappa_floor=False))
        assert (res.value, res.witness_a, res.witness_b) == \
            (serial.value, serial.witness_a, serial.witness_b)
    # 15 canonical 3-dimensional subspaces of GF(2^5) give at most 15 chunks
    assert _FakeContext.processes == [min(2, os.cpu_count() or 1),
                                      min(15, os.cpu_count() or 1)]


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
