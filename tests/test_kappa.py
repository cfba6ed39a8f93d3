import time

import pytest

from subspace_products.kappa import (AdmissibleDegreeSet, INFINITE, MAX_TABLE_N, divisors,
                                     f_h, kappa_rs, kappa_table)


def test_f_h_with_trivial_degree_is_r_plus_s_minus_1():
    for r in range(1, 20):
        for s in range(1, 20):
            assert f_h(r, s, 1) == r + s - 1


def test_f_h_hand_evaluated():
    # (ceil(11/4) + ceil(4/4) - 1) * 4 = (3 + 1 - 1) * 4
    assert f_h(11, 4, 4) == 12


def test_f_h_diagonal_equals_h():
    for h in (1, 2, 3, 5, 8, 13):
        assert f_h(h, h, h) == h


def test_f_h_general_properties():
    for r in range(1, 12):
        for s in range(1, 12):
            for h in range(1, 12):
                v = f_h(r, s, h)
                assert v % h == 0
                assert v >= max(r, s)


def test_f_h_rejects_zero():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            f_h(*bad)


def test_divisors():
    assert divisors(16).degrees == (1, 2, 4, 8, 16)
    assert divisors(1).degrees == (1,)
    assert divisors(6).degrees == (1, 2, 3, 6)


def test_divisors_match_trial_division():
    for n in range(1, 2001):
        assert divisors(n).degrees == tuple(d for d in range(1, n + 1) if n % d == 0), n


@pytest.mark.parametrize("n, count", [(2 ** 61 - 1, 2), (10 ** 18, 361),
                                      (4294967279 * 4294967291, 4)])
def test_divisors_of_large_n_are_fast(n, count):
    t0 = time.perf_counter()
    degrees = divisors(n).degrees
    assert time.perf_counter() - t0 < 1
    assert len(degrees) == count and degrees[-1] == n
    assert all(n % d == 0 for d in degrees)


def test_divisors_refuse_n_past_2_64():
    divisors(2 ** 64 - 1)
    for n in (2 ** 64, 10 ** 30):
        with pytest.raises(ValueError, match="2\\^64"):
            divisors(n)


def test_degree_set_validation():
    with pytest.raises(ValueError):
        AdmissibleDegreeSet(n=6, degrees=())
    with pytest.raises(ValueError):
        AdmissibleDegreeSet(n=6, degrees=(2, 3))  # missing 1
    with pytest.raises(ValueError):
        AdmissibleDegreeSet(n=6, degrees=(1, 4))  # 4 does not divide 6
    with pytest.raises(ValueError):
        AdmissibleDegreeSet(n=6, degrees=(1, 3, 3))  # not strictly ascending
    # infinite sentinel skips divisibility
    AdmissibleDegreeSet(n=INFINITE, degrees=(1, 7))


def test_query_validation():
    d = divisors(4)
    with pytest.raises(ValueError):
        kappa_rs(0, 1, d)
    with pytest.raises(ValueError):
        kappa_rs(1, 5, d)
    kappa_rs(1, 7, AdmissibleDegreeSet(n=INFINITE, degrees=(1,)))


def test_kappa_module_is_not_shadowed():
    # the package must not rebind its `kappa` attribute to a function
    import subspace_products.kappa as k
    assert k.divisors(6).degrees == (1, 2, 3, 6)


def test_kappa_degree_16_spot_values():
    d16 = divisors(16)
    assert kappa_rs(11, 4, d16).value == 12
    assert kappa_rs(11, 5, d16).value == 15


def test_kappa_prime_degree_is_cauchy_davenport_bound():
    p = 7
    degs = AdmissibleDegreeSet(n=p, degrees=(1, p))
    for r in range(1, p + 1):
        for s in range(1, p + 1):
            assert kappa_rs(r, s, degs).value == min(r + s - 1, p)


def test_kappa_one_one():
    for n in (1, 4, 12, 30):
        assert kappa_rs(1, 1, divisors(n)).value == 1


def test_result_invariants():
    for n in (6, 12, 16, 24):
        degs = divisors(n)
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                res = kappa_rs(r, s, degs)
                assert res.h0 in degs.degrees
                assert res.value == f_h(r, s, res.h0)
                assert res.value % res.h0 == 0
                assert res.r0 == -(-r // res.h0) and res.s0 == -(-s // res.h0)
                assert all(res.value <= f_h(r, s, h) for h in degs.degrees)
                # smallest minimizer wins ties
                assert all(f_h(r, s, h) > res.value
                           for h in degs.degrees if h < res.h0)
                # a minimizer never needs to exceed r+s-1
                assert res.h0 <= r + s - 1


def test_symmetry_and_monotonicity_all_n_up_to_64():
    for n in range(1, 65):
        degs = divisors(n)
        vals = [[kappa_rs(r, s, degs).value for s in range(1, n + 1)]
                for r in range(1, n + 1)]
        for r in range(n):
            for s in range(n):
                assert vals[r][s] == vals[s][r]
                if r + 1 < n:
                    assert vals[r][s] <= vals[r + 1][s]
                if s + 1 < n:
                    assert vals[r][s] <= vals[r][s + 1]
                assert vals[r][s] <= r + s + 1  # r+s-1 with 1-based dims
                # saturation on the antidiagonal
                if (r + 1) + (s + 1) >= n + 1:
                    assert vals[r][s] == n


def test_upper_bound_tight_for_trivial_degree_set():
    degs = AdmissibleDegreeSet(n=INFINITE, degrees=(1,))
    for r in range(1, 10):
        for s in range(1, 10):
            assert kappa_rs(r, s, degs).value == r + s - 1


def test_kappa_table_basics():
    t = kappa_table(1)
    assert t == [[1]]
    t6 = kappa_table(6)
    assert t6[0] == [1, 2, 3, 4, 5, 6]
    assert t6[2] == [3, 3, 3, 6, 6, 6]
    for n in (2, 5, 8, 12):
        t = kappa_table(n)
        assert t[0] == list(range(1, n + 1))
        assert all(t[r][s] == t[s][r] for r in range(n) for s in range(n))


def test_kappa_table_refuses_large_n_at_once():
    # the table has n^2 entries: n = 100000 would run for hours
    for n in (MAX_TABLE_N + 1, 100000, 10 ** 12):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="table limit"):
            kappa_table(n)
        assert time.perf_counter() - t0 < 0.1


def test_kappa_table_degree_mismatch():
    with pytest.raises(ValueError):
        kappa_table(6, divisors(4))
