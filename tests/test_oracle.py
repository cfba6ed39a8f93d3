"""The subfield-lattice stabilizer against the kernel-and-intersection oracle."""

import random

from hypothesis import given, settings, strategies as st

from oracle import (add, intersect, left_kernel, one_subspace, random_span, scale,
                    stabilizer_oracle, sum_with)
from subspace_products.kappa import divisors
from subspace_products.linalg import span
from subspace_products.products import product_span, stabilizer

ORACLE_FIELDS = ((2, 4), (2, 6), (2, 8), (3, 4), (5, 2))


def _assert_matches_oracle(v):
    got = stabilizer(v)
    want = stabilizer_oracle(v)
    assert (got.h.rows, got.g, got.is_subfield_verified) == \
        (want.h.rows, want.g, want.is_subfield_verified)
    return got


def test_left_kernel_annihilates(field_cache):
    for p, n in ((2, 8), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(29)
        for _ in range(200):
            rows = [rng.randrange(f.q) for _ in range(rng.randrange(1, n + 2))]
            kernel = left_kernel(f, rows)
            rank = span(f, rows).dim
            assert len(kernel) == len(rows) - rank
            for x in kernel:
                acc = 0
                xs = x
                for i in range(len(rows)):
                    xs, c = divmod(xs, f.p)
                    acc = add(f, acc, scale(f, c, rows[i]))
                assert acc == 0 and x != 0


def test_sum_and_intersection_idempotent(field_cache):
    f = field_cache(2, 6)
    rng = random.Random(3)
    for _ in range(100):
        u = random_span(f, rng, 3)
        assert sum_with(u, u) == u
        assert intersect(u, u) == u


def test_intersection_example_gf16(field_cache):
    f = field_cache(2, 4)
    g = f.subfield_generator(2)
    f4 = span(f, [1, g])
    u = span(f, [1, 2])      # <1, x>
    inter = intersect(f4, u)
    assert inter.contains(1)
    assert inter == one_subspace(f)


def test_stabilizer_matches_oracle_on_subfield_multiples(field_cache):
    # V = F_{p^d} * B for every d | n: the divisor loop passes at its first
    # candidate, passes after failures, or falls through to g = 1.
    for p, n in ORACLE_FIELDS:
        f = field_cache(p, n)
        rng = random.Random(31)
        seen = set()
        for d in divisors(n).degrees:
            gamma = f.subfield_generator(d)
            sub = [f.pow(gamma, i) for i in range(d)]
            for k in range(1, n // d + 1):
                for _ in range(6):
                    bs = [rng.randrange(1, f.q) for _ in range(k)]
                    v = span(f, [f.mul(x, b) for x in sub for b in bs])
                    st_v = _assert_matches_oracle(v)
                    assert st_v.g % d == 0
                    seen.add(st_v.g)
        assert seen == set(divisors(n).degrees), (p, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(ORACLE_FIELDS), data=st.data())
def test_stabilizer_matches_oracle_random(field_cache, spec, data):
    f = field_cache(*spec)
    elems = st.lists(st.integers(1, f.q - 1), min_size=1, max_size=f.n)
    v = span(f, data.draw(elems))
    _assert_matches_oracle(v)
    a = span(f, data.draw(elems))
    b = span(f, data.draw(elems))
    _assert_matches_oracle(product_span(a, b))
