import random

import pytest

from subspace_products.fields import ExtensionField
from subspace_products.kappa import divisors, kappa_rs
from subspace_products.linalg import one_subspace, span, whole_space
from subspace_products.products import (TowerSpec, kneser_check, optimal_pair,
                                        product_span, stabilizer, tower_construction)


def _random_nonzero_span(field, rng, k):
    while True:
        sp = span(field, [rng.randrange(field.q) for _ in range(k)])
        if not sp.is_zero():
            return sp


def test_product_with_one_is_identity(field_cache):
    f = field_cache(2, 6)
    rng = random.Random(1)
    one = one_subspace(f)
    for _ in range(50):
        b = _random_nonzero_span(f, rng, 3)
        assert product_span(one, b) == b


def test_product_of_subfield_with_itself(field_cache):
    f = field_cache(2, 4)
    g = f.subfield_generator(2)
    f4 = span(f, [1, g])
    assert product_span(f4, f4) == f4


def test_product_of_short_power_spans(field_cache):
    f = field_cache(2, 6)
    a = span(f, [f.pow(f.primitive, i) for i in range(3)])
    b = span(f, [f.pow(f.primitive, i) for i in range(2)])
    assert product_span(a, b).dim == 4


def test_product_rejects_zero(field_cache):
    f = field_cache(2, 4)
    with pytest.raises(ValueError):
        product_span(span(f, []), one_subspace(f))


def test_easy_estimates_hold_on_random_pairs(field_cache):
    for p, n in ((2, 8), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(2)
        for _ in range(2000):
            a = _random_nonzero_span(f, rng, rng.randrange(1, 4))
            b = _random_nonzero_span(f, rng, rng.randrange(1, 4))
            d = product_span(a, b).dim
            assert max(a.dim, b.dim) <= d <= a.dim * b.dim


def test_scaling_invariance(field_cache):
    f = field_cache(2, 6)
    rng = random.Random(3)
    for _ in range(200):
        a = _random_nonzero_span(f, rng, 2)
        b = _random_nonzero_span(f, rng, 3)
        c = rng.randrange(1, f.q)
        ca = span(f, [f.mul(c, r) for r in a.rows])
        assert product_span(ca, b).dim == product_span(a, b).dim
        assert stabilizer(product_span(ca, b)).h == stabilizer(product_span(a, b)).h


def test_power_span_product_dimension(field_cache):
    f = field_cache(2, 6)
    a = span(f, [f.pow(f.primitive, j) for j in range(3)])
    assert product_span(a, a).dim == 5


def test_stabilizer_whole_field_and_line(field_cache):
    f = field_cache(2, 6)
    st = stabilizer(whole_space(f))
    assert st.g == 6 and st.is_subfield_verified
    st = stabilizer(one_subspace(f))
    assert st.g == 1 and st.is_subfield_verified


def test_stabilizer_of_subfield_is_itself(field_cache):
    f = field_cache(2, 4)
    g = f.subfield_generator(2)
    f4 = span(f, [1, g])
    st = stabilizer(f4)
    assert st.g == 2 and st.h == f4 and st.is_subfield_verified


def test_stabilizer_properties_random(field_cache):
    for p, n in ((2, 8), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(4)
        for _ in range(300):
            v = _random_nonzero_span(f, rng, rng.randrange(1, n))
            st = stabilizer(v)
            assert st.is_subfield_verified
            assert st.h.contains(1)
            assert n % st.g == 0
            # absorption of the product pair and stabilizer-enlarged pair
            a = _random_nonzero_span(f, rng, 2)
            b = _random_nonzero_span(f, rng, 2)
            ab = product_span(a, b)
            h = stabilizer(ab).h
            assert product_span(h, ab) == ab
            ha = product_span(h, a)
            hb = product_span(h, b)
            assert product_span(ha, hb) == ab


def test_stabilizer_without_log_tables(field_cache):
    # GF(2^40) has no log tables: mul and subfield_generator run carry-less
    f = field_cache(2, 40)
    rng = random.Random(6)
    gamma8 = f.subfield_generator(8)
    f256 = [f.pow(gamma8, i) for i in range(8)]
    for k in (1, 2, 3):
        bs = [rng.randrange(1, f.q) for _ in range(k)]
        v = span(f, [f.mul(x, b) for x in f256 for b in bs])
        st = stabilizer(v)
        assert st.g % 8 == 0 and 40 % st.g == 0 and st.is_subfield_verified
        gamma = f.subfield_generator(st.g)
        assert st.h == span(f, [f.pow(gamma, i) for i in range(st.g)])


def test_kneser_trivial_cases(field_cache):
    f = field_cache(2, 6)
    w = whole_space(f)
    rep = kneser_check(w, w)
    assert rep.slack == 0 and rep.holds
    g = f.subfield_generator(3)
    f8 = span(f, [f.pow(g, i) for i in range(3)])
    rep = kneser_check(f8, f8)
    assert rep.dim_ab == 3 and rep.dim_h == 3 and rep.slack == 0 and rep.holds


def test_kneser_random_pairs(field_cache):
    f = field_cache(2, 8)
    rng = random.Random(5)
    for _ in range(500):
        a = _random_nonzero_span(f, rng, rng.randrange(1, 5))
        b = _random_nonzero_span(f, rng, rng.randrange(1, 5))
        assert kneser_check(a, b).holds


def test_optimal_pair_examples(field_cache):
    f81 = field_cache(3, 4)
    a, b, cert = optimal_pair(f81, 3, 3)
    assert cert.value == 4 and cert.h0 == 4
    assert a.dim == 3 and b.dim == 3
    assert product_span(a, b).dim == 4

    f64 = field_cache(2, 6)
    a, b, cert = optimal_pair(f64, 3, 5)
    assert cert.value == 6 and cert.h0 == 3 and cert.r0 == 1 and cert.s0 == 2
    assert product_span(a, b).dim == 6

    a, b, cert = optimal_pair(f64, 6, 6)
    assert a == whole_space(f64) and b == whole_space(f64) and cert.value == 6


def test_optimal_pair_contains_one_and_matches_kappa(field_cache):
    for p, n in ((2, 6), (3, 4)):
        f = field_cache(p, n)
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                a, b, cert = optimal_pair(f, r, s)
                assert a.dim == r and b.dim == s
                assert a.contains(1) and b.contains(1)
                assert cert.value == kappa_rs(r, s, divisors(n)).value
                assert product_span(a, b).dim == cert.value


def test_optimal_pair_range_errors(field_cache):
    f = field_cache(2, 4)
    with pytest.raises(ValueError):
        optimal_pair(f, 0, 2)
    with pytest.raises(ValueError):
        optimal_pair(f, 2, 5)


def test_tower_spec_decomposition(field_cache):
    f = field_cache(2, 6)
    spec = TowerSpec.for_dims(f, 2, 5, 3)
    assert (spec.q1, spec.r0) == (2, 1)
    assert (spec.q2, spec.s0) == (1, 1)
    assert spec.d == 3
    spec = TowerSpec.for_dims(f, 2, 6, 4)
    assert (spec.q1, spec.r0) == (2, 2)
    assert (spec.q2, spec.s0) == (1, 2)
    with pytest.raises(ValueError):
        TowerSpec.for_dims(f, 4, 2, 2)


def test_tower_construction_base_case(field_cache):
    f = field_cache(2, 6)
    spec = TowerSpec.for_dims(f, 2, 2, 2)  # q1 = q2 = 0
    m = span(f, [1, f.subfield_generator(2)])
    a, b = tower_construction(spec, m, m)
    assert a == m and b == m


def test_tower_construction_example(field_cache):
    f = field_cache(2, 6)
    spec = TowerSpec.for_dims(f, 2, 5, 3)
    a0 = one_subspace(f)
    b0 = one_subspace(f)
    a, b = tower_construction(spec, a0, b0)
    assert a.dim == 5 and b.dim == 3


def test_tower_construction_validates_inputs(field_cache):
    f = field_cache(2, 6)
    spec = TowerSpec.for_dims(f, 2, 5, 3)
    g3 = f.subfield_generator(3)
    f8 = span(f, [f.pow(g3, i) for i in range(3)])
    with pytest.raises(ValueError):
        tower_construction(spec, f8, one_subspace(f))  # F_8 not inside F_4
    with pytest.raises(ValueError):
        tower_construction(spec, span(f, [1, f.subfield_generator(2)]),
                           one_subspace(f))  # wrong dim
