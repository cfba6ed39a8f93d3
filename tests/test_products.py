import random

import pytest

from oracle import one_subspace, rref_rows, stabilizer_oracle, whole_space
from subspace_products.cli import main
from subspace_products.fields import ExtensionField
from subspace_products.kappa import divisors, kappa_rs
from subspace_products.linalg import span
from subspace_products.products import (kneser_check, optimal_pair, product_span,
                                        stabilizer, tower_construction)


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


@pytest.mark.parametrize("p, n, r, s, d", ((2, 8, 3, 5, 2), (2, 12, 5, 7, 3), (3, 6, 3, 4, 2)))
def test_product_span_matches_the_span_of_every_product(field_cache, p, n, r, s, d):
    # random pairs, whose <AB> is nearly always F, and H*A0, H*B0 for the
    # subfield H of degree d, whose <AB> is a proper H-space
    f = field_cache(p, n)
    rng = random.Random(p * 1000 + n)
    h = [f.pow(f.subfield_generator(d), i) for i in range(d)]

    def h_times(k):
        return span(f, [f.mul(x, y) for y in [rng.randrange(1, f.q) for _ in range(k)]
                        for x in h])

    whole = 0
    for _ in range(10):
        pairs = ((_random_nonzero_span(f, rng, r), _random_nonzero_span(f, rng, s), False),
                 (h_times(1), h_times(2), True))
        for a, b, over_h in pairs:
            products = [f.mul(x, y) for x in a.rows for y in b.rows]
            ab = product_span(a, b)
            assert ab == span(f, products) and ab.rows == rref_rows(f, products)
            st = stabilizer(ab)
            assert _report(st) == _report(stabilizer_oracle(ab))
            assert st.is_subfield_verified and (st.g == n) == (ab.dim == n)
            if over_h:
                assert ab.dim < n and st.g % d == 0
            else:
                whole += ab.dim == n
    assert whole >= 5


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


def _report(st):
    return st.h.rows, st.g, st.is_subfield_verified


def test_stabilizer_matches_oracle_under_two_moduli():
    # Two moduli of GF(2^6) give the same subfields as sets but different
    # element indices; the reports must follow each field's own indices.
    f1 = ExtensionField(2, 6, (1, 1, 0, 0, 0, 0, 1))
    f2 = ExtensionField(2, 6, (1, 0, 0, 0, 0, 1, 1))
    for d in (2, 3):
        subs = [span(f, [f.pow(f.subfield_generator(d), i) for i in range(d)])
                for f in (f1, f2)]
        assert subs[0].rows != subs[1].rows
        for sub in subs:
            assert _report(stabilizer(sub)) == (sub.rows, d, True)
            assert _report(stabilizer(sub)) == _report(stabilizer_oracle(sub))
    rng = random.Random(12)
    for _ in range(40):
        for f in (f1, f2):
            # spans closed under F_4 or F_8 have a proper stabilizer
            rows = [rng.randrange(1, f.q) for _ in range(rng.randrange(1, 4))]
            gamma = f.subfield_generator(rng.choice((1, 2, 3)))
            v = span(f, rows + [f.mul(gamma, x) for x in rows])
            assert _report(stabilizer(v)) == _report(stabilizer_oracle(v))


def _stabilizer_exit_code(capsys, tmp_path, v):
    path = tmp_path / "v.txt"
    path.write_text(v.to_text())
    code = main(["stabilizer", "--field", f"{v.field.p}^{v.field.n}", "--subspace", str(path)])
    capsys.readouterr()
    return code


def test_certificate_rejects_h_that_is_not_a_subfield(monkeypatch, capsys, tmp_path, field_cache):
    # V = F_64*b in GF(2^12).  The degree-6 generator is replaced by a
    # primitive element, which V does not absorb, and the degree-3 one by a
    # generator of F_64, which V does absorb.  The lattice then stops at
    # d = 3, where span{1, gamma, gamma^2} is not closed: gamma^3 lies
    # outside it, though gamma*V still lies inside V.
    f = field_cache(2, 12)
    v = span(f, [f.mul(f.pow(f.subfield_generator(6), i), 0b101101) for i in range(6)])
    assert stabilizer(v).g == 6
    real = ExtensionField.subfield_generator
    monkeypatch.setattr(ExtensionField, "subfield_generator",
                        lambda self, d: real(self, {6: 12, 3: 6}.get(d, d)))
    st = stabilizer(v)
    assert (st.g, st.is_subfield_verified) == (3, False)
    assert _stabilizer_exit_code(capsys, tmp_path, v) == 4


def test_certificate_rejects_v_that_h_does_not_absorb(monkeypatch, capsys, tmp_path, field_cache):
    # V = F_16*b in GF(2^12).  The lattice meets the true degree-4 generator
    # and stops at d = 4; every later call for d = 4 gets a generator of F_8,
    # as if the lattice had erred.  H = span{1, gamma, gamma^2, gamma^3} =
    # F_8 is a subfield (gamma^4 lies in it), but gamma*V does not lie in V.
    f = field_cache(2, 12)
    v = span(f, [f.mul(f.pow(f.subfield_generator(4), i), 0b101101) for i in range(4)])
    assert stabilizer(v).g == 4
    real = ExtensionField.subfield_generator
    seen = set()

    def generator(self, d):
        first = (self, d) not in seen
        seen.add((self, d))
        return real(self, 3 if d == 4 and not first else d)

    monkeypatch.setattr(ExtensionField, "subfield_generator", generator)
    st = stabilizer(v)
    assert (st.g, st.is_subfield_verified) == (3, False)
    seen.clear()
    assert _stabilizer_exit_code(capsys, tmp_path, v) == 4


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


@pytest.mark.parametrize("p, n, r, s, value, degrees", [
    (2, 12, 5, 7, 11, [1]), (3, 6, 3, 4, 6, [1, 6]), (3, 10, 4, 6, 8, [2]), (2, 40, 3, 5, 5, [5])],
    ids=("2^12", "3^6", "3^10", "2^40"))
def test_construction_leaves_fields_without_tables(monkeypatch, p, n, r, s, value, degrees):
    # the CLI's construct cells: certifying the construction takes a few
    # dozen products, fewer than the tables would pay for, and raises the
    # primitive element once for each subfield generator it reads
    exponents = {(p ** n - 1) // (p ** d - 1) % (p ** n - 1): d for d in divisors(n).degrees}
    raised = []
    pow_raw = ExtensionField._pow_raw
    monkeypatch.setattr(ExtensionField, "_pow_raw", lambda self, a, e: (
        raised.append(exponents[e]) if a == self.primitive and e in exponents else None,
        pow_raw(self, a, e))[1])
    f = ExtensionField(p, n)
    a, b, cert = optimal_pair(f, r, s)
    report = kneser_check(a, b)
    assert report.dim_ab == cert.value == value and report.holds and report.is_subfield_verified
    assert f._exp is None and f._log is None
    assert sorted(raised) == degrees


def test_optimal_pair_range_errors(field_cache):
    f = field_cache(2, 4)
    with pytest.raises(ValueError):
        optimal_pair(f, 0, 2)
    with pytest.raises(ValueError):
        optimal_pair(f, 2, 5)


def test_tower_spec_decomposition(field_cache):
    # r = q*m + r0 with r0 in [1, m]: over m = 2, (5, 3) takes 1-dimensional
    # A0 and B0 and (6, 4) takes 2-dimensional ones
    f = field_cache(2, 6)
    one = one_subspace(f)
    m = span(f, [1, f.subfield_generator(2)])
    a, b = tower_construction(f, 2, 5, 3, one, one)
    assert (a.dim, b.dim) == (5, 3)
    a, b = tower_construction(f, 2, 6, 4, m, m)
    assert (a.dim, b.dim) == (6, 4)
    with pytest.raises(ValueError, match="does not divide"):
        tower_construction(f, 4, 2, 2, one, one)


def test_tower_construction_base_case(field_cache):
    f = field_cache(2, 6)
    m = span(f, [1, f.subfield_generator(2)])
    a, b = tower_construction(f, 2, 2, 2, m, m)  # q1 = q2 = 0
    assert a == m and b == m


def test_tower_construction_example(field_cache):
    f = field_cache(2, 6)
    a0 = one_subspace(f)
    b0 = one_subspace(f)
    a, b = tower_construction(f, 2, 5, 3, a0, b0)
    assert a.dim == 5 and b.dim == 3


def test_tower_construction_validates_inputs(field_cache):
    f = field_cache(2, 6)
    one = one_subspace(f)
    zero = span(f, [])
    m = span(f, [1, f.subfield_generator(2)])
    g3 = f.subfield_generator(3)
    f8 = span(f, [f.pow(g3, i) for i in range(3)])
    for args, message in [
        ((4, 5, 3, one, one), "does not divide"),
        ((0, 5, 3, one, one), "does not divide"),
        ((2, 0, 3, one, one), "must lie in"),
        ((2, 5, 7, one, one), "must lie in"),
        ((2, 5, 3, zero, one), "zero subspace"),
        ((2, 5, 3, one, zero), "zero subspace"),
        ((2, 5, 3, f8, one), "contained in the subfield M"),  # F_8 not inside F_4
        ((2, 5, 3, one, f8), "contained in the subfield M"),
        ((2, 5, 3, m, one), "do not match"),
        ((2, 5, 3, one, m), "do not match"),
        ((2, 5, 3, one_subspace(field_cache(2, 4)), one), "different ambient fields"),
        ((2, 5, 3, one, one_subspace(field_cache(2, 4))), "different ambient fields"),
    ]:
        with pytest.raises(ValueError, match=message):
            tower_construction(f, *args)
    # inside M = F_16 of GF(2^8), {1, gamma} * {1, gamma^2} spans all of M
    f256 = field_cache(2, 8)
    gamma = f256.subfield_generator(4)
    with pytest.raises(ValueError, match="too large"):
        tower_construction(f256, 4, 2, 2, span(f256, [1, gamma]),
                           span(f256, [1, f256.mul(gamma, gamma)]))
    # a lift over an element of degree 1 over M, not n/m = 3, is dependent;
    # the tables are built first, from the true generator
    low = ExtensionField(2, 6)
    low._build_tables()
    low.primitive = low.subfield_generator(2)
    with pytest.raises(AssertionError, match="dependent basis"):
        tower_construction(low, 2, 5, 3, one_subspace(low), one_subspace(low))
