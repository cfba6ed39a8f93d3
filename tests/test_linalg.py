import random

import pytest

from oracle import add, intersect, reduce_against, rref_rows, scale
from subspace_products.fields import ExtensionField
from subspace_products.linalg import Subspace, span, whole_space


def _random_span(field, rng, k):
    return span(field, [rng.randrange(field.q) for _ in range(k)])


def test_span_of_scalar_multiples_is_a_line():
    f = ExtensionField(5, 2)
    v = 7
    assert span(f, [v, scale(f, 2, v), scale(f, 3, v)]).dim == 1


def test_span_empty_is_zero():
    f = ExtensionField(2, 4)
    z = span(f, [])
    assert z.dim == 0 and z.is_zero()
    assert z.contains(0) and not z.contains(1)


def test_span_power_basis_is_whole_field(field_cache):
    f = field_cache(2, 4)
    powers = [f.pow(2, i) for i in range(4)]  # 1, x, x^2, x^3
    assert span(f, powers) == whole_space(f)


def test_rref_canonical_form_properties(field_cache):
    for p, n in ((2, 8), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(11)
        for _ in range(200):
            sp = _random_span(f, rng, rng.randrange(1, n + 1))
            coeffs = sp.basis_coeffs()
            pivots = [next(j for j, c in enumerate(row) if c) for row in coeffs]
            assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
            for i, row in enumerate(coeffs):
                assert row[pivots[i]] == 1
                for k, other in enumerate(coeffs):
                    if k != i:
                        assert other[pivots[i]] == 0


def test_rref_canonicity_under_generator_mixing(field_cache):
    # 10^4 regenerations: permuted and row-mixed generating sets give the
    # identical basis matrix
    for p, n, rounds in ((2, 8, 5000), (3, 4, 5000)):
        f = field_cache(p, n)
        rng = random.Random(13)
        for _ in range(rounds):
            gens = [rng.randrange(f.q) for _ in range(rng.randrange(1, n + 2))]
            base = span(f, gens)
            mixed = list(gens)
            rng.shuffle(mixed)
            # append random combinations of the originals
            for _ in range(2):
                acc = 0
                for g in gens:
                    acc = add(f, acc, scale(f, rng.randrange(f.p), g))
                mixed.append(acc)
            assert span(f, mixed) == base


# GF(2^40) multiplies carry-less; GF(3^11), GF(7^6) and GF(257^2) are past the
# coefficient cache, and 257 needs pow(c, -1, p) beyond small residues.
REFERENCE_FIELDS = ((2, 8), (2, 40), (3, 4), (5, 2), (3, 11), (7, 6), (257, 2))


@pytest.mark.parametrize("p, n", REFERENCE_FIELDS)
def test_span_matches_reference_elimination(field_cache, p, n):
    f = field_cache(p, n)
    rng = random.Random(p * 1000 + n)
    for _ in range(300):
        gens = [rng.randrange(f.q) for _ in range(rng.randrange(0, n + 3))]
        if gens and rng.random() < 0.5:
            # dependent sets: repeats, zero, and combinations of earlier rows
            acc = 0
            for g in gens:
                acc = add(f, acc, scale(f, rng.randrange(p), g))
            gens += [acc, 0, rng.choice(gens)]
            rng.shuffle(gens)
        sp = span(f, gens)
        assert sp.rows == rref_rows(f, gens), (p, n, gens)
        probes = gens + [rng.randrange(f.q) for _ in range(3)]
        for e in probes:
            assert sp.reduce(e) == reduce_against(f, sp.rows, e), (p, n, gens, e)
    assert span(f, []).rows == rref_rows(f, []) == ()


def test_contains_every_generator(field_cache):
    for p, n in ((2, 6), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(5)
        for _ in range(300):
            gens = [rng.randrange(f.q) for _ in range(3)]
            sp = span(f, gens)
            for g in gens:
                assert sp.contains(g)
            # membership of random combinations, non-membership of random
            # elements matches reduction
            acc = 0
            for g in gens:
                acc = add(f, acc, scale(f, rng.randrange(f.p), g))
            assert sp.contains(acc)


def test_grassmann_identity(field_cache):
    for p, n, rounds in ((2, 8, 10000), (3, 4, 2000)):
        f = field_cache(p, n)
        rng = random.Random(17)
        for _ in range(rounds):
            u = _random_span(f, rng, rng.randrange(1, n + 1))
            v = _random_span(f, rng, rng.randrange(1, n + 1))
            su = u.sum_with(v)
            iu = intersect(u, v)
            assert su.dim + iu.dim == u.dim + v.dim
            for r in iu.rows:
                assert u.contains(r) and v.contains(r)


def test_zero_and_whole(field_cache):
    f = field_cache(2, 6)
    w = whole_space(f)
    assert w.dim == 6
    assert all(w.contains(a) for a in range(0, f.q, 7))
    assert span(f, []).sum_with(w) == w


def test_equality_requires_same_field():
    f1 = ExtensionField(2, 4)
    f2 = ExtensionField(2, 4, modulus=(1, 1, 1, 1, 1))
    assert span(f1, [1]) != span(f2, [1])
    with pytest.raises(ValueError):
        span(f1, [1]).sum_with(span(f2, [1]))


def test_text_round_trip(field_cache):
    for p, n in ((2, 6), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(23)
        for _ in range(50):
            sp = _random_span(f, rng, 3)
            again = Subspace.from_text(f, sp.to_text())
            assert again == sp
    f = field_cache(2, 6)
    with pytest.raises(ValueError):
        Subspace.from_text(f, "1,0,0\n")            # wrong length
    with pytest.raises(ValueError):
        Subspace.from_text(f, "1,0,0,0,0,oops\n")

