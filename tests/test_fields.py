import itertools
import random

import pytest

from oracle import add, multiplicative_order, neg
from subspace_products.fields import (ExtensionField, find_irreducible, is_irreducible,
                                      is_prime, parse_field_spec, parse_modulus,
                                      poly_str, prime_factors)
from subspace_products.linalg import span


def test_find_irreducible_known_values():
    assert find_irreducible(2, 1) == (0, 1)                 # x
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)        # x^4+x+1
    assert find_irreducible(3, 2) == (1, 0, 1)              # x^2+1


def test_find_irreducible_scan_agrees_with_test():
    # every returned polynomial passes the irreducibility test, and nothing
    # smaller does
    for p, n in ((2, 5), (3, 3), (5, 2)):
        found = find_irreducible(p, n)
        assert is_irreducible(found, p)
        value = sum(c * p ** i for i, c in enumerate(found[:-1]))
        for v in range(value):
            coeffs = []
            w = v
            for _ in range(n):
                w, c = divmod(w, p)
                coeffs.append(c)
            assert not is_irreducible(coeffs + [1], p)


def test_is_irreducible_rejects_products():
    # (x^2+1)(x^2+x+2) over F_3
    assert not is_irreducible((2, 1, 0, 1, 1), 3)
    assert not is_irreducible((1, 0, 2, 0, 1), 3)  # (x^2+1)^2 = x^4+2x^2+1
    assert is_irreducible((1, 0, 1), 3)


def test_primality_and_factoring():
    assert is_prime(2) and is_prime(65521) and not is_prime(1) and not is_prime(65536)
    assert prime_factors(2 ** 12 - 1) == (3, 5, 7, 13)
    assert prime_factors(2 ** 31 - 1) == (2147483647,)
    assert prime_factors(1) == ()


def test_construction_validation():
    with pytest.raises(ValueError):
        ExtensionField(4, 2)            # p not prime
    with pytest.raises(ValueError):
        ExtensionField(65537, 1)        # p too large
    with pytest.raises(ValueError):
        ExtensionField(2, 0)
    with pytest.raises(ValueError):
        ExtensionField(2, 64)           # 2^64 over the size bound
    with pytest.raises(ValueError):
        ExtensionField(3, 2, modulus=(2, 0, 1))   # x^2+2 = (x+1)(x+2)
    with pytest.raises(ValueError):
        ExtensionField(3, 2, modulus=(1, 1))      # wrong length
    # explicit valid override
    f = ExtensionField(2, 4, modulus=(1, 1, 1, 1, 1))
    assert f.modulus == (1, 1, 1, 1, 1)


def test_construction_is_deterministic():
    a = ExtensionField(2, 6)
    b = ExtensionField(2, 6)
    assert a.modulus == b.modulus
    assert a.primitive == b.primitive
    assert a == b


def test_mul_known_value(field_cache):
    f = field_cache(2, 4)
    x3, x = 8, 2
    assert f.mul(x3, x) == 3  # x^4 = x + 1 under x^4+x+1


def test_identity_and_inverse_exhaustive():
    for p, n in ((2, 4), (3, 2), (5, 1), (2, 8)):
        f = ExtensionField(p, n)
        for a in range(f.q):
            assert f.mul(a, 1) == a
            assert add(f, a, 0) == a
            assert add(f, a, neg(f, a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_frobenius_fixed_point_exhaustive(field_cache):
    for p, n in ((2, 4), (3, 3), (2, 12), (3, 6)):
        f = field_cache(p, n)
        for a in range(f.q):
            assert f.pow(a, f.q) == a


def test_field_axioms_exhaustive_small():
    for p, n in ((2, 4), (3, 2), (5, 1), (2, 6)):
        f = ExtensionField(p, n)
        elems = range(f.q)
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, add(f, b, c)) == add(f, f.mul(a, b), f.mul(a, c))


def test_field_axioms_sampled_large(field_cache):
    rng = random.Random(7)
    for p, n in ((2, 12), (3, 6), (2, 20), (65521, 1)):
        f = ExtensionField(p, n) if (p, n) == (2, 20) or p == 65521 else field_cache(p, n)
        for _ in range(300):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, add(f, b, c)) == add(f, f.mul(a, b), f.mul(a, c))
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_pow_cross_checks():
    f = ExtensionField(3, 4)
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(1, f.q)
        e = rng.randrange(0, 200)
        direct = 1
        for _ in range(e):
            direct = f.mul(direct, a)
        assert f.pow(a, e) == direct
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_primitive_known_values(field_cache):
    assert ExtensionField(2, 1).primitive == 1
    assert field_cache(2, 4).primitive == 2          # x has order 15
    assert ExtensionField(7, 1).primitive == 3       # least primitive root mod 7


def test_primitive_has_full_order():
    for p, n in ((2, 6), (3, 3), (5, 2), (13, 1)):
        f = ExtensionField(p, n)
        assert multiplicative_order(f, f.primitive) == f.q - 1


def test_subfield_generator_trivial_cases(field_cache):
    f = field_cache(2, 6)
    assert f.subfield_generator(f.n) == f.primitive
    g1 = f.subfield_generator(1)
    assert multiplicative_order(f, g1) == f.p - 1 if f.p > 2 else g1 == 1


def test_subfield_generator_gf16(field_cache):
    f = field_cache(2, 4)
    g = f.subfield_generator(2)
    assert g == f.pow(f.primitive, 5)
    assert add(f, add(f, f.mul(g, g), g), 1) == 0  # g^2 + g + 1 = 0


def test_subfield_generator_rejects_nondivisor(field_cache):
    with pytest.raises(ValueError):
        field_cache(2, 6).subfield_generator(4)


def test_subfield_span_is_the_subfield(field_cache):
    # span{1, g, ..., g^(d-1)} = fixed points of the d-th Frobenius power,
    # checked over every element of each field
    for p, n in ((2, 4), (2, 6), (3, 4), (2, 12), (3, 6)):
        f = field_cache(p, n)
        for d in range(1, n + 1):
            if n % d:
                continue
            g = f.subfield_generator(d)
            sub = span(f, [f.pow(g, i) for i in range(d)])
            assert sub.dim == d
            assert sub.contains(1)
            for a in sub.rows:
                for b in sub.rows:
                    assert sub.contains(f.mul(a, b))
            pd = p ** d
            for a in range(f.q):
                assert sub.contains(a) == (f.pow(a, pd) == a)


def test_parse_helpers():
    assert parse_field_spec("2^6") == (2, 6)
    assert parse_field_spec("7") == (7, 1)
    assert parse_modulus("1,1,0,0,1") == (1, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        parse_modulus("1,x,0")
    f = ExtensionField.from_spec("2^4", "1,1,0,0,1")
    assert f.modulus == (1, 1, 0, 0, 1)
    assert poly_str((1, 1, 0, 0, 1)) == "x^4+x+1"
    assert poly_str((0, 1)) == "x"


def test_pickle_roundtrip(field_cache):
    import pickle
    f = field_cache(3, 4)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.primitive == f.primitive
