import itertools
import random
import time

import pytest

from oracle import (add, field_tables, has_root, monic_irreducibles, mul, multiplicative_order,
                    neg, poly_mul, power)
from subspace_products.fields import (ExtensionField, find_irreducible, is_irreducible,
                                      is_prime, lane_layout, parse_field_spec,
                                      parse_modulus, poly_str, prime_factors)
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


@pytest.mark.parametrize("p, top", ((2, 10), (3, 6), (5, 4)))
def test_is_irreducible_matches_sieve(p, top):
    # every monic polynomial of degree <= top; the sieve's counts must also
    # satisfy Gauss's p^n = sum over d | n of d * (irreducibles of degree d)
    counts = {}
    for n in range(1, top + 1):
        irreducible = monic_irreducibles(p, n)
        counts[n] = len(irreducible)
        assert sum(d * counts[d] for d in counts if n % d == 0) == p ** n
        for v in range(p ** n):
            coeffs = tuple(v // p ** i % p for i in range(n)) + (1,)
            assert is_irreducible(coeffs, p) == (coeffs in irreducible), coeffs


def test_is_irreducible_sampled_large_prime():
    # degree 2 and 3 are irreducible iff rootless; degree 4 products never are
    p = 65521
    rng = random.Random(65521)
    for n in (2, 3):
        seen = set()
        for _ in range(8):
            coeffs = tuple(rng.randrange(p) for _ in range(n)) + (1,)
            expected = not has_root(coeffs, p)
            assert is_irreducible(coeffs, p) == expected, coeffs
            seen.add(expected)
        assert seen == {True, False}
    for _ in range(20):
        a, b = ([rng.randrange(p), rng.randrange(p), 1] for _ in range(2))
        assert not is_irreducible(poly_mul(a, b, p), p)


def test_is_irreducible_rejects_products():
    # (x^2+1)(x^2+x+2) over F_3
    assert not is_irreducible((2, 1, 0, 1, 1), 3)
    assert not is_irreducible((1, 0, 2, 0, 1), 3)  # (x^2+1)^2 = x^4+2x^2+1
    assert is_irreducible((1, 0, 1), 3)
    for coeffs in ((1, 0, 2), (1, 3, 1), (-1, 0, 1)):   # not monic; not residues mod 3
        with pytest.raises(ValueError):
            is_irreducible(coeffs, 3)


def test_primality_and_factoring():
    assert is_prime(2) and is_prime(65521) and not is_prime(1) and not is_prime(65536)
    assert prime_factors(2 ** 12 - 1) == (3, 5, 7, 13)
    assert prime_factors(2 ** 31 - 1) == (2147483647,)
    assert prime_factors(1) == ()
    assert prime_factors(1000003 * 1000033) == (1000003, 1000033)   # needs Pollard rho


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
    for (p, n), g in {(251, 2): 256, (257, 2): 259, (65521, 3): 65526, (3, 10): 34,
                      (2, 62): 2, (65521, 1): 17}.items():
        assert ExtensionField(p, n).primitive == g, (p, n)
    # the prime field holds no primitive element, so its p - 1 indices are skipped
    t0 = time.perf_counter()
    assert ExtensionField(65521, 2).primitive == 65533
    assert time.perf_counter() - t0 < 1.0


def test_primitive_has_full_order():
    for p, n in ((2, 6), (3, 3), (5, 2), (13, 1)):
        f = ExtensionField(p, n)
        assert multiplicative_order(f, f.primitive) == f.q - 1


# Odd-p fields with tables (n > 1 and n = 1), one without tables, and F_2 fields.
TABLE_FIELDS = ((3, 10), (5, 6), (7, 5), (11, 4), (251, 2), (3, 6), (5, 2),
                (7, 1), (65521, 1), (257, 2), (2, 8), (2, 16))


@pytest.mark.parametrize("p, n", TABLE_FIELDS)
def test_field_tables_match_reference(field_cache, p, n):
    f = field_cache(p, n)
    primitive, exp, log, cache = field_tables(f)
    assert f.primitive == primitive
    assert f._exp == exp
    assert f._log == log
    if cache is None:
        assert f._coeff_cache is None
    else:
        # the table holds lane forms; coeffs decodes them, element gathers them
        assert tuple(f.coeffs(e) for e in range(f.q)) == cache
        assert [f.lanes.element(v) for v in f._coeff_cache] == list(range(f.q))


@pytest.mark.parametrize("p", (3, 5, 7, 251, 257, 65521))
def test_lane_reduction_is_exact_in_every_lane(p):
    # every lane value an echelon step can make, up to p*(p-1), must come
    # back as its residue, in every lane of a four-lane int
    n = 4
    lanes = lane_layout(p, n)
    top = p * (p - 1)
    if p < 1000:
        values = list(range(top + 1))
    else:
        rng = random.Random(p)
        values = [0, p - 1, p, top, top - 1] + [k * p + e for k in (1, 2, p // 2, p - 2)
                                                 for e in (-1, 1)]
        values += [rng.randrange(top + 1) for _ in range(2000)]
    for i in range(len(values)):
        row = [values[(i + j) % len(values)] for j in range(n)]
        packed = sum(x << s for x, s in zip(row, lanes.shifts))
        assert lanes.red(packed) == sum(x % p << s for x, s in zip(row, lanes.shifts)), row


@pytest.mark.parametrize("p, n", TABLE_FIELDS)
def test_fixed_multiplier_matches_mul_raw(field_cache, p, n):
    # the table loop's step x -> g*x, for any g, against the table-free
    # product and the oracle's
    f = field_cache(p, n)
    rng = random.Random(p * 100 + n)
    for g in (f.primitive, rng.randrange(f.q), rng.randrange(f.q)):
        half, lo, hi = f._step_tables(g)
        for x in [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(497)]:
            if p == 2:
                got = lo[x % half] ^ hi[x // half]
            else:
                lanes = lane_layout(p, n + 1)
                got = lanes.element(lanes.red(lo[x % half] + hi[x // half]))
            assert got == f._mul_raw(g, x) == mul(f, g, x), (g, x)


@pytest.mark.parametrize("p, n", ((2, 40), (3, 10), (3, 12), (65521, 3)))
def test_raw_arithmetic_matches_oracle(p, n):
    f = ExtensionField(p, n)
    rng = random.Random(p + n)
    for a, b in [(0, 1), (1, f.q - 1), (f.q - 1, f.q - 1)] + [
            (rng.randrange(f.q), rng.randrange(f.q)) for _ in range(300)]:
        assert f._mul_raw(a, b) == mul(f, a, b), (a, b)
    for _ in range(10):
        a, e = rng.randrange(f.q), rng.randrange(f.q)
        assert f._pow_raw(a, e) == power(f, a, e), (a, e)


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
