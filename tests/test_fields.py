import itertools
import random
import time

import pytest

from oracle import (add, field_tables, has_root, monic_irreducibles, mul, multiplicative_order,
                    neg, poly_mul, poly_mul_mod, power, scale)
from subspace_products import cli, fields
from subspace_products.fields import (ExtensionField, find_irreducible, find_primitive,
                                      is_irreducible, is_prime, lane_layout, parse_field_spec,
                                      parse_ints, poly_str, prime_factors)
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
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        prime_factors(0)
    assert prime_factors(1000003 * 1000033) == (1000003, 1000033)   # needs Pollard rho
    # primes past the witnesses 2..37 are Pollard rho's too, small ones included
    assert prime_factors(2 ** 10 * 41 ** 3 * 9973 ** 2) == (2, 41, 9973)
    assert prime_factors(9973 * 10007) == (9973, 10007)
    # q - 1 of every supported field with p below 400 or p in {4093, 32749,
    # 65519, 65521}: each factor is prime, and dividing them out leaves 1
    ps = [p for p in range(400) if is_prime(p)] + [4093, 32749, 65519, 65521]
    for m in (p ** n - 1 for p in ps for n in range(1, 64) if p ** n <= 1 << 63):
        factors, rest = prime_factors(m), m
        assert all(map(is_prime, factors)), m
        for f in factors:
            while rest % f == 0:
                rest //= f
        assert rest == 1, m


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
    # the prime field holds no primitive element, so its p - 1 indices are
    # skipped; timed uncached, whatever built GF(65521^2) before
    modulus = find_irreducible(65521, 2)
    t0 = time.perf_counter()
    assert find_primitive.__wrapped__(65521, 2, modulus) == 65533
    assert time.perf_counter() - t0 < 1.0
    assert ExtensionField(65521, 2).primitive == 65533


def test_primitive_has_full_order():
    for p, n in ((2, 6), (3, 3), (5, 2), (13, 1)):
        f = ExtensionField(p, n)
        assert multiplicative_order(f, f.primitive) == f.q - 1


# Odd-p fields with tables (n > 1 and n = 1), one without tables, and F_2
# fields, the prime fields GF(2) and GF(3) among them.
TABLE_FIELDS = ((3, 10), (5, 6), (7, 5), (11, 4), (251, 2), (3, 6), (5, 2),
                (7, 1), (65521, 1), (257, 2), (2, 8), (2, 16), (2, 1), (3, 1))


@pytest.mark.parametrize("p, n", TABLE_FIELDS)
def test_field_tables_match_reference(field_cache, monkeypatch, p, n):
    f = field_cache(p, n)
    primitive, exp, log, cache = field_tables(f)
    assert f.primitive == primitive
    if exp is not None:
        f._build_tables()
    assert f._exp == exp
    assert f._log == log
    # a fresh field kept table-free answers as the tables do
    with monkeypatch.context() as m:
        m.setattr(ExtensionField, "_build_tables", lambda self: None)
        fresh = ExtensionField(p, n)
        rng = random.Random(p * 100 + n)
        for a in [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(97)]:
            b, e = rng.randrange(1, f.q), rng.randrange(-f.q, f.q)
            assert fresh.mul(a, b) == f.mul(a, b), (a, b)
            assert fresh.inv(b) == f.inv(b), b
            assert fresh.pow(b, e) == f.pow(b, e), (b, e)
            assert fresh.pow(a, abs(e)) == f.pow(a, abs(e)), (a, e)
        assert fresh._log is None
    lanes = lane_layout(p, n + 1)
    assert f.vector is lanes.vector
    if p == 2:
        assert all(f.vector(e) == e == f.element(e) for e in range(f.q))
        return
    # vector spreads the digits of an index into the lanes of its layout,
    # read from the layout's table (a bound list lookup) exactly when the
    # oracle lists coordinates; element gathers them back
    assert hasattr(lanes.vector, "__self__") == (cache is not None)
    vectors = [f.vector(e) for e in range(f.q)]
    assert [f.element(v) for v in vectors] == list(range(f.q))
    if cache is not None:
        assert tuple(f.coeffs(e) for e in range(f.q)) == cache
        assert vectors == [_pack(lanes, cs) for cs in cache]


@pytest.mark.parametrize("p, n, at", ((2, 8, 32), (3, 6, 121)))
def test_tables_are_built_once_at_the_q_over_n_th_call(monkeypatch, p, n, at):
    # a field answers its first q // n - 1 mul/inv/pow table-free (GF(2^8)
    # 31, GF(3^6) 120); the next builds the tables, and every later call
    # reads them; a negative power, like inv, counts once
    built = []
    calls = 0
    build = ExtensionField._build_tables
    monkeypatch.setattr(ExtensionField, "_build_tables",
                        lambda self: (built.append(calls), build(self)))
    f = ExtensionField(p, n)
    rng = random.Random(28)
    for calls in range(1, at + 50):
        a, b = rng.randrange(f.q), rng.randrange(1, f.q)
        if calls % 3 == 0:
            assert f.mul(a, b) == mul(f, a, b), (a, b)
        elif calls % 3 == 1:
            assert mul(f, f.inv(b), b) == 1, b
        elif calls % 2:
            assert f.pow(b, a) == power(f, b, a), (b, a)
        else:
            assert mul(f, f.pow(b, -a), power(f, b, a)) == 1, (b, a)
        assert (f._log is None) == (calls < at)
    assert built == [at] == [f.q // n]


def test_non_generator_fails_the_table_build(monkeypatch, capsys):
    # g^3 has order 85 in GF(2^8); its powers miss most units.  The patch
    # searches uncached, so the memoised primitive is neither read nor written
    ref = ExtensionField(2, 8)
    monkeypatch.setattr(fields, "find_primitive", lambda p, n, modulus: ref._pow_raw(
        find_primitive.__wrapped__(p, n, modulus), 3))
    f = ExtensionField(2, 8)
    assert f.primitive == ref._pow_raw(3, 3)
    with pytest.raises(AssertionError, match="failed to cycle the unit group"):
        f._build_tables()
    assert f._log is None
    code = cli.main(["verify-kneser", "--field", "2^8", "--r", "3", "--s", "5",
                     "--pairs", "20", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "invariant violated: primitive element failed to cycle the unit group" in err
    monkeypatch.undo()
    assert ExtensionField(2, 8).primitive == 3


@pytest.mark.parametrize("p, n", TABLE_FIELDS + ((2, 40),))
def test_memoised_searches_match_uncached_ones(p, n):
    modulus = find_irreducible(p, n)
    assert modulus == find_irreducible.__wrapped__(p, n)
    assert find_primitive(p, n, modulus) == find_primitive.__wrapped__(p, n, modulus)
    assert ExtensionField(p, n).primitive == find_primitive(p, n, modulus)


def test_explicit_modulus_gets_its_own_primitive():
    # each modulus has its own search, after the default field of its size
    # is memoised: x is primitive modulo x^4+x+1 and x^4+x^3+1, and modulo
    # x^2+x+2 over F_3 but not modulo the default x^2+1, where x^2 = -1
    for p, n, modulus, g in ((2, 4, (1, 0, 0, 1, 1), 2), (3, 2, (2, 1, 1), 3)):
        default = ExtensionField(p, n)
        other = ExtensionField(p, n, modulus)
        assert default.modulus != other.modulus
        assert other.primitive == find_primitive.__wrapped__(p, n, modulus) == g
        assert multiplicative_order(other, other.primitive) == other.q - 1
    assert ExtensionField(3, 2).primitive == 4


def test_lane_layout_of_p2_is_the_bitmask():
    # one-bit lanes: the packed form of an index or polynomial is its bitmask
    for k in (1, 5, 13, 64):
        lanes = lane_layout(2, k)
        assert lanes.w == 1
        rng = random.Random(k)
        for u, v in [(0, 0), (1, 0)] + [(rng.getrandbits(k), rng.getrandbits(k))
                                        for _ in range(200)]:
            assert lanes.vector(u) == lanes.element(u) == lanes.add(u, 0) == u
            assert lanes.add(u, v) == u ^ v


def _pack(lanes, coeffs):
    return sum(c << j * lanes.w for j, c in enumerate(coeffs))


def _unpack(lanes, k, v):
    return [v >> j * lanes.w & (1 << lanes.w) - 1 for j in range(k)]


def _monic(cs, p):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    inv = pow(cs[-1], -1, p)
    return [c * inv % p for c in cs]


@pytest.mark.parametrize("p, k", ((2, 2), (2, 9), (2, 41), (3, 2), (3, 7), (7, 5), (251, 4)))
def test_lane_layout_ring_and_gcd_match_oracle(p, k):
    # ring(f) is a*b mod any monic f of degree k - 1, and gcd(a, b) is a
    # common divisor of a and b that every common factor divides
    lanes, d = lane_layout(p, k), k - 1
    rng = random.Random(p * 100 + k)

    def poly(deg):
        return [rng.randrange(p) for _ in range(deg)]

    for _ in range(60):
        f, a, b = poly(d) + [1], poly(d), poly(d)
        got = lanes.ring(_pack(lanes, f))(_pack(lanes, a), _pack(lanes, b))
        assert _unpack(lanes, k, got) == poly_mul_mod(a, b, f, p) + [0], (f, a, b)
        # a common factor h of degree 1 or more, when k leaves room for one
        h = poly(rng.randrange(1, k)) + [rng.randrange(1, p)]
        u, v = (poly_mul(h, poly(k - len(h)) + [rng.randrange(1, p)], p) for _ in "uv")
        g = _monic(_unpack(lanes, k, lanes.gcd(_pack(lanes, u), _pack(lanes, v))), p)
        for x in (u, v):
            assert not any(poly_mul_mod(x, [1], g, p)), (u, v, g)
        assert not any(poly_mul_mod(g, [1], _monic(h, p), p)), (u, v, g, h)


@pytest.mark.parametrize("p", (3, 5, 7, 251, 257, 65521))
def test_lane_reduction_is_exact_in_every_lane(p):
    # every lane value an echelon step can make, up to p*(p-1), must come
    # back from add(x, 0) as its residue, in every lane of a four-lane int
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
        assert lanes.add(_pack(lanes, row), 0) == _pack(lanes, [x % p for x in row]), row


@pytest.mark.parametrize("p, n", ((2, 8), (3, 4), (5, 3), (65521, 2)))
def test_row_add_matches_oracle(field_cache, p, n):
    # add on the row form, of a row and of c times a row, is the field sum
    f = field_cache(p, n)
    rng = random.Random(p * 100 + n)
    for _ in range(300):
        a, b, c = rng.randrange(f.q), rng.randrange(f.q), rng.randrange(p)
        assert f.element(f.add(f.vector(a), c * f.vector(b))) == add(f, a, scale(f, c, b))


@pytest.mark.parametrize("p, n", TABLE_FIELDS)
def test_fixed_multiplier_matches_mul_raw(field_cache, p, n):
    # the table loop's one step x -> g*x, for any g and every p, against the
    # table-free product and the oracle's
    f = field_cache(p, n)
    rng = random.Random(p * 100 + n)
    for g in (f.primitive, rng.randrange(f.q), rng.randrange(f.q)):
        half, lo, hi = f._step_tables(g)
        for x in [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(497)]:
            got = f.element(f.add(lo[x % half], hi[x // half]))
            assert got == f._mul_raw(g, x) == mul(f, g, x), (g, x)


@pytest.mark.parametrize("p, n", ((2, 5), (3, 3)))
def test_tabled_mul_matches_mul_raw_on_every_pair(p, n):
    # tabled mul reads exp[log a + log b - (q - 1)], a negative index wrapping:
    # the log sums of all pairs of units run over 0..2q - 4, so both sides of
    # the wrap at q - 1 are met, and every product is the table-free one
    f = ExtensionField(p, n)
    assert f.log_tables() is not None
    units = range(1, f.q)
    for a in units:
        assert [f.mul(a, b) for b in units] == [f._mul_raw(a, b) for b in units], a
        assert f.mul(a, 0) == f.mul(0, a) == 0


@pytest.mark.parametrize("p, n", ((2, 1), (2, 4), (2, 8), (3, 1), (3, 4), (5, 3)))
def test_extend_matches_the_insert_loop(field_cache, p, n):
    # extend inserts exp[lx + ly] for each lx until the rank reaches cap: the
    # same rank and basis as one insert per product, from bases of every
    # rank, with repeated logs that make some products dependent, and caps
    # below, at and above the rank the loop reaches
    f = field_cache(p, n)
    exp, log = f.log_tables()
    qm1 = f.q - 1
    rng = random.Random(p * 100 + n)

    def insert_loop(basis, logs, ly, rank, cap):
        for lx in logs:
            if rank >= cap:
                break
            rank += f.insert(basis, f.vector(exp[lx + ly]))
        return rank

    for _ in range(100):
        start: dict = {}
        for _ in range(rng.randrange(n + 1)):
            f.insert(start, f.vector(rng.randrange(f.q)))
        logs = [rng.randrange(qm1) for _ in range(rng.randrange(1, n + 2))]
        logs += rng.choices(logs, k=rng.randrange(3))
        rng.shuffle(logs)
        ly = rng.randrange(-qm1, 1)
        rank0 = len(start)
        full = insert_loop(start.copy(), logs, ly, rank0, n + 1)
        for cap in {0, rank0, rank0 + 1, full - 1, full, full + 1, n + 1}:
            want, got = start.copy(), start.copy()
            assert f.extend(got, exp, logs, ly, rank0, cap) == \
                insert_loop(want, logs, ly, rank0, cap), (logs, ly, cap)
            assert got == want, (logs, ly, cap)


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
    # a rejected d is never kept, so it is rejected again on every call
    f = field_cache(2, 6)
    for d in (4, 0, -2, 4, 0, -2):
        with pytest.raises(ValueError, match="does not divide"):
            f.subfield_generator(d)


def test_subfield_generators_are_kept_per_field(monkeypatch):
    # GF(2^18) has no tables, so each generator is one table-free power of
    # the primitive element, raised once per field and degree: a modulus
    # and its reciprocal hold different generators of F_4, and a new field
    # of the first modulus raises its own again
    raised = []
    pow_raw = ExtensionField._pow_raw
    monkeypatch.setattr(ExtensionField, "_pow_raw",
                        lambda self, a, e: (raised.append(self.modulus), pow_raw(self, a, e))[1])
    low = find_irreducible(2, 18)
    fields_ = [ExtensionField(2, 18, m) for m in (low, low[::-1], low)]
    for _ in range(3):
        gens = [f.subfield_generator(2) for f in fields_]
        assert gens == [37385, 37377, 37385]
        for f, g in zip(fields_, gens):
            assert add(f, add(f, mul(f, g, g), g), 1) == 0  # g^2 + g + 1 = 0
    assert raised == [low, low[::-1], low]


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
    assert parse_ints("1,1,0,0,1", "modulus") == (1, 1, 0, 0, 1)
    with pytest.raises(ValueError, match=r"^bad modulus '1,x,0': 'x' is not an integer$"):
        ExtensionField.from_spec("2^2", "1,x,0")
    f = ExtensionField.from_spec("2^4", "1,1,0,0,1")
    assert f.modulus == (1, 1, 0, 0, 1)
    assert poly_str((1, 1, 0, 0, 1)) == "x^4+x+1"
    assert poly_str((0, 1)) == "x"
