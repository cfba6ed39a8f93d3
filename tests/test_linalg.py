import random

import pytest

from oracle import (add, intersect, random_span, reduce_against, rref_rows, scale,
                    sum_with, whole_space)
from subspace_products.fields import ExtensionField, is_irreducible
from subspace_products.linalg import Subspace, span


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


@pytest.mark.parametrize("p, n", ((2, 4), (3, 4), (5, 3)))
def test_fields_of_one_size_share_their_echelon_kernels(p, n):
    # the five row kernels are built once per (p, n), whatever the modulus,
    # and each field's spans and remainders still agree with the oracle's
    candidates = (tuple(v // p ** i % p for i in range(n)) + (1,) for v in range(p ** n))
    moduli = [m for m in candidates if is_irreducible(m, p)][:2]
    f, g = (ExtensionField(p, n, m) for m in moduli)
    assert f != g
    assert f.insert is g.insert and f.reduce is g.reduce
    assert f.vector is g.vector and f.element is g.element and f.add is g.add
    rng = random.Random(p * 100 + n)
    for field in (f, g):
        for _ in range(100):
            elems = [rng.randrange(field.q) for _ in range(rng.randrange(n + 2))]
            sp = span(field, elems)
            assert sp.rows == rref_rows(field, elems)
            for e in [rng.randrange(field.q) for _ in range(5)] + list(elems):
                assert sp.reduce(e) == reduce_against(field, sp.rows, e)


def test_rref_canonical_form_properties(field_cache):
    for p, n in ((2, 8), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(11)
        for _ in range(200):
            sp = random_span(f, rng, rng.randrange(1, n + 1))
            coeffs = [f.coeffs(row) for row in sp.rows]
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
# coefficient table, and 257 needs pow(c, -1, p) beyond small residues.
# GF(65521) and GF(65521^2) have the widest lanes, one and two of them, and
# GF(3^10) has the largest coefficient table.
REFERENCE_FIELDS = ((2, 8), (2, 40), (3, 4), (5, 2), (3, 11), (7, 6), (257, 2),
                    (65521, 1), (65521, 2), (3, 10))


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
            u = random_span(f, rng, rng.randrange(1, n + 1))
            v = random_span(f, rng, rng.randrange(1, n + 1))
            su = sum_with(u, v)
            iu = intersect(u, v)
            assert su.dim + iu.dim == u.dim + v.dim
            for r in iu.rows:
                assert u.contains(r) and v.contains(r)


@pytest.mark.parametrize("p, n", ((2, 6), (3, 4)))
def test_span_stops_drawing_at_rank_n(field_cache, p, n):
    f = field_cache(p, n)
    powers = [f.pow(f.primitive, i) for i in range(2 * n)]
    # 0 and a repeat add no rank, so rank n is reached at item n + 2
    gens = [0, 1, *powers]
    drawn = []

    def draw():
        for e in gens:
            drawn.append(e)
            yield e

    assert span(f, draw()) == whole_space(f)
    assert len(drawn) == n + 2
    assert span(f, gens).rows == rref_rows(f, gens)


@pytest.mark.parametrize("p, n", ((2, 6), (3, 4)))
def test_whole_space_reduces_every_element_to_zero(field_cache, p, n):
    f = field_cache(p, n)
    rng = random.Random(p * 100 + n)
    w = span(f, [rng.randrange(f.q) for _ in range(3 * n)])
    assert w.dim == n and w == whole_space(f)
    # the same rows through the field's own elimination
    basis = {}
    for r in w.rows:
        f.insert(basis, f.vector(r))
    for e in range(f.q):
        assert w.reduce(e) == 0 == f.element(f.reduce(basis, f.vector(e)))
        assert w.contains(e)


def test_zero_and_whole(field_cache):
    f = field_cache(2, 6)
    w = whole_space(f)
    assert w.dim == 6
    assert all(w.contains(a) for a in range(0, f.q, 7))
    assert sum_with(span(f, []), w) == w


def test_equality_requires_same_field():
    f1 = ExtensionField(2, 4)
    f2 = ExtensionField(2, 4, modulus=(1, 1, 1, 1, 1))
    assert span(f1, [1]) != span(f2, [1])
    with pytest.raises(ValueError):
        sum_with(span(f1, [1]), span(f2, [1]))


def test_text_round_trip(field_cache):
    for p, n in ((2, 6), (3, 4)):
        f = field_cache(p, n)
        rng = random.Random(23)
        for _ in range(50):
            sp = random_span(f, rng, 3)
            again = Subspace.from_text(f, sp.to_text())
            assert again == sp
            # blank lines between rows are skipped
            assert Subspace.from_text(f, sp.to_text().replace("\n", "\n\n  \n")) == sp
    f = field_cache(2, 6)
    with pytest.raises(ValueError):
        Subspace.from_text(f, "1,0,0\n")            # wrong length
    with pytest.raises(ValueError):
        Subspace.from_text(f, "1,0,0,0,0,oops\n")


# Run in a child process, so a reduction that never clears a pivot makes the
# test fail on its timeout rather than stall the suite.
_NO_LANE_REDUCTION = """
import sys
from subspace_products import cli, fields
kernel = fields._lane_echelon
# no reduction at all in the echelon kernels: a pivot lane that should clear
# to 0 is left at p
fields._lane_echelon = lambda p, n, w, mask, red: kernel(p, n, w, mask, lambda x: x)
insert = fields.ExtensionField(3, 4).insert
basis = {}
assert insert(basis, 1) == 1
try:
    insert(basis, 1)
except AssertionError:
    pass
else:
    sys.exit("insert returned without the reduction it needs")
sys.exit(cli.main(sys.argv[1:]))
"""


def test_wrong_lane_reduction_fails_instead_of_looping(run_python):
    proc = run_python("-c", _NO_LANE_REDUCTION, "construct", "--field", "3^4",
                      "--r", "3", "--s", "3")
    assert proc.returncode == 4, proc.stderr
    assert "invariant violated" in proc.stderr
