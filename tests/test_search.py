import collections
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import subspace_products.search as search

from oracle import mu_field_brute
from subspace_products.fields import ExtensionField
from subspace_products.kappa import divisors, kappa_rs
from subspace_products.linalg import Subspace, rref, span
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


def test_enumeration_refuses_rows_too_large_to_hold(field_cache):
    # GF(2^23), 2-dimensional subspaces containing 1: row 1 takes 2^21 values
    subspaces = enumerate_subspaces(field_cache(2, 23), 2, True)
    with pytest.raises(ValueError, match="takes 2097152 values"):
        next(subspaces)


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


def test_enumeration_rejects_dimension_at_the_call(field_cache):
    f = field_cache(2, 4)
    for r in (-1, 5, 99):
        with pytest.raises(ValueError, match=r"out of range \[0, 4\]"):
            enumerate_subspaces(f, r)


def test_random_subspace_dimension_and_membership(field_cache):
    f = field_cache(2, 8)
    rng = random.Random(9)
    for _ in range(100):
        sp = random_subspace(f, 3, rng)
        assert sp.dim == 3
        sp1 = rref(f, search._draw(f, [1], 2, rng)[1])
        assert sp1.dim == 3 and sp1.contains(1)
    assert random_subspace(f, 0, rng).dim == 0
    for r in (-1, 9):
        with pytest.raises(ValueError, match=r"out of range \[0, 8\]"):
            random_subspace(f, r, rng)
    assert rref(f, search._draw(f, [1], 7, rng)[1]).dim == 8


def test_raw_draw_matches_random_subspace(field_cache):
    # mu_randomized keeps the raw rows of search._draw; their span must be the
    # subspace random_subspace returns for the same seed (with 1 fixed, the
    # RREF of the draw's echelon basis), after the same rng calls, and both
    # must be the span of the first full-rank draw
    def reference(f, fixed, r, rng):
        while True:
            sp = span(f, fixed + [rng.randrange(f.q) for _ in range(r - len(fixed))])
            if sp.dim == r:
                return sp

    for p, n in ((2, 2), (3, 2), (2, 6), (3, 4)):
        f = field_cache(p, n)
        for one in (False, True):
            fixed = [1] if one else []
            for r in range(len(fixed), n + 1):
                for seed in range(100):
                    rng_raw, rng_sub, rng_ref = (random.Random(seed) for _ in range(3))
                    rows, _ = search._draw(f, fixed, r - len(fixed), rng_raw)
                    sp = (rref(f, search._draw(f, fixed, r - 1, rng_sub)[1]) if one
                          else random_subspace(f, r, rng_sub))
                    assert len(rows) == r and rows[:len(fixed)] == fixed
                    assert span(f, rows) == sp == reference(f, fixed, r, rng_ref)
                    assert rng_raw.getstate() == rng_sub.getstate() == rng_ref.getstate()


def test_random_subspace_rejects_impossible_dimensions(run_python):
    # in a child process: sampling a dimension no subspace has never ends
    code = """if True:
        import random
        from subspace_products.fields import ExtensionField
        from subspace_products.search import random_subspace
        f = ExtensionField(2, 4)
        for r in (5, -1):
            try:
                random_subspace(f, r, random.Random(0))
            except ValueError:
                continue
            raise SystemExit(f"no error for r={r}")
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
        for w in (res.witness_a, res.witness_b):
            assert span(f, w.rows).rows == w.rows   # held as canonical RREF
        assert product_span(res.witness_a, res.witness_b).dim == res.value
        assert res.value == min(r + s - 1, 5)


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


def _fields_of(res):
    return (res.value, res.witness_a.rows, res.witness_b.rows, res.exhaustive,
            res.pairs_examined)


def _orbit_reps(f, r):
    return [rows for _, rows in search._a_rows(f, r) if rows is not None]


@pytest.mark.parametrize("p, n, r", [(2, 6, r) for r in range(2, 6)]
                         + [(3, 4, r) for r in range(2, 4)])
def test_orbits_partition_canonical_subspaces(fresh_field, p, n, r):
    f = fresh_field(p, n)
    canonical = [sp.rows for sp in enumerate_subspaces(f, r, containing_one=True)]
    reps = _orbit_reps(f, r)
    orbits = [search._orbit(f, rows) for rows in reps]
    assert sum(len(o) for o in orbits) == gaussian_binomial(n - 1, r - 1, p)
    assert set().union(*orbits) == set(canonical)
    for rows in set().union(*orbits):
        sp = span(f, rows)
        assert sp.rows == rows and sp.dim == r and sp.contains(1)
    # each representative is the least member of its orbit
    order = {rows: i for i, rows in enumerate(canonical)}
    assert all(min(o, key=order.get) == rows for o, rows in zip(orbits, reps))


def test_subfield_is_its_own_orbit(field_cache):
    for p, n, d in ((2, 6, 2), (2, 6, 3), (3, 4, 2), (2, 8, 4)):
        f = field_cache(p, n)
        g = f.subfield_generator(d)
        sub = span(f, [f.pow(g, i) for i in range(d)])
        assert sub.dim == d
        assert search._orbit(f, sub.rows) == {sub.rows}


def test_orbit_representative_counts(fresh_field):
    assert (len(_orbit_reps(fresh_field(2, 6), 3)), gaussian_binomial(5, 2, 2)) == (7, 155)
    assert (len(_orbit_reps(fresh_field(2, 7), 3)), gaussian_binomial(6, 2, 2)) == (15, 651)


def _count_orbits(monkeypatch):
    """The rows of every _orbit call from here on; a scan of a field that
    already keeps the walked A of its r makes none, so count on fresh
    fields."""
    calls = []
    orbit = search._orbit

    def counted(f, rows):
        calls.append(rows)
        return orbit(f, rows)

    monkeypatch.setattr(search, "_orbit", counted)
    return calls


def _unreduced(f, r, s, opts):
    """Serial mu_exact with the orbit skip off: every orbit is empty, so no A
    is skipped.  f must be a fresh field used for nothing else: kept runs
    would skip A, and the runs of empty orbits stay on f."""
    assert not f.orbit_skips
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_orbit", lambda field, rows: set())
        return mu_exact(f, r, s, opts)


def test_mu_exact_turns_the_skip_off_when_seen_set_exceeds_limit(fresh_field):
    # a limit one below the number of A turns the skip off; the basis rows of
    # GF(2^6), at most 16 values, still fit under it
    f = fresh_field(2, 6)
    for r, s, budget in ((3, 3, 10 ** 9), (3, 4, 10 ** 9), (2, 5, 10 ** 9), (4, 3, 5000)):
        opts = SearchOptions(budget=budget, use_kappa_floor=False)
        with pytest.MonkeyPatch.context() as m:
            calls = _count_orbits(m)
            m.setattr(search, "MAX_HELD_ROWS", gaussian_binomial(f.n - 1, r - 1, f.p) - 1)
            res = mu_exact(f, r, s, opts)
        assert not calls, (r, s)
        assert _fields_of(res) == _fields_of(_unreduced(fresh_field(2, 6), r, s, opts)), \
            (r, s, budget)


def test_mu_exact_refuses_scans_too_large_to_hold(run_python, field_cache):
    # in a child process with a timeout: GF(2^30) (2, 2) has basis rows of
    # 2^28 values, refused before any is built, however low the budget
    # on every call, as the field keeps no profile of it
    code = """if True:
        from subspace_products.fields import ExtensionField
        from subspace_products.search import SearchOptions, mu_exact
        f = ExtensionField(2, 30)
        for _ in range(2):
            try:
                mu_exact(f, 2, 2, SearchOptions(budget=100))
            except ValueError as exc:
                print(exc)
    """
    proc = run_python("-c", code, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("takes 268435456 values") == 2, proc.stdout
    # GF(2^16) has about 2.5e17 canonical 8-dimensional subspaces, with rows
    # of 2^8 values; a truncated run builds B's row tables only as far as it walks
    f = field_cache(2, 16)
    t0 = time.perf_counter()
    res = mu_exact(f, 8, 8, SearchOptions(budget=1000))
    assert time.perf_counter() - t0 < 1.0
    assert not res.exhaustive and res.pairs_examined == 1000


def _check_against_oracle(f, r, s, use_kappa_floor, budget):
    floor = kappa_rs(r, s, divisors(f.n)).value if use_kappa_floor else max(r, s)
    res = mu_exact(f, r, s, SearchOptions(budget=budget, use_kappa_floor=use_kappa_floor))
    assert _fields_of(res) == mu_field_brute(f, r, s, True, floor, budget), \
        (f.p, f.n, r, s, use_kappa_floor, budget)


def test_mu_exact_matches_brute_force(field_cache):
    # the walk skips subtrees; the oracle computes every product span in full
    cells = [(2, 4, r, s) for r in range(1, 5) for s in range(1, 5)]
    cells += [(3, 3, r, s) for r in range(1, 4) for s in range(1, 4)]
    cells += [(2, 5, r, s) for r in range(1, 4) for s in range(1, 4)]
    for p, n, r, s in cells:
        for use_kappa_floor in (True, False):
            _check_against_oracle(field_cache(p, n), r, s, use_kappa_floor, 10 ** 9)
    # GF(2^6) (2, 3) and (4, 2): the first minimal A (at index 10 and 15) has
    # other orbit members, and the budgets 100, 400 and 1300 end inside the
    # pair ranges of skipped A
    for r, s in ((2, 3), (4, 2)):
        for budget in (10 ** 9, 100, 400, 1300):
            for use_kappa_floor in (True, False):
                _check_against_oracle(field_cache(2, 6), r, s, use_kappa_floor, budget)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mu_exact_truncated_runs_match_brute_force(field_cache, data):
    p, n = data.draw(st.sampled_from([(2, 4), (3, 3), (2, 5), (2, 6)]))
    r = data.draw(st.integers(1, min(n, 3)))
    s = data.draw(st.integers(1, min(n, 3)))
    total = gaussian_binomial(n - 1, r - 1, p) * gaussian_binomial(n - 1, s - 1, p)
    budget = data.draw(st.integers(1, total))
    _check_against_oracle(field_cache(p, n), r, s, data.draw(st.booleans()), budget)


def test_skip_matches_unreduced_scan(fresh_field, monkeypatch):
    # the skip keeps the first minimal pair and counts skipped pairs as
    # decided, so every field of the result matches the unreduced scan's.  A
    # single A (r = 1 or r = n) reaches the floor max(r, s) with its first
    # pair, so the scan ends before it would build that A's orbit.
    calls = _count_orbits(monkeypatch)
    for p, n in ((2, 4), (3, 3), (2, 5), (2, 6), (3, 4)):
        f = fresh_field(p, n)
        for r in range(1, n + 1):
            single = r in (1, n)
            for s in range(1, n + 1):
                for floor in (True, False):
                    for budget in (1, 10 ** 9) if single else (10 ** 9,):
                        opts = SearchOptions(budget=budget, use_kappa_floor=floor)
                        before = len(calls)
                        assert _fields_of(mu_exact(f, r, s, opts)) == \
                            _fields_of(_unreduced(fresh_field(p, n), r, s, opts)), \
                            (p, n, r, s, floor, budget)
                        assert not single or len(calls) == before, (p, n, r, s, floor, budget)
    # a truncating budget: the prefix counts skipped A as decided pairs
    opts = SearchOptions(budget=5000, use_kappa_floor=False)
    f = fresh_field(2, 6)
    assert _fields_of(mu_exact(f, 4, 3, opts)) == \
        _fields_of(_unreduced(fresh_field(2, 6), 4, 3, opts))
    assert calls


def test_skip_flags_replay_on_one_field(fresh_field, monkeypatch):
    # a scan that enumerates every A keeps its list of walked A with their
    # skip counts on the field, and a second scan of that field and r replays
    # the list itself without building an orbit; a scan stopped by its floor
    # or budget keeps none, so the next one builds the same orbits again.
    # Either way the second scan's result is the first's.
    calls = _count_orbits(monkeypatch)
    cells = [(2, 6, r, s, 10 ** 9) for r in range(1, 7) for s in range(1, 7)]
    cells += [(3, 4, r, s, 10 ** 9) for r in range(1, 5) for s in range(1, 5)]
    cells += [(2, 6, r, s, budget) for r, s in ((2, 3), (4, 2)) for budget in (100, 400, 1300)]
    stopped_with_orbits = 0
    for p, n, r, s, budget in cells:
        opts = SearchOptions(budget=budget, use_kappa_floor=False)
        f = fresh_field(p, n)
        before = len(calls)
        first = _fields_of(mu_exact(f, r, s, opts))
        cold = len(calls) - before
        # floor-free, the scan stops early iff it reaches max(r, s) or the budget
        stopped = first[0] <= max(r, s) or first[4] >= budget
        assert (r in f.orbit_skips) == (not stopped), (p, n, r, s, budget)
        if not stopped:
            runs = f.orbit_skips[r]
            # one entry per walked A, each built its orbit, then the tail count
            assert [rows for _, rows in runs[:-1]] == calls[before:] and runs[-1][1] is None
            assert sum(skipped for skipped, _ in runs) + cold == \
                gaussian_binomial(n - 1, r - 1, p), (p, n, r, s)
            assert search._a_rows(f, r) is runs
        stopped_with_orbits += stopped and cold > 0
        before = len(calls)
        assert _fields_of(mu_exact(f, r, s, opts)) == first, (p, n, r, s, budget)
        assert len(calls) - before == (cold if stopped else 0), (p, n, r, s, budget)
    assert stopped_with_orbits
    # with the skip off, the list is neither read nor written: a list that
    # skips every A is ignored, and a fresh field keeps none after a scan of
    # every A (mu(3, 4) = 6 > max(r, s), so the floor never stops it)
    opts = SearchOptions(use_kappa_floor=False)
    f, g = fresh_field(2, 6), fresh_field(2, 6)
    reference = _fields_of(mu_exact(fresh_field(2, 6), 3, 4, opts))
    assert reference[0] == 6
    f.orbit_skips[3] = [(gaussian_binomial(5, 2, 2), None)]
    monkeypatch.setattr(search, "MAX_HELD_ROWS", gaussian_binomial(5, 2, 2) - 1)
    assert _fields_of(mu_exact(f, 3, 4, opts)) == _fields_of(mu_exact(g, 3, 4, opts)) \
        == reference
    assert f.orbit_skips == {3: [(155, None)]} and not g.orbit_skips


def _count_draws(monkeypatch):
    """The index of every profile _row_tables yields from here on, listed by
    dimension."""
    drawn = collections.defaultdict(list)
    row_tables = search._row_tables

    def counted(f, k, containing_one=False, start=0):
        for i, table in enumerate(row_tables(f, k, containing_one, start), start):
            drawn[k].append(i)
            yield table

    monkeypatch.setattr(search, "_row_tables", counted)
    return drawn


def test_scan_builds_each_b_table_once(fresh_field, monkeypatch):
    # B's profiles are drawn by the first walked A and read by every later
    # one, and kept on the field for every later scan of that s; a scan that
    # stops inside its first A keeps the profiles it drew
    calls = _count_orbits(monkeypatch)
    drawn = _count_draws(monkeypatch)
    opts = SearchOptions(use_kappa_floor=False)
    f = fresh_field(2, 6)
    res = mu_exact(f, 3, 4, opts)
    assert (res.value, res.exhaustive, len(calls)) == (6, True, 7)
    # the C(5, 3) profiles of 4-dim B containing 1, each drawn once
    assert drawn[4] == list(range(10))
    assert sorted(f.row_tables) == [3, 4] and type(f.row_tables[4]) is tuple
    assert len(f.row_tables[4]) == 10
    drawn.clear()
    assert _fields_of(mu_exact(f, 3, 4, opts)) == _fields_of(res) and not drawn
    for budget in (1, 7):           # both stop inside the first A's 155 B
        g = fresh_field(2, 6)
        res = mu_exact(g, 3, 4, SearchOptions(budget=budget, use_kappa_floor=False))
        assert (res.pairs_examined, res.exhaustive) == (budget, False)
        # the first A and its B both lie in profile 0 (64 B), so each side
        # drew that profile alone and keeps it
        assert drawn == {3: [0], 4: [0]}, budget
        assert [len(g.row_tables[k]) for k in (3, 4)] == [1, 1], budget
        drawn.clear()
    # kept tables give a fresh field's result for every r, floor and budget,
    # and draw nothing more: A's tables of r = 4 are B's
    for r in range(1, 7):
        for floor in (True, False):
            for budget in (10 ** 9, 40, 700):
                opts = SearchOptions(budget=budget, use_kappa_floor=floor)
                drawn.clear()
                res = _fields_of(mu_exact(f, r, 4, opts))
                assert 4 not in drawn, (r, floor, budget)
                assert res == _fields_of(mu_exact(fresh_field(2, 6), r, 4, opts)), \
                    (r, floor, budget)


def test_scans_share_one_table_per_dimension(fresh_field, monkeypatch):
    # A (k = r) and B (k = s) read one list of profiles per field and k: with
    # r = s both draw from it, and each of the C(5, 2) profiles of GF(2^6)
    # k = 3 is drawn once.  A stopped scan keeps the profiles it drew, and a
    # later one draws only the profiles past them.
    drawn = _count_draws(monkeypatch)
    opts = SearchOptions(use_kappa_floor=False)
    f = fresh_field(2, 6)
    assert mu_exact(f, 3, 3, opts).value == 3         # F_8
    assert drawn == {3: list(range(10))} and list(f.row_tables) == [3]
    assert type(f.row_tables[3]) is tuple and len(f.row_tables[3]) == 10
    stopped = []
    for budget in (1, 7):
        g = fresh_field(2, 6)
        drawn.clear()
        res = mu_exact(g, 3, 3, SearchOptions(budget=budget, use_kappa_floor=False))
        assert (res.pairs_examined, res.exhaustive) == (budget, False)
        # the first A and its B both lie in profile 0 (64 subspaces), drawn
        # once for both and kept
        assert drawn == {3: [0]} and len(g.row_tables[3]) == 1, budget
        drawn.clear()
        h = fresh_field(2, 6)
        h.row_tables[3] = list(g.row_tables[3])
        assert _fields_of(mu_exact(h, 3, 3, opts)) == _fields_of(mu_exact(f, 3, 3, opts))
        assert drawn == {3: list(range(1, 10))}, budget
        assert h.row_tables[3] == f.row_tables[3], budget
        stopped.append(g)
    # a field's kept lists, whole or a stopped scan's prefix, give a fresh
    # field's result in every cell
    for r in range(1, 7):
        for s in range(1, 7):
            for floor in (True, False):
                for budget in (10 ** 9, 40, 700):
                    opts = SearchOptions(budget=budget, use_kappa_floor=floor)
                    reference = _fields_of(mu_exact(fresh_field(2, 6), r, s, opts))
                    for g in [f] + stopped:
                        assert _fields_of(mu_exact(g, r, s, opts)) == reference, \
                            (r, s, floor, budget)


def test_kept_profiles_stop_at_the_held_bound(fresh_field, monkeypatch):
    # the ten profiles of GF(2^6) k = 4 hold 80 values: under a bound of 79 the
    # field keeps a prefix of at most 79 values, every scan streams on past it,
    # and results are a fresh field's (the bound also turns the orbit skip
    # off, which changes no result)
    cells = [(r, s, budget) for r, s in ((3, 4), (4, 3), (4, 4), (2, 4), (4, 1))
             for budget in (10 ** 9, 40, 700)]
    references = [_fields_of(mu_exact(fresh_field(2, 6), r, s, SearchOptions(
        budget=budget, use_kappa_floor=False))) for r, s, budget in cells]
    monkeypatch.setattr(search, "MAX_HELD_ROWS", 79)
    f = fresh_field(2, 6)
    for (r, s, budget), reference in zip(cells, references):
        opts = SearchOptions(budget=budget, use_kappa_floor=False)
        assert _fields_of(mu_exact(f, r, s, opts)) == reference, (r, s, budget)
    kept = f.row_tables[4]
    profiles = list(search._row_tables(f, 4, True))
    values = [sum(map(len, rows)) for rows, _ in profiles]
    assert type(kept) is list and [(rows, sizes) for rows, sizes, _ in kept] == \
        profiles[:len(kept)]
    assert [held for _, _, held in kept] == list(itertools.accumulate(values[:len(kept)]))
    assert kept[-1][2] <= 79 < kept[-1][2] + values[len(kept)]


def _withheld(m):
    """Withhold the exp/log tables from every scan, so that its nodes multiply
    with mul, as on a field above the table limit."""
    m.setattr(ExtensionField, "log_tables", lambda self: None)


def test_node_paths_agree(fresh_field):
    # the same scans on fields with exp/log tables and on fields whose tables
    # are withheld: full runs, floor stops and budget stops agree in value,
    # witnesses, exhaustive and pairs examined; at s = 1 each B profile's
    # root is its leaf
    for p, n in ((2, 5), (3, 3), (2, 6), (3, 4), (5, 3)):
        tabled, untabled = fresh_field(p, n), fresh_field(p, n)
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                for floor in (True, False):
                    for budget in (10 ** 9, 40, 700):
                        opts = SearchOptions(budget=budget, use_kappa_floor=floor)
                        with pytest.MonkeyPatch.context() as m:
                            _withheld(m)
                            reference = _fields_of(mu_exact(untabled, r, s, opts))
                        assert _fields_of(mu_exact(tabled, r, s, opts)) == reference, \
                            (p, n, r, s, floor, budget)
    # above the table limit mul is the only path: GF(2^17) builds no tables,
    # and a floor-free scan cut by its budget is the oracle's pair-by-pair scan
    f = fresh_field(2, 17)
    assert f.log_tables() is None
    for r, s in ((2, 3), (2, 1), (1, 1)):
        res = mu_exact(f, r, s, SearchOptions(budget=3000, use_kappa_floor=False))
        assert _fields_of(res) == mu_field_brute(f, r, s, True, max(r, s), 3000), (r, s)
    assert f._log is None


def test_scan_on_a_tabled_field_makes_no_mul_call(fresh_field, monkeypatch):
    # once the walked A are kept (building orbits multiplies), a scan of a
    # tabled field reads every product from its tables; withholding them
    # sends the same scan through mul
    calls = []
    mul = ExtensionField.mul

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    opts = SearchOptions(use_kappa_floor=False)
    for p, n, r, s in ((2, 6, 3, 4), (3, 4, 2, 3)):
        f = fresh_field(p, n)
        reference = _fields_of(mu_exact(f, r, s, opts))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ExtensionField, "mul", counted)
            assert _fields_of(mu_exact(f, r, s, opts)) == reference and not calls, (p, n)
            _withheld(m)
            assert _fields_of(mu_exact(f, r, s, opts)) == reference and calls, (p, n)
        calls.clear()


def test_scan_started_at_a_cap(field_cache):
    # floor-free cells with kappa > max(r, s): a scan started at kappa finds
    # no pair below it, and one started at kappa + 1 finds a pair at kappa
    cells = 0
    for p, n in ((2, 5), (3, 3)):
        f = field_cache(p, n)
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                kappa = kappa_rs(r, s, divisors(n)).value
                if kappa <= max(r, s):
                    continue
                for cap in (kappa, kappa + 1):
                    value, a_rows, b_rows, _, exhaustive = search._scan(
                        f, r, s, cap, max(r, s), 10 ** 9)
                    assert value == kappa and exhaustive, (p, n, r, s, cap)
                    if cap == kappa:
                        assert a_rows is None and b_rows is None, (p, n, r, s)
                    else:
                        span_ab = product_span(Subspace(f, a_rows), Subspace(f, b_rows))
                        assert span_ab.dim == kappa, (p, n, r, s)
                cells += 1
    assert cells == 10


@pytest.mark.parametrize("p, n, r, s, cap, floor, budget, expected", [
    # s = 1: the root, b_0 = 1, is the leaf, of rank r
    (2, 4, 1, 1, 5, 0, 10 ** 9, (1, (1,), (1,), 1, True)),
    (2, 4, 3, 1, 5, 0, 10 ** 9, (3, (1, 2, 4), (1,), 7, True)),
    (3, 3, 2, 1, 4, 0, 10 ** 9, (2, (1, 3), (1,), 4, True)),
    # cap <= r: every profile root is cut, and a_count * b_count pairs decided
    (2, 5, 3, 3, 3, 0, 10 ** 9, (3, None, None, 35 * 35, True)),
    (2, 5, 1, 3, 1, 0, 10 ** 9, (1, None, None, 35, True)),
    (3, 3, 2, 3, 2, 0, 10 ** 9, (2, None, None, 4, True)),
    # cap <= floor: the scan stops at its first node that is cut or a leaf,
    # the first profile's root (its sizes[0] = 8), a row-1 node (sizes[1] = 4)
    # or the s = 1 leaf
    (2, 5, 3, 2, 3, 3, 10 ** 9, (3, None, None, 8, True)),
    (2, 5, 2, 3, 3, 3, 10 ** 9, (3, None, None, 4, True)),
    (2, 5, 2, 1, 3, 3, 10 ** 9, (2, (1, 2), (1,), 1, True)),
    (3, 3, 2, 2, 2, 2, 10 ** 9, (2, None, None, 3, True)),
    # budgets around a root cut: GF(2^5)'s first 3-dim B profile has
    # sizes[0] = 16, and its one A is cut at every root
    (2, 5, 1, 3, 1, 0, 1, (1, None, None, 1, False)),
    (2, 5, 1, 3, 1, 0, 15, (1, None, None, 15, False)),
    (2, 5, 1, 3, 1, 0, 16, (1, None, None, 16, False)),
    (2, 5, 1, 3, 1, 0, 17, (1, None, None, 17, False)),
    # GF(2^4) (2, 2): the third A, F_4, finds F_4 at pair 17 and its leaf cut
    # at 18; the next profile's root (sizes[0] = 2) is cut at 20, the last at 21
    (2, 4, 2, 2, 5, 0, 17, (2, (1, 6), (1, 6), 17, False)),
    (2, 4, 2, 2, 5, 0, 18, (2, (1, 6), (1, 6), 18, False)),
    (2, 4, 2, 2, 5, 0, 19, (2, (1, 6), (1, 6), 19, False)),
    (2, 4, 2, 2, 5, 0, 20, (2, (1, 6), (1, 6), 20, False)),
    (2, 4, 2, 2, 5, 0, 21, (2, (1, 6), (1, 6), 21, False)),
    (2, 4, 2, 2, 5, 0, 10 ** 9, (2, (1, 6), (1, 6), 49, True)),
])
def test_scan_root_nodes(fresh_field, p, n, r, s, cap, floor, budget, expected):
    # the root of every B profile, the cut at r >= best, the s = 1 leaf and
    # the floor/budget stop after either, pinned as whole _scan results
    assert search._scan(fresh_field(p, n), r, s, cap, floor, budget) == expected


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
    for r, s, trials, message in [(0, 2, 1, "must lie in"), (2, 5, 1, "must lie in"),
                                  (2, 2, 0, "trials")]:
        with pytest.raises(ValueError, match=message):
            mu_randomized(f, r, s, trials, seed=0)
