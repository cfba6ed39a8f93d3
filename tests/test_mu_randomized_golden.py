"""mu_randomized against pinned outputs: value, both witnesses' RREF rows and
the pair count, over seeded cells of GF(2^6) (the shape `mu-field --trials`
runs in the benchmark), GF(2^8), GF(3^4), GF(5^3), GF(2^12) and GF(3^6), plus
edge cells: r = 1, s = n, a single trial, GF(2^2) and GF(3^2) at r = 2 (where
about a half and a third of all draws are rejected), GF(3^10) with enough
trials that its exp/log tables are built mid-run, and GF(2^40), which has none.

Regenerate (only when a change of results is intended) with
    PYTHONPATH=src python tests/test_mu_randomized_golden.py
"""

import pathlib

from oracle import check_golden, write_golden
from subspace_products.fields import ExtensionField
from subspace_products.search import mu_randomized

GOLDEN = pathlib.Path(__file__).parent / "data" / "mu_randomized_golden.json"


def golden_cases():
    """((p, n), r, s, trials, seed) tuples."""
    yield (2, 6), 3, 3, 2000, 1
    for pn, r, s, trials, seed in (((2, 8), 3, 5, 300, 2), ((3, 4), 2, 3, 300, 3),
                                   ((5, 3), 2, 2, 300, 4), ((2, 12), 5, 7, 100, 5),
                                   ((3, 6), 3, 4, 200, 6)):
        yield pn, r, s, trials, seed
    yield (2, 6), 1, 4, 200, 7
    yield (3, 4), 2, 4, 100, 8
    yield (2, 8), 3, 5, 1, 9
    yield (2, 2), 2, 1, 100, 10
    yield (2, 2), 2, 2, 100, 11
    yield (3, 2), 2, 2, 100, 12
    yield (3, 10), 2, 3, 1400, 13
    yield (2, 40), 3, 5, 100, 14


def compute(fields, case):
    pn, r, s, trials, seed = case
    if pn not in fields:
        fields[pn] = ExtensionField(*pn)
    res = mu_randomized(fields[pn], r, s, trials, seed)
    return [[list(pn), r, s, trials, seed], res.value, list(res.witness_a.rows),
            list(res.witness_b.rows), res.pairs_examined]


def test_mu_randomized_matches_golden():
    check_golden(GOLDEN, golden_cases(), compute)


if __name__ == "__main__":
    write_golden(GOLDEN, golden_cases(), compute)
