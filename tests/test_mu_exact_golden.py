"""mu_exact against pinned outputs: value, both witnesses, the exact flag and
the pair count, over a grid of fields, dimensions and options that includes
budget-truncated runs.  Rows with canonicalize=False pin the scan over all
subspaces, not only those containing 1; mu_exact never runs it, so those rows
check the brute-force oracle the scan's tests compare against.  The last
field of each case is a worker count, which mu_exact does not take.

Regenerate (only when a change of results is intended) with
    PYTHONPATH=src python tests/test_mu_exact_golden.py
"""

import pathlib

from oracle import check_golden, mu_field_brute, write_golden
from subspace_products.fields import ExtensionField
from subspace_products.kappa import divisors, kappa_rs
from subspace_products.search import SearchOptions, mu_exact

GOLDEN = pathlib.Path(__file__).parent / "data" / "mu_exact_golden.json"


def golden_cases():
    """(p, n, r, s, canonicalize, use_kappa_floor, budget, workers) tuples."""
    for p, n in ((2, 4), (3, 3)):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                for canon in (True, False):
                    for floor in (True, False):
                        for budget in (10 ** 9, 1, 3, 50):
                            yield p, n, r, s, canon, floor, budget, 1
    yield 2, 5, 3, 3, True, False, 10 ** 9, 2
    yield 3, 3, 2, 2, True, False, 10 ** 9, 2


def compute(fields, case):
    p, n, r, s, canon, floor, budget, _ = case
    if (p, n) not in fields:
        fields[(p, n)] = ExtensionField(p, n)
    f = fields[(p, n)]
    if canon:
        res = mu_exact(f, r, s, SearchOptions(budget=budget, use_kappa_floor=floor))
        got = (res.value, res.witness_a.rows, res.witness_b.rows, res.exhaustive,
               res.pairs_examined)
    else:
        lower = kappa_rs(r, s, divisors(n)).value if floor else max(r, s)
        got = mu_field_brute(f, r, s, False, lower, budget)
    value, a_rows, b_rows, exhaustive, pairs = got
    return [list(case), value, list(a_rows), list(b_rows), exhaustive, pairs]


def test_mu_exact_matches_golden():
    check_golden(GOLDEN, golden_cases(), compute)


if __name__ == "__main__":
    write_golden(GOLDEN, golden_cases(), compute)
