"""mu_exact against pinned outputs: value, both witnesses, the exact flag and
the pair count, over a grid of fields, dimensions and options that includes
budget-truncated runs and a parallel scan.

Regenerate (only when a change of results is intended) with
    PYTHONPATH=src python tests/test_mu_exact_golden.py
"""

import json
import pathlib

from subspace_products.fields import ExtensionField
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
    p, n, r, s, canon, floor, budget, workers = case
    if (p, n) not in fields:
        fields[(p, n)] = ExtensionField(p, n)
    res = mu_exact(fields[(p, n)], r, s,
                   SearchOptions(budget=budget, workers=workers,
                                 canonicalize=canon, use_kappa_floor=floor))
    return [list(case), res.value, list(res.witness_a.rows),
            list(res.witness_b.rows), res.exhaustive, res.pairs_examined]


def test_mu_exact_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    fields = {}
    got = [compute(fields, case) for case in golden_cases()]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e, (g[0], g[1:], e[1:])


if __name__ == "__main__":
    fields = {}
    rows = [json.dumps(compute(fields, case)) for case in golden_cases()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(rows)} cases to {GOLDEN}")
