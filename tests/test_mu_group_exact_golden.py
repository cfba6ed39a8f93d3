"""mu_group_exact against pinned outputs: value, both witnesses, the exhaustive
flag and the node count, over every (r, s) of cyclic:1..7, product:2,2 and
product:2,4 and the Z7xZ3semidirect cells with r <= 2, each at budgets that
include truncated runs.

Regenerate (only when a change of results is intended) with
    PYTHONPATH=src python tests/test_mu_group_exact_golden.py
"""

import pathlib

from oracle import check_golden, write_golden
from subspace_products.groups import builtin_group, mu_group_exact

GOLDEN = pathlib.Path(__file__).parent / "data" / "mu_group_exact_golden.json"
BUDGETS = (10 ** 9, 1, 3, 50)


def golden_cases():
    """(group name, r, s, budget) tuples."""
    names = [f"cyclic:{n}" for n in range(1, 8)] + ["product:2,2", "product:2,4"]
    for name in names + ["Z7xZ3semidirect"]:
        k = builtin_group(name).order
        for r in range(1, (2 if name == "Z7xZ3semidirect" else k) + 1):
            for s in range(1, k + 1):
                for budget in BUDGETS:
                    yield name, r, s, budget


def compute(groups, case):
    name, r, s, budget = case
    if name not in groups:
        groups[name] = builtin_group(name)
    res = mu_group_exact(groups[name], r, s, budget)
    return [list(case), res.value, list(res.witness_a), list(res.witness_b),
            res.exhaustive, res.pairs_examined]


def test_mu_group_exact_matches_golden():
    check_golden(GOLDEN, golden_cases(), compute)


if __name__ == "__main__":
    write_golden(GOLDEN, golden_cases(), compute)
