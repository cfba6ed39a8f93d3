"""mu_group_randomized against pinned outputs: value, both witnesses and the
evaluation count, over seeded cells of cyclic:12, product:2,4 and
Z7xZ3semidirect, plus edge cells (r = 1, s = order, a single trial, a
trial budget that runs out in the middle of a swap sweep, and subsets that
fill the group, which leave a side's swap sweep no candidates).

Regenerate (only when a change of results is intended) with
    PYTHONPATH=src python tests/test_group_randomized_golden.py
"""

import pathlib

from oracle import check_golden, write_golden
from subspace_products.groups import builtin_group, mu_group_randomized

GOLDEN = pathlib.Path(__file__).parent / "data" / "mu_group_randomized_golden.json"


def golden_cases():
    """(group name, r, s, trials, seed) tuples."""
    yield "Z7xZ3semidirect", 5, 9, 100000, 1
    for name in ("cyclic:12", "product:2,4", "Z7xZ3semidirect"):
        for r, s, trials, seed in ((2, 3, 500, 0), (3, 4, 2000, 1), (3, 5, 2000, 2),
                                   (4, 4, 5000, 3), (4, 6, 5000, 4), (5, 3, 1000, 5),
                                   (2, 7, 3000, 6)):
            yield name, r, s, trials, seed
    yield "cyclic:12", 1, 5, 500, 0
    yield "cyclic:12", 1, 1, 50, 3
    yield "product:2,4", 3, 8, 200, 1
    yield "Z7xZ3semidirect", 1, 21, 100, 2
    yield "Z7xZ3semidirect", 4, 5, 1, 7
    # 10 evaluations run out during the first A sweep of 18 probes
    yield "cyclic:12", 3, 4, 10, 2
    # A is the whole group: the A sweep has no element to swap in
    yield "cyclic:12", 12, 3, 300, 8
    # both sides are the whole group, so only restarts count
    yield "product:2,2", 4, 4, 50, 9


def compute(groups, case):
    name, r, s, trials, seed = case
    if name not in groups:
        groups[name] = builtin_group(name)
    res = mu_group_randomized(groups[name], r, s, trials, seed)
    return [list(case), res.value, list(res.witness_a), list(res.witness_b),
            res.pairs_examined]


def test_mu_group_randomized_matches_golden():
    check_golden(GOLDEN, golden_cases(), compute)


if __name__ == "__main__":
    write_golden(GOLDEN, golden_cases(), compute)
