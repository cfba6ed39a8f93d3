"""optimal_pair and tower_construction against pinned outputs: the RREF rows
of both witnesses and, for optimal_pair, the whole KappaResult.

The optimal pairs cover every (r, s) of GF(2^8), GF(2^12), GF(3^6) and
GF(5^3), plus GF(3^10) (4, 6) and GF(2^40) (3, 5), fields without log
tables.  The tower rows cover every (r, s) of GF(2^6) with m = 2 and of
GF(2^12) with m in {2, 3, 4}, lifting A0 = span{1, gamma, ...,
gamma^(r0-1)} for gamma generating the subfield M (likewise B0).

Regenerate (only when a change of results is intended) with
    PYTHONPATH=src python tests/test_construct_golden.py
"""

import json
import pathlib

from subspace_products.fields import ExtensionField
from subspace_products.linalg import span
from subspace_products.products import TowerSpec, optimal_pair, tower_construction

GOLDEN = pathlib.Path(__file__).parent / "data" / "construct_golden.json"


def golden_cases():
    """("pair", p, n, r, s) and ("tower", p, n, m, r, s) tuples."""
    for p, n in ((2, 8), (2, 12), (3, 6), (5, 3)):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                yield "pair", p, n, r, s
    yield "pair", 3, 10, 4, 6
    yield "pair", 2, 40, 3, 5
    for n, ms in ((6, (2,)), (12, (2, 3, 4))):
        for m in ms:
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    yield "tower", 2, n, m, r, s


def compute(fields, case):
    kind, p, n, *dims = case
    if (p, n) not in fields:
        fields[(p, n)] = ExtensionField(p, n)
    f = fields[(p, n)]
    if kind == "pair":
        a, b, cert = optimal_pair(f, *dims)
        return [list(case), list(a.rows), list(b.rows),
                [cert.value, cert.h0, cert.r0, cert.s0]]
    m, r, s = dims
    spec = TowerSpec.for_dims(f, m, r, s)
    gamma = f.subfield_generator(m)
    a0 = span(f, [f.pow(gamma, i) for i in range(spec.r0)])
    b0 = span(f, [f.pow(gamma, i) for i in range(spec.s0)])
    a, b = tower_construction(spec, a0, b0)
    return [list(case), list(a.rows), list(b.rows)]


def test_constructions_match_golden():
    expected = json.loads(GOLDEN.read_text())
    fields = {}
    got = [compute(fields, case) for case in golden_cases()]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e, (g[0], g[1:], e[1:])


if __name__ == "__main__":
    fields = {}
    rows = [json.dumps(compute(fields, case), separators=(",", ":"))
            for case in golden_cases()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(rows)} cases to {GOLDEN}")
