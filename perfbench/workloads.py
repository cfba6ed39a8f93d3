"""The four benchmark workloads, each a fixed list of tasks built from a seed.

A workload's setup builds its fields and groups and generates its inputs; the
library only ever receives those generated subspaces, argv lists and files.
Every task calls the library through a module attribute looked up at call
time, so the tracer's wrappers (tracing.py) see the call.

A task's ``check`` compares the result with a source independent of the code
under test (a theorem, a value stated in the paper's setting, a golden file,
or a recount from the Cayley table) and raises CheckFailed on a mismatch.
``fingerprint`` reduces a result to plain data, so the traced pass can be
compared with the untraced one.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from subspace_products import cli, fields, groups, linalg, products, search
from subspace_products.kappa import divisors, kappa_rs


class CheckFailed(Exception):
    """A task's result disagrees with its independent reference."""


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], Any]


def _call(module, name: str, *args):
    return getattr(module, name)(*args)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _mu_fingerprint(res) -> tuple:
    wa, wb = res.witness_a, res.witness_b
    if isinstance(wa, linalg.Subspace):
        wa, wb = wa.rows, wb.rows
    return res.value, wa, wb, res.exhaustive, res.pairs_examined


# -- kneser: random pairs through product_span -> stabilizer -> Kneser --------

KNESER_SHAPES = (((2, 8), 3, 5), ((2, 12), 5, 7), ((3, 6), 3, 4))


def _kneser_run(a, b):
    ab = products.product_span(a, b)
    return ab, products.stabilizer(ab)


def _kneser_check(a, b, res) -> None:
    ab, st = res
    _expect(st.is_subfield_verified, "stabilizer not verified as a subfield")
    _expect(ab.field.n % st.g == 0, "stabilizer degree does not divide n")
    _expect(ab.dim >= a.dim + b.dim - st.g, "linear Kneser inequality violated")


def _kneser_fingerprint(res) -> tuple:
    ab, st = res
    return ab.rows, st.h.rows, st.g, st.is_subfield_verified


def kneser(seed: int, smoke: bool, out_dir: Path) -> list[Task]:
    rng = random.Random(seed)
    pairs = 10 if smoke else 1000
    tasks = []
    for (p, n), r, s in KNESER_SHAPES:
        f = fields.ExtensionField(p, n)
        for _ in range(pairs):
            a = search.random_subspace(f, r, rng)
            b = search.random_subspace(f, s, rng)
            tasks.append(Task(f"gf{p}_{n}", partial(_kneser_run, a, b),
                              partial(_kneser_check, a, b), _kneser_fingerprint))
    return tasks


# -- mu-sweep: floor-free exhaustive mu over every (r, s) -----------------------

# (p, n, largest r and s); GF(2^7) is capped at 3 to keep one pass near 5 s.
MU_SWEEP = ((2, 6, 6), (3, 4, 4), (3, 5, 5), (2, 7, 3))
MU_SWEEP_SMOKE = ((2, 4, 4), (3, 3, 3))


def _mu_field_check(f, r, s, degrees, res) -> None:
    _expect(res.exhaustive, "scan not exhaustive")
    _expect(res.value == kappa_rs(r, s, degrees).value, "mu differs from kappa")
    wa, wb = res.witness_a, res.witness_b
    _expect((wa.dim, wb.dim) == (r, s), "witness dimensions wrong")
    _expect(products.product_span(wa, wb).dim == res.value, "witness product dimension wrong")


def mu_sweep(seed: int, smoke: bool, out_dir: Path) -> list[Task]:
    """Fixed cells; the seed does not change them."""
    opts = search.SearchOptions(use_kappa_floor=False)
    tasks = []
    for p, n, top in MU_SWEEP_SMOKE if smoke else MU_SWEEP:
        f = fields.ExtensionField(p, n)
        degrees = divisors(n)
        for r in range(1, top + 1):
            for s in range(1, top + 1):
                tasks.append(Task(f"gf{p}_{n}", partial(_call, search, "mu_exact", f, r, s, opts),
                                  partial(_mu_field_check, f, r, s, degrees), _mu_fingerprint))
    return tasks


# -- group-scan: exhaustive subset minima in abelian and order-21 groups --------

ABELIAN = tuple(f"cyclic:{n}" for n in range(1, 11)) + ("product:2,2", "product:2,4")
ABELIAN_SMOKE = tuple(f"cyclic:{n}" for n in range(1, 6))
# Values given by the seed commit's exhaustive scan.
Z7XZ3_EXPECTED = {(4, 4): 7, (4, 5): 7, (3, 5): 6, (2, 10): 11}
Z7XZ3_SMOKE = {(3, 5): 6}


def _product_set_size(group, a, b) -> int:
    return len({group.cayley[x][y] for x in a for y in b})


def _mu_group_check(group, r, s, expected, res) -> None:
    _expect(res.exhaustive, "scan not exhaustive")
    _expect(res.value == expected, f"value {res.value} != expected {expected}")
    _expect((len(set(res.witness_a)), len(set(res.witness_b))) == (r, s), "witness sizes wrong")
    _expect(_product_set_size(group, res.witness_a, res.witness_b) == res.value,
            "witness product size wrong")


def group_scan(seed: int, smoke: bool, out_dir: Path) -> list[Task]:
    """Fixed cells; the seed does not change them."""
    tasks = []
    for name in ABELIAN_SMOKE if smoke else ABELIAN:
        g = groups.builtin_group(name)
        for r in range(1, g.order + 1):
            for s in range(1, g.order + 1):
                expected = groups.kappa_group(r, s, g).value
                tasks.append(Task(name, partial(_call, groups, "mu_group_exact", g, r, s),
                                  partial(_mu_group_check, g, r, s, expected), _mu_fingerprint))
    g = groups.builtin_group("Z7xZ3semidirect")
    for (r, s), expected in (Z7XZ3_SMOKE if smoke else Z7XZ3_EXPECTED).items():
        tasks.append(Task("Z7xZ3semidirect", partial(_call, groups, "mu_group_exact", g, r, s),
                          partial(_mu_group_check, g, r, s, expected), _mu_fingerprint))
    return tasks


# -- cli-oneshot: rounds of the seven commands through cli.main ----------------

GOLDEN_TABLE = Path(__file__).resolve().parent.parent / "tests" / "data" / "kappa_table_16.txt"
CONSTRUCT = (("2^12", 5, 7), ("3^6", 3, 4), ("3^10", 4, 6), ("2^40", 3, 5))
STABILIZER_FIELD = (2, 12)


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _call(cli, "main", argv)
    return code, out.getvalue()


def _cli_fingerprint(res):
    code, text = res
    if text.startswith("{"):
        report = json.loads(text)
        report.pop("elapsed_seconds", None)
        return code, report
    return code, text


def _check_kappa_table(golden, results) -> None:
    _expect(results == golden, "kappa-table differs from the golden file")


def _check_kappa(golden_rows, r, s, results) -> None:
    _expect(results["value"] == golden_rows[r - 1][s - 1], "kappa differs from the golden table")


def _check_mu_field(f, r, s, exhaustive, results) -> None:
    bound = kappa_rs(r, s, divisors(f.n)).value
    _expect(results["exhaustive"] == exhaustive, "exhaustive flag wrong")
    _expect(results["value"] == bound if exhaustive else results["value"] >= bound,
            "mu-field value contradicts kappa")
    a = linalg.Subspace.from_text(f, "\n".join(results["witness_a"]))
    b = linalg.Subspace.from_text(f, "\n".join(results["witness_b"]))
    _expect((a.dim, b.dim) == (r, s), "witness dimensions wrong")
    _expect(products.product_span(a, b).dim == results["value"], "witness product dimension wrong")


def _check_construct(n, r, s, results) -> None:
    bound = kappa_rs(r, s, divisors(n)).value
    _expect(results["achieves_kappa"] and results["kneser"]["holds"], "construction not certified")
    _expect(results["kappa"]["value"] == bound == results["dim_ab"], "construction misses kappa")


def _check_stabilizer(d, dim_v, results) -> None:
    g = results["g"]
    _expect(results["is_subfield_verified"], "stabilizer not verified as a subfield")
    _expect(results["dim_v"] == dim_v, "subspace read back with the wrong dimension")
    _expect(g % d == 0 and STABILIZER_FIELD[1] % g == 0, "stabilizer degree wrong")


def _check_verify_kneser(pairs, results) -> None:
    _expect(results["violations"] == 0 and results["subfield_check_failures"] == 0,
            "Kneser verification reported failures")
    _expect(sum(results["slack_histogram"].values()) == pairs, "histogram does not cover every pair")


def _check_mu_group(name, r, s, expected, results) -> None:
    group = groups.builtin_group(name)
    _expect(results["value"] == expected, f"value {results['value']} != expected {expected}")
    _expect(_product_set_size(group, results["witness_a"], results["witness_b"]) == expected,
            "witness product size wrong")
    _expect((len(results["witness_a"]), len(results["witness_b"])) == (r, s), "witness sizes wrong")


def _cli_check(parse_json, check, res) -> None:
    code, text = res
    _expect(code == 0, f"exit code {code}")
    check(json.loads(text)["results"] if parse_json else text)


def _stabilizer_file(f, d, rng, path: Path) -> int:
    """Write V = H*B for the degree-d subfield H and a random B; H fixes V."""
    gamma = f.subfield_generator(d)
    h = linalg.span(f, [f.pow(gamma, i) for i in range(d)])
    b = search.random_subspace(f, rng.randint(1, 3), rng)
    v = products.product_span(h, b)
    path.write_text(v.to_text() + "\n", encoding="utf-8")
    return v.dim


def cli_oneshot(seed: int, smoke: bool, out_dir: Path) -> list[Task]:
    rng = random.Random(seed)
    golden = GOLDEN_TABLE.read_text(encoding="utf-8")
    golden_rows = [[int(v) for v in line.split()] for line in golden.splitlines()]
    f26 = fields.ExtensionField(2, 6)
    stab_field = fields.ExtensionField(*STABILIZER_FIELD)
    tasks = []

    def add(argv, check, parse_json=True):
        argv = [str(a) for a in argv]
        tasks.append(Task(argv[0], partial(_cli_run, argv),
                          partial(_cli_check, parse_json, check), _cli_fingerprint))

    for rnd in range(1 if smoke else 3):
        add(["kappa-table", "--n", 16], partial(_check_kappa_table, golden), parse_json=False)
        r, s = rng.randint(1, 16), rng.randint(1, 16)
        add(["kappa", "--n", 16, "--r", r, "--s", s], partial(_check_kappa, golden_rows, r, s))
        add(["mu-field", "--field", "2^6", "--r", 3, "--s", 3, "--exhaustive"],
            partial(_check_mu_field, f26, 3, 3, True))
        add(["mu-field", "--field", "2^6", "--r", 3, "--s", 3, "--trials", 2000,
             "--seed", rng.getrandbits(32)], partial(_check_mu_field, f26, 3, 3, False))
        for spec, r, s in CONSTRUCT:
            n = fields.parse_field_spec(spec)[1]
            add(["construct", "--field", spec, "--r", r, "--s", s],
                partial(_check_construct, n, r, s))
        d = rng.choice((1, 2, 3, 4, 6))
        path = out_dir / f"cli-{seed}-{rnd}.txt"
        dim_v = _stabilizer_file(stab_field, d, rng, path)
        add(["stabilizer", "--field", "2^12", "--subspace", path],
            partial(_check_stabilizer, d, dim_v))
        add(["verify-kneser", "--field", "2^8", "--r", 3, "--s", 5, "--pairs", 200,
             "--seed", rng.getrandbits(32)], partial(_check_verify_kneser, 200))
        add(["mu-group", "--group", "Z7xZ3semidirect", "--r", 5, "--s", 9, "--trials", 100000,
             "--seed", rng.getrandbits(32)],
            partial(_check_mu_group, "Z7xZ3semidirect", 5, 9, 13))
        # Cauchy-Davenport: min |AB| = min(p, r + s - 1) in a group of prime order p.
        add(["mu-group", "--group", "cyclic:7", "--r", 3, "--s", 4, "--exhaustive"],
            partial(_check_mu_group, "cyclic:7", 3, 4, 6))
    return tasks


WORKLOADS = {
    "kneser": kneser,
    "mu-sweep": mu_sweep,
    "group-scan": group_scan,
    "cli-oneshot": cli_oneshot,
}
