"""Command-line front end.

Every command emits a JSON run report (command echo, parameters, seed,
results, timing) on stdout; kappa-table can emit the raw matrix as text or
CSV instead.  Exit codes: 0 success, 2 usage, 3 budget exceeded (partial
result reported), out of memory or interrupted, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import lru_cache

from . import __version__
from .fields import ExtensionField, parse_ints
from .kappa import AdmissibleDegreeSet, INFINITE, check_rs, divisors, f_h, kappa_rs, kappa_table
from .linalg import Subspace
from .products import kneser_check, optimal_pair, stabilizer
from .groups import builtin_group, group_from_json, kappa_group, mu_group_exact, \
    mu_group_randomized
from .search import SearchOptions, mu_exact, mu_randomized, random_subspace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


def _load_field(args) -> ExtensionField:
    return ExtensionField.from_spec(args.field, getattr(args, "modulus", None))


def _degree_set(args) -> AdmissibleDegreeSet:
    if args.degrees is None:
        if args.n is None:
            raise ValueError("provide --n or --degrees")
        return divisors(args.n)
    if args.n is not None and args.n < 1:   # n = 0 would read as INFINITE, "no --n"
        raise ValueError(f"n={args.n} must be >= 1")
    degs = tuple(sorted(set(parse_ints(args.degrees, "degrees"))))
    return AdmissibleDegreeSet(n=INFINITE if args.n is None else args.n, degrees=degs)


def _seed_of(args) -> int:
    # secrets.randbits, without the 3.7 MB of RSS that importing hashlib costs
    return args.seed if args.seed is not None else random.SystemRandom().getrandbits(32)


def _field_results(field: ExtensionField, **results) -> dict:
    """A field command's results: the field and its modulus, then `results`."""
    return {"field": field.spec_str(), "modulus": field.modulus_str(), **results}


def _run_mu(args, head, exact, randomized, rows):
    """Check that the flags choose one mode, run exact(budget) for --exhaustive
    or randomized(trials, seed) for --trials, then call head(), so the run's own
    range check speaks first.  Returns head()'s results followed by the run's value,
    flags and witnesses (`rows` formats one); exit 3 if the budget truncated the run."""
    if args.exhaustive == (args.trials is not None):
        raise ValueError("choose exactly one of --exhaustive or --trials")
    if args.exhaustive:
        seed, res = None, exact(args.budget)
    else:
        seed = _seed_of(args)
        res = randomized(args.trials, seed)
    results = head()
    results.update(value=res.value, exhaustive=res.exhaustive,
                   pairs_examined=res.pairs_examined,
                   witness_a=rows(res.witness_a), witness_b=rows(res.witness_b))
    return results, EXIT_OK if res.exhaustive or not args.exhaustive else EXIT_BUDGET, seed


# -- command handlers: return (results dict | raw text, exit code, seed) ------

def _cmd_kappa(args):
    degrees = _degree_set(args)
    res = kappa_rs(args.r, args.s, degrees)
    results = {
        "value": res.value,
        "h0": res.h0,
        "r0": res.r0,
        "s0": res.s0,
        "terms": {str(h): f_h(args.r, args.s, h) for h in degrees.degrees},
    }
    return results, EXIT_OK, None


def _cmd_kappa_table(args):
    degrees = _degree_set(args)
    table = kappa_table(args.n, degrees)
    if args.format == "text":
        return format_table_text(table), EXIT_OK, None
    if args.format == "csv":
        return "\n".join(",".join(str(v) for v in row) for row in table), EXIT_OK, None
    return {"n": args.n, "degrees": list(degrees.degrees), "table": table}, EXIT_OK, None


def format_table_text(table) -> str:
    width = max(len(str(v)) for row in table for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in table)


def _cmd_mu_field(args):
    field = _load_field(args)
    r, s = args.r, args.s
    return _run_mu(args, lambda: _field_results(field),
                   lambda budget: mu_exact(field, r, s, SearchOptions(budget=budget)),
                   lambda trials, seed: mu_randomized(field, r, s, trials, seed),
                   lambda sp: sp.to_text().splitlines())


def _cmd_construct(args):
    field = _load_field(args)
    a, b, cert = optimal_pair(field, args.r, args.s)
    report = kneser_check(a, b)
    results = _field_results(
        field, kappa={"value": cert.value, "h0": cert.h0, "r0": cert.r0, "s0": cert.s0},
        dim_ab=report.dim_ab, achieves_kappa=report.dim_ab == cert.value,
        witness_a=a.to_text().splitlines(), witness_b=b.to_text().splitlines(),
        kneser={"slack": report.slack, "dim_h": report.dim_h, "holds": report.holds})
    ok = results["achieves_kappa"] and report.holds and report.is_subfield_verified
    return results, EXIT_OK if ok else EXIT_VIOLATION, None


def _cmd_stabilizer(args):
    field = _load_field(args)
    try:
        with open(args.subspace, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read subspace file: {exc}") from None
    v = Subspace.from_text(field, text)
    if v.is_zero():
        raise ValueError("subspace file describes the zero subspace")
    rep = stabilizer(v)
    results = _field_results(field, dim_v=v.dim, g=rep.g,
                             stabilizer_basis=rep.h.to_text().splitlines(),
                             is_subfield_verified=rep.is_subfield_verified)
    return results, EXIT_OK if rep.is_subfield_verified else EXIT_VIOLATION, None


def _cmd_verify_kneser(args):
    field = _load_field(args)
    check_rs(args.r, args.s, field.n)
    if args.pairs < 1:
        raise ValueError("--pairs must be >= 1")
    seed = _seed_of(args)
    rng = random.Random(seed)
    histogram: dict[int, int] = {}
    violations = 0
    subfield_failures = 0
    first_violation = None
    for _ in range(args.pairs):
        a = random_subspace(field, args.r, rng)
        b = random_subspace(field, args.s, rng)
        report = kneser_check(a, b)
        histogram[report.slack] = histogram.get(report.slack, 0) + 1
        if not report.is_subfield_verified:
            subfield_failures += 1
        if not report.holds:
            violations += 1
            if first_violation is None:
                first_violation = {"witness_a": a.to_text().splitlines(),
                                   "witness_b": b.to_text().splitlines()}
    results = _field_results(
        field, pairs=args.pairs, violations=violations,
        subfield_check_failures=subfield_failures,
        slack_histogram={str(k): histogram[k] for k in sorted(histogram)})
    if first_violation:
        results["first_violation"] = first_violation
    ok = violations == 0 and subfield_failures == 0
    return results, EXIT_OK if ok else EXIT_VIOLATION, seed


def _load_group(args):
    if args.group_file:
        try:
            with open(args.group_file, "r", encoding="utf-8") as fh:
                return group_from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read group file: {exc}") from None
        except (KeyError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed group file: {exc}") from None
    if args.group:
        return builtin_group(args.group)
    raise ValueError("provide --group or --group-file")


def _cmd_mu_group(args):
    group = _load_group(args)
    r, s = args.r, args.s

    def head():
        cert = kappa_group(r, s, group)
        return {"group": group.name, "order": group.order,
                "subgroup_orders": list(group.subgroup_orders),
                "kappa_g": {"value": cert.value, "h0": cert.h0}}

    return _run_mu(args, head,
                   lambda budget: mu_group_exact(group, r, s, budget=budget),
                   lambda trials, seed: mu_group_randomized(group, r, s, trials, seed),
                   list)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; `main` dispatches to `_cmd_<command>` by name."""
    parser = argparse.ArgumentParser(
        prog="subspace-products",
        description="Minimal dimensions of subspace products in GF(p^n) and "
                    "their exact integer bound.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rs(p):
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--s", type=int, required=True)

    def add_field(p):
        p.add_argument("--field", required=True, help='field spec "p^n", e.g. 2^6')
        p.add_argument("--modulus", help="override modulus, coefficients low to high, "
                                         'e.g. "1,1,0,0,1"')

    def add_mu_modes(p):
        p.add_argument("--exhaustive", action="store_true")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--budget", type=int, default=10 ** 9)

    p = sub.add_parser("kappa", help="integer bound at one (r, s)")
    add_rs(p)
    p.add_argument("--n", type=int)
    p.add_argument("--degrees", help='explicit degree set, e.g. "1,2,4"')

    p = sub.add_parser("kappa-table", help="full n x n bound matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("mu-field", help="minimum dim<AB> by search")
    add_field(p)
    add_rs(p)
    add_mu_modes(p)

    p = sub.add_parser("construct", help="build a pair attaining the bound")
    add_field(p)
    add_rs(p)

    p = sub.add_parser("stabilizer", help="stabilizer subfield of a subspace")
    add_field(p)
    p.add_argument("--subspace", required=True, help="file with one basis row per "
                                                     "line, coefficients comma-separated")

    p = sub.add_parser("verify-kneser", help="random pairs against the stabilizer bound")
    add_field(p)
    add_rs(p)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("mu-group", help="minimum |AB| over group subsets")
    p.add_argument("--group", help="builtin name: cyclic:n, product:n,m, Z7xZ3semidirect")
    p.add_argument("--group-file", help="JSON file with order, identity, cayley")
    add_rs(p)
    add_mu_modes(p)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        results, code, seed = globals()["_cmd_" + args.command.replace("-", "_")](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_BUDGET
    if not isinstance(results, str):
        results = json.dumps({
            "command": args.command,
            "argv": argv,
            "version": __version__,
            "seed": seed,
            "params": {k: v for k, v in vars(args).items() if k != "command" and v is not None},
            "results": results,
            "elapsed_seconds": round(time.perf_counter() - t0, 6),
        }, indent=2)
    try:
        print(results, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (`| head`): what is left, and the exit
        # flush, go to os.devnull, and the exit code stays the command's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
