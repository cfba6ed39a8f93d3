"""Command-line front end.

Every command emits a JSON run report (command echo, parameters, seed,
results, timing) on stdout; kappa-table can emit the raw matrix as text or
CSV instead.  Exit codes: 0 success, 2 usage, 3 budget exceeded (partial
result reported), out of memory or interrupted, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import random
import secrets
import sys
import time

from . import __version__
from .fields import ExtensionField
from .kappa import AdmissibleDegreeSet, INFINITE, divisors, f_h, kappa_rs, kappa_table
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
    if args.degrees is not None:
        degs = tuple(sorted({int(t) for t in args.degrees.split(",")}))
        return AdmissibleDegreeSet(n=args.n if args.n is not None else INFINITE,
                                   degrees=degs)
    if args.n is None:
        raise ValueError("provide --n or --degrees")
    return divisors(args.n)


def _seed_of(args) -> int:
    return args.seed if args.seed is not None else secrets.randbits(32)


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
    if args.exhaustive == (args.trials is not None):
        raise ValueError("choose exactly one of --exhaustive or --trials")
    if args.exhaustive:
        res = mu_exact(field, args.r, args.s, SearchOptions(budget=args.budget))
        seed = None
    else:
        seed = _seed_of(args)
        res = mu_randomized(field, args.r, args.s, args.trials, seed)
    results = {
        "field": field.spec_str(),
        "modulus": field.modulus_str(),
        "value": res.value,
        "exhaustive": res.exhaustive,
        "pairs_examined": res.pairs_examined,
        "witness_a": res.witness_a.to_text().splitlines(),
        "witness_b": res.witness_b.to_text().splitlines(),
    }
    code = EXIT_OK if res.exhaustive or not args.exhaustive else EXIT_BUDGET
    return results, code, seed


def _cmd_construct(args):
    field = _load_field(args)
    a, b, cert = optimal_pair(field, args.r, args.s)
    report = kneser_check(a, b)
    results = {
        "field": field.spec_str(),
        "modulus": field.modulus_str(),
        "kappa": {"value": cert.value, "h0": cert.h0, "r0": cert.r0, "s0": cert.s0},
        "dim_ab": report.dim_ab,
        "achieves_kappa": report.dim_ab == cert.value,
        "witness_a": a.to_text().splitlines(),
        "witness_b": b.to_text().splitlines(),
        "kneser": {"slack": report.slack, "dim_h": report.dim_h, "holds": report.holds},
    }
    ok = results["achieves_kappa"] and report.holds and report.is_subfield_verified
    return results, EXIT_OK if ok else EXIT_VIOLATION, None


def _cmd_stabilizer(args):
    field = _load_field(args)
    try:
        with open(args.subspace, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read subspace file: {exc}") from None
    v = Subspace.from_text(field, text)
    if v.is_zero():
        raise ValueError("subspace file describes the zero subspace")
    rep = stabilizer(v)
    results = {
        "field": field.spec_str(),
        "modulus": field.modulus_str(),
        "dim_v": v.dim,
        "g": rep.g,
        "stabilizer_basis": rep.h.to_text().splitlines(),
        "is_subfield_verified": rep.is_subfield_verified,
    }
    return results, EXIT_OK if rep.is_subfield_verified else EXIT_VIOLATION, None


def _cmd_verify_kneser(args):
    field = _load_field(args)
    if not (1 <= args.r <= field.n and 1 <= args.s <= field.n):
        raise ValueError(f"r={args.r}, s={args.s} must lie in [1, {field.n}]")
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
    results = {
        "field": field.spec_str(),
        "modulus": field.modulus_str(),
        "pairs": args.pairs,
        "violations": violations,
        "subfield_check_failures": subfield_failures,
        "slack_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
    if first_violation:
        results["first_violation"] = first_violation
    ok = violations == 0 and subfield_failures == 0
    return results, EXIT_OK if ok else EXIT_VIOLATION, seed


def _load_group(args):
    if args.group_file:
        try:
            with open(args.group_file, "r", encoding="utf-8") as fh:
                return group_from_json(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read group file: {exc}") from None
        except (KeyError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed group file: {exc}") from None
    if args.group:
        return builtin_group(args.group)
    raise ValueError("provide --group or --group-file")


def _cmd_mu_group(args):
    group = _load_group(args)
    if args.exhaustive == (args.trials is not None):
        raise ValueError("choose exactly one of --exhaustive or --trials")
    cert = kappa_group(args.r, args.s, group)
    if args.exhaustive:
        res = mu_group_exact(group, args.r, args.s, budget=args.budget)
        seed = None
    else:
        seed = _seed_of(args)
        res = mu_group_randomized(group, args.r, args.s, args.trials, seed)
    results = {
        "group": group.name,
        "order": group.order,
        "subgroup_orders": list(group.subgroup_orders),
        "kappa_g": {"value": cert.value, "h0": cert.h0},
        "value": res.value,
        "exhaustive": res.exhaustive,
        "pairs_examined": res.pairs_examined,
        "witness_a": list(res.witness_a),
        "witness_b": list(res.witness_b),
    }
    code = EXIT_OK if res.exhaustive or not args.exhaustive else EXIT_BUDGET
    return results, code, seed


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("kappa", help="integer bound at one (r, s)")
    add_rs(p)
    p.add_argument("--n", type=int)
    p.add_argument("--degrees", help='explicit degree set, e.g. "1,2,4"')
    p.set_defaults(handler=_cmd_kappa)

    p = sub.add_parser("kappa-table", help="full n x n bound matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(handler=_cmd_kappa_table)

    p = sub.add_parser("mu-field", help="minimum dim<AB> by search")
    add_field(p)
    add_rs(p)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, default=10 ** 9)
    p.set_defaults(handler=_cmd_mu_field)

    p = sub.add_parser("construct", help="build a pair attaining the bound")
    add_field(p)
    add_rs(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("stabilizer", help="stabilizer subfield of a subspace")
    add_field(p)
    p.add_argument("--subspace", required=True, help="file with one basis row per "
                                                     "line, coefficients comma-separated")
    p.set_defaults(handler=_cmd_stabilizer)

    p = sub.add_parser("verify-kneser", help="random pairs against the stabilizer bound")
    add_field(p)
    add_rs(p)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_verify_kneser)

    p = sub.add_parser("mu-group", help="minimum |AB| over group subsets")
    p.add_argument("--group", help="builtin name: cyclic:n, product:n,m, Z7xZ3semidirect")
    p.add_argument("--group-file", help="JSON file with order, identity, cayley")
    add_rs(p)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, default=10 ** 9)
    p.set_defaults(handler=_cmd_mu_group)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        results, code, seed = args.handler(args)
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
    if isinstance(results, str):
        print(results)
        return code
    report = {
        "command": args.command,
        "argv": argv,
        "version": __version__,
        "seed": seed,
        "params": {k: v for k, v in vars(args).items()
                   if k not in ("handler", "command") and v is not None},
        "results": results,
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
    }
    print(json.dumps(report, indent=2))
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
