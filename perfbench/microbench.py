"""Per-layer micro-benchmarks: public calls of each module timed on fixed inputs.

Inputs come from a fixed seed (0), not the workload seed, so every traced run
of every workload times the same calls.  Each figure is the median over
several timed batches; ``BASELINES`` holds the matching figure from the
ROADMAP's Baseline section, in the metric's own unit, for the report.
"""

from __future__ import annotations

import random
import statistics
import time

from subspace_products import fields, groups, linalg, products, search

import tracing
import workloads

# ROADMAP "Baseline" (scratch copy, 2 CPUs, Python 3.11.7), in each metric's unit.
BASELINES = {
    "fields.mul_ns.gf2_12": 210,
    "fields.mul_ns.gf3_6": 180,
    "fields.mul_ns.gf2_40": 6700,
    "fields.build_ms.gf3_10": 550,
    "search.product_dim_capped_us.gf2_12_5x7": 45,
    "search.product_dim_capped_us.gf3_6_3x4": 75,
    "products.stabilizer_us.gf2_8": 775,
    "products.stabilizer_us.gf2_12": 2145,
    "products.stabilizer_us.gf3_6": 2039,
    "products.product_span_us.gf2_12_5x7": 85,
    "products.optimal_pair_us.gf2_12_5x7": 67,
    "groups.scan_ns_per_pair": 626,
}

PAIRS = 20          # fixed random pairs per subspace micro-benchmark


def _per_call(fn, calls_per_run: int = 1, repeat: int = 5, min_batch_s: float = 0.02) -> float:
    """Median seconds per call; fn() performs calls_per_run calls."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - t0 >= min_batch_s or loops >= 1 << 20:
            break
        loops *= 2
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / (loops * calls_per_run))
    return statistics.median(samples)


def _mul_loop(f, pairs):
    mul = f.mul
    for a, b in pairs:
        mul(a, b)


def _pairs(f, r, s, rng):
    return [(search.random_subspace(f, r, rng), search.random_subspace(f, s, rng))
            for _ in range(PAIRS)]


def layer_benchmarks(quick: bool) -> dict[str, tuple[float, str]]:
    rng = random.Random(0)
    repeat = 1 if quick else 5
    out: dict[str, tuple[float, str]] = {}

    f2_8, f2_12, f3_6, f2_40 = (fields.ExtensionField(2, 8), fields.ExtensionField(2, 12),
                                fields.ExtensionField(3, 6), fields.ExtensionField(2, 40))
    for key, f, count in (("gf2_12", f2_12, 1000), ("gf3_6", f3_6, 1000), ("gf2_40", f2_40, 200)):
        elems = [(rng.randrange(1, f.q), rng.randrange(1, f.q)) for _ in range(count)]
        out[f"fields.mul_ns.{key}"] = (
            _per_call(lambda: _mul_loop(f, elems), count, repeat) * 1e9, "ns")
    out["fields.build_ms.gf2_12"] = (
        _per_call(lambda: fields.ExtensionField(2, 12), repeat=repeat) * 1e3, "ms")
    out["fields.build_ms.gf3_10"] = (
        _per_call(lambda: fields.ExtensionField(3, 10), repeat=1 if quick else 3,
                  min_batch_s=0) * 1e3, "ms")

    shapes = {"gf2_8": _pairs(f2_8, 3, 5, rng), "gf2_12_5x7": _pairs(f2_12, 5, 7, rng),
              "gf3_6_3x4": _pairs(f3_6, 3, 4, rng)}
    for key in ("gf2_12_5x7", "gf3_6_3x4"):
        pairs = shapes[key]
        f = pairs[0][0].field
        products_of = [[f.mul(x, y) for x in a.rows for y in b.rows] for a, b in pairs]
        out[f"linalg.span_us.{key}"] = (
            _per_call(lambda: [linalg.span(f, e) for e in products_of], PAIRS, repeat) * 1e6, "us")
        out[f"search.product_dim_capped_us.{key}"] = (
            _per_call(lambda: [search.product_dim_capped(f, a.rows, b.rows, f.n + 1)
                               for a, b in pairs], PAIRS, repeat) * 1e6, "us")

    for key, f in (("gf2_7_r3", fields.ExtensionField(2, 7)), ("gf3_5_r3", fields.ExtensionField(3, 5))):
        out[f"search.enumerate_ms.{key}"] = (
            _per_call(lambda: list(search.enumerate_subspaces(f, 3, containing_one=True)),
                      repeat=repeat) * 1e3, "ms")

    for key, shape in (("gf2_8", "gf2_8"), ("gf2_12", "gf2_12_5x7"), ("gf3_6", "gf3_6_3x4")):
        spans = [products.product_span(a, b) for a, b in shapes[shape]]
        out[f"products.stabilizer_us.{key}"] = (
            _per_call(lambda: [products.stabilizer(v) for v in spans], PAIRS, repeat) * 1e6, "us")
    pairs = shapes["gf2_12_5x7"]
    out["products.product_span_us.gf2_12_5x7"] = (
        _per_call(lambda: [products.product_span(a, b) for a, b in pairs], PAIRS, repeat) * 1e6, "us")
    out["products.optimal_pair_us.gf2_12_5x7"] = (
        _per_call(lambda: products.optimal_pair(f2_12, 5, 7), repeat=repeat) * 1e6, "us")

    out["groups.build_ms.z7xz3"] = (
        _per_call(lambda: groups.builtin_group("Z7xZ3semidirect"), repeat=repeat) * 1e3, "ms")
    z7 = groups.builtin_group("Z7xZ3semidirect")
    scans = []
    for _ in range(1 if quick else 3):
        t0 = time.perf_counter()
        res = groups.mu_group_exact(z7, 3, 5)          # full scan, 920,550 pairs
        scans.append((time.perf_counter() - t0) / res.pairs_examined)
    out["groups.scan_ns_per_pair"] = (statistics.median(scans) * 1e9, "ns")
    return out


def cli_benchmarks(out_dir) -> dict[str, tuple[float, str]]:
    """One round of the cli-oneshot commands (fixed seed 0): main() time per
    command untraced, and main()'s own time with the library traced."""
    tasks = workloads.cli_oneshot(0, True, out_dir)
    per_command: dict[str, list[float]] = {}
    for task in tasks:
        t0 = time.perf_counter()
        task.run()
        per_command.setdefault(task.name, []).append(time.perf_counter() - t0)
    out = {f"cli.main_ms.{name}": (statistics.fmean(times) * 1e3, "ms")
           for name, times in sorted(per_command.items())}
    with tracing.Tracer() as tracer:
        for task in tasks:
            task.run()
    out["cli.self_ms"] = (tracer.span_totals()["cli.main"][1] * 1e3, "ms")
    return out
