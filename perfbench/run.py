"""Benchmark of subspace_products: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload kneser --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.

--trace 0 sets the workload up several times, runs its task list back to back
in whole passes until --seconds have gone (at least MIN_PASSES passes), checks
every result, sets the workload up several times again (setup_s is the median
of all set-ups), and reports the end-to-end metrics in reference seconds (see
HostSpeed).

--trace 1 runs the per-layer micro-benchmarks and then one untraced and one
traced pass of the workload, and reports the per-layer metrics; --seconds does
not apply.  The spans of the traced pass are written to .bench_out/.

The human-readable report goes to stdout first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up is repeated before the timed passes and again after them (each time
# at least SETUP_MIN times, until SETUP_BUDGET_S seconds or SETUP_MAX times),
# and setup_s is the median of all: one set-up can take only ms, and a slow
# spell of the host should not cover every one of them.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 0.75
MIN_PASSES = 3
# Tail percentile: the highest of these with at least ten tasks beyond it in
# every pass, so it is fixed per workload whatever the machine's speed.
PERCENTILES = (50, 60, 70, 75, 80, 85, 90, 95, 97.5, 99, 99.5, 99.8, 99.9, 99.95, 99.99)

# Every end-to-end time is CPU time of this (single-threaded) process.  The
# host takes the CPU away now and then for 10 to 55 ms; wall time counts
# those stalls, CPU time does not.
CLOCK = time.process_time

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "task_p50_ms": "ms",
                    "task_tail_ms": "ms", "peak_rss_mb": "MB"}


def _percentile(sorted_values, p):
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(tasks_per_pass: int) -> float:
    return max((p for p in PERCENTILES if tasks_per_pass * (100 - p) / 100 >= 10),
               default=PERCENTILES[0])


def run_pass(tasks, check: bool, tracer=None, label="", host=None):
    """Run every task once; returns (latencies, raw latencies, fingerprints,
    failures).

    With a HostSpeed, raw latencies exclude the reference loops that
    interrupted the task, and latencies are in reference seconds; without
    one, both are plain seconds."""
    latencies, raw, prints, failed = [], [], [], 0
    clock = CLOCK
    for task in tasks:
        mark = host.mark() if host else None
        error = None
        t0 = clock()
        try:
            res = tracer.call(label, task.run) if tracer else task.run()
        except Exception as exc:    # a failing task is counted, never fatal to the run
            error = exc
        elapsed = clock() - t0
        work, ref = host.convert(elapsed, mark) if host else (elapsed, elapsed)
        raw.append(work)
        latencies.append(ref)
        if error is not None:
            failed += 1
            prints.append(None)
            print(f"task {task.name} raised:\n{''.join(traceback.format_exception(error))}",
                  file=sys.stderr)
            continue
        if check:
            try:
                task.check(res)
            except Exception as exc:     # CheckFailed, or a result too malformed to check
                failed += 1
                print(f"task {task.name} failed its check: {exc!r}", file=sys.stderr)
        prints.append(task.fingerprint(res))
    return latencies, raw, prints, failed


class HostSpeed:
    """Converts raw seconds into reference seconds, to cancel the host's drift.

    The machine is shared, and its speed drifts by tens of percent within a
    second, much the same for all pure-Python code.  While the context is
    active, a timer signal interrupts the program every EVERY_S seconds and
    times a fixed pure-Python reference loop.  A span of work is reported in
    reference seconds: its raw (CPU) time, less the loops that interrupted it,
    times REFERENCE_S / (median loop time over the samples taken during it
    and the BEFORE samples just before) -- i.e. seconds on a host where the
    loop takes REFERENCE_S.
    """

    REFERENCE_S = 1e-3
    EVERY_S = 0.05
    BEFORE = 3
    _TABLE = [(i * 2654435761) & 0xFFFFF for i in range(256)]

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0              # total time spent in reference loops
        self._previous = None

    @classmethod
    def _reference_loop(cls):
        table, acc = cls._TABLE, 0
        for i in range(6000):
            v = table[i & 255] ^ i
            low = v & -v
            if low & 0x55555:
                acc += low.bit_length()
            else:
                acc ^= v
        return acc

    def _sample(self, signum=None, frame=None):
        t0 = CLOCK()
        self._reference_loop()
        dt = CLOCK() - t0
        self.samples.append(dt)
        self.probe_s += dt

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return len(self.samples), self.probe_s

    def convert(self, elapsed: float, mark) -> tuple[float, float]:
        """(raw, reference) seconds of work that took `elapsed` seconds since mark."""
        first, probe_s = mark
        window = self.samples[max(first - self.BEFORE, 0):]
        work = elapsed - (self.probe_s - probe_s)
        return work, work * self.REFERENCE_S / statistics.median(window)


def untraced_run(args, workloads):
    make = workloads.WORKLOADS[args.workload]
    setups, raw_setups = [], []
    walls, raw_walls, latencies, failed = [], [], [], 0

    def set_up(host):
        tasks, spent, count = None, 0.0, 0
        while count < SETUP_MIN or (spent < SETUP_BUDGET_S and count < SETUP_MAX):
            tasks = None    # free the last task list, so peak_rss_mb counts one
            gc.collect()
            mark = host.mark()
            t0 = CLOCK()
            tasks = make(args.seed, args.smoke, OUT_DIR)
            raw, ref = host.convert(CLOCK() - t0, mark)
            raw_setups.append(raw)
            setups.append(ref)
            spent += raw
            count += 1
        return tasks

    with HostSpeed() as host:
        tasks = set_up(host)
        start, pass_seconds = time.perf_counter(), []      # wall time, for the budget
        while len(walls) < MIN_PASSES or (
                time.perf_counter() - start + statistics.median(pass_seconds) <= args.seconds):
            gc.collect()
            t0 = time.perf_counter()
            lat, raw, _, bad = run_pass(tasks, check=True, host=host)
            pass_seconds.append(time.perf_counter() - t0)
            walls.append(sum(lat))
            raw_walls.append(sum(raw))
            latencies.append(lat)
            failed += bad
        tasks = None        # as in set_up
        tasks = set_up(host)

    # The passes are cut into groups of MIN_PASSES; in each group a task's
    # latency is its median there, both percentiles are taken over tasks, and
    # the median over groups is reported.  One slow run of a task cannot move
    # them, and with a fixed group size they do not drift with the number of
    # passes a run happens to make.
    p_tail = tail_percentile(len(tasks))
    p50s, tails = [], []
    for i in range(0, len(latencies) - MIN_PASSES + 1, MIN_PASSES):
        per_task = sorted(statistics.median(runs) for runs in zip(*latencies[i:i + MIN_PASSES]))
        p50s.append(_percentile(per_task, 50))
        tails.append(_percentile(per_task, p_tail))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "task_p50_ms": statistics.median(p50s) * 1e3,
        "task_tail_ms": statistics.median(tails) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    run = len(tasks) * len(walls)
    notes = [f"set-ups: {len(setups)}; tasks per pass: {len(tasks)}; passes: {len(walls)}; "
             f"tasks run: {run}",
             f"task_tail_ms is p{p_tail:g}, with {(100 - p_tail) * len(tasks) / 100:g} tasks "
             f"beyond it per pass",
             f"fail_frac: {failed / run:.6f} ({failed} of {run})",
             f"reference loop: median {statistics.median(host.samples) * 1e3:.4f} ms over "
             f"{len(host.samples)} samples; end-to-end times are in reference seconds",
             f"pass wall-clock times (s): {', '.join(f'{w:.4f}' for w in pass_seconds)}",
             f"raw pass CPU times (s): {', '.join(f'{w:.4f}' for w in raw_walls)}",
             f"raw wall_s: {statistics.median(raw_walls):.6f}",
             f"raw setup_s: {statistics.median(raw_setups):.6f}"]
    return ({name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
            run, failed, notes)


def traced_run(args, workloads, tracing, microbench):
    tasks = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT_DIR)
    metrics = microbench.layer_benchmarks(quick=args.smoke)
    metrics.update(microbench.cli_benchmarks(OUT_DIR))

    gc.collect()
    lat, _, plain, failed = run_pass(tasks, check=True)
    untraced_wall = sum(lat)
    gc.collect()
    with tracing.Tracer() as tracer:
        lat, _, traced, traced_failed = run_pass(tasks, check=False, tracer=tracer,
                                              label=f"task.{args.workload}")
    traced_wall = sum(lat)
    mismatched = sum(1 for a, b in zip(plain, traced) if a != b)
    restored = tracing.bindings_intact()
    failed += traced_failed + mismatched + (0 if restored else 1)

    totals = tracer.span_totals()
    aggs = tracer.aggregates
    pdc = aggs["search.product_dim_capped"]
    metrics.update({
        "fields.mul_calls": (aggs["fields.mul"].calls, "count"),
        "linalg.span_calls": (totals.get("linalg.span", (0, 0.0))[0], "count"),
        "linalg.span_self_s": (totals.get("linalg.span", (0, 0.0))[1], "s"),
        "search.pdc_calls": (pdc.calls, "count"),
        "search.pdc_self_s": (pdc.self_s, "s"),
        "search.enumerate_self_s": (aggs["search.enumerate_subspaces"].self_s, "s"),
        "search.pairs_examined": (tracer.pairs.get("search", 0), "count"),
        "search.cap_exit_frac": (pdc.cap_returns / pdc.calls if pdc.calls else 0.0, "ratio"),
        "products.stabilizer_calls": (totals.get("products.stabilizer", (0, 0.0))[0], "count"),
        "products.stabilizer_self_s": (totals.get("products.stabilizer", (0, 0.0))[1], "s"),
        "groups.pairs_examined": (tracer.pairs.get("groups", 0), "count"),
        "groups.randomized_self_s": (totals.get("groups.mu_group_randomized", (0, 0.0))[1], "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    notes = [f"untraced pass {untraced_wall:.4f} s, traced pass {traced_wall:.4f} s",
             f"traced results identical to untraced: {mismatched == 0} ({mismatched} differ)",
             f"every wrapper restored: {restored}",
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
             "self time by traced function (calls, seconds):"]
    notes += [f"  {name:34s} {calls:>10d} {self_s:12.6f}" for name, (calls, self_s) in totals.items()]
    return metrics, 2 * len(tasks), failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("kneser", "mu-sweep", "group-scan", "cli-oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)

    if not (SRC / "subspace_products" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import subspace_products
    if Path(subspace_products.__file__).resolve().parent != SRC / "subspace_products":
        print("error: subspace_products was imported from outside ./src", file=sys.stderr)
        return 2
    import workloads
    if not workloads.GOLDEN_TABLE.is_file():
        print(f"error: golden table {workloads.GOLDEN_TABLE} not found", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        import microbench
        import tracing
        metrics, attempted, failed, notes = traced_run(args, workloads, tracing, microbench)
        baselines = microbench.BASELINES
    else:
        metrics, attempted, failed, notes = untraced_run(args, workloads)
        baselines = {}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {sys.version.split()[0]}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        base = f"   (ROADMAP baseline {baselines[name]:g} {unit})" if name in baselines else ""
        print(f"{name:44s} {value:16.6f} {unit}{base}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
